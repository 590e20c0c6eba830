"""Limit estimation along halving schedules."""

import numpy as np
import pytest

from dilatlab.limits import decay_failure, decays_to_zero, richardson_limit
from dilatlab.util import check_schedule, halving_schedule


def test_halving_schedule():
    s = halving_schedule(0.5, 4)
    assert np.allclose(s, [0.5, 0.25, 0.125, 0.0625])
    with pytest.raises(ValueError):
        check_schedule([0.5, 0.6])
    with pytest.raises(ValueError):
        check_schedule([0.5])
    # a float ndarray is returned as it is, a list is converted
    assert check_schedule(s) is s
    assert np.array_equal(check_schedule(list(s)), s)


@pytest.mark.parametrize("bad, message", [
    ([0.5], "schedule must hold at least 2 scales"),
    ([[0.5, 0.25], [0.125, 0.0625]], "schedule must hold at least 2 scales"),
    ([0.5, 0.0], "schedule entries must lie in (0, 1]"),
    ([1.5, 0.5], "schedule entries must lie in (0, 1]"),
    ([0.5, 0.6], "schedule must be strictly decreasing"),
    ([0.5, 0.5], "schedule must be strictly decreasing"),
    # NaN compares false with everything, so no ordering test can catch it
    ([float("nan"), float("nan")], "schedule entries must lie in (0, 1]"),
    ([0.5, float("nan"), 0.1], "schedule entries must lie in (0, 1]"),
])
def test_check_schedule_messages(bad, message):
    # the same rule and message for a list and for a float ndarray
    for arg in (bad, np.array(bad, dtype=float)):
        with pytest.raises(ValueError) as err:
            check_schedule(arg)
        assert str(err.value) == message


def test_constant_sequence():
    eps = halving_schedule(0.5, 5)
    est = richardson_limit(eps, np.full(5, 3.25))
    assert est.converged
    assert est.note == "constant"
    assert est.extrapolated == pytest.approx(3.25)


def test_exact_first_order_is_extrapolated():
    eps = halving_schedule(0.5, 8)
    L, C = 1.7, 0.4
    vals = L + C * eps
    est = richardson_limit(eps, vals)
    assert est.note == "richardson"
    assert est.converged
    assert est.extrapolated == pytest.approx(L, abs=1e-12)
    assert est.error < 1e-10


def test_first_order_with_curvature():
    eps = halving_schedule(0.5, 10)
    L = -0.3
    vals = L + 0.5 * eps + 0.2 * eps ** 2
    est = richardson_limit(eps, vals)
    assert est.note == "richardson"
    gap = abs(float(est.extrapolated) - L)
    assert gap < 1e-6
    # the reported error bounds the true gap
    assert est.error >= gap


def test_second_order_falls_back_but_converges():
    eps = halving_schedule(0.5, 10)
    vals = 2.0 + 0.3 * eps ** 2
    est = richardson_limit(eps, vals)
    assert est.converged
    assert abs(float(est.extrapolated) - 2.0) < 1e-6


def test_fallback_error_covers_a_growing_noise_floor():
    # a constant limit under rounding that grows like eps^-2 (dil(1/eps)
    # amplifying the images' rounding): the last two values share most of
    # their noise, so the last difference alone misses the truth
    eps = halving_schedule(0.5, 12)
    L = 0.16
    signs = np.array([1, -1, 1, 1, -1, 1, -1, -1, 1, -1, 0.3, 1])
    vals = L + 1e-16 * signs / eps ** 2
    est = richardson_limit(eps, vals)
    assert est.note == "fallback-last"
    assert abs(vals[-1] - vals[-2]) < abs(float(est.extrapolated) - L) <= est.error


def test_fallback_error_is_the_last_difference_while_differences_shrink():
    eps = halving_schedule(0.5, 10)
    vals = 2.0 + 0.3 * eps ** 2
    est = richardson_limit(eps, vals)
    assert est.note == "fallback-last"
    assert est.error == abs(vals[-1] - vals[-2])


def test_divergent_not_converged():
    eps = halving_schedule(0.5, 8)
    vals = 1.0 / np.sqrt(eps)
    est = richardson_limit(eps, vals)
    assert not est.converged


def test_vector_values():
    eps = halving_schedule(0.5, 8)
    L = np.array([1.0, -2.0, 0.5])
    vals = L[None, :] + np.outer(eps, np.array([0.3, -0.1, 0.2]))
    est = richardson_limit(eps, vals)
    assert est.converged
    assert np.allclose(est.extrapolated, L, atol=1e-12)
    assert est.extrapolated.shape == (3,)


def test_table_rows_shape():
    eps = halving_schedule(0.5, 4)
    est = richardson_limit(eps, 1.0 + eps)
    rows = est.table_rows()
    assert len(rows) == 4
    assert rows[0]["diff"] == ""
    assert rows[1]["diff"] == pytest.approx(0.25)
    assert set(rows[0]) == {"eps", "value", "diff", "extrapolated", "error"}


def test_needs_three_scales():
    with pytest.raises(ValueError):
        richardson_limit([0.5, 0.25], [1.0, 2.0])


def test_a_nan_scale_is_refused_not_extrapolated():
    # it used to pass the schedule check and come back as a fallback-last estimate
    with pytest.raises(ValueError, match=r"schedule entries must lie in \(0, 1\]"):
        richardson_limit([0.5, float("nan"), 0.125, 0.0625], [1.0, 1.1, 1.2, 1.3])


def test_decays_to_zero_on_both_sides_of_tol():
    assert decays_to_zero([0.4, 0.2, 0.1], tol=0.1)        # last exactly at tol
    assert not decays_to_zero([0.4, 0.2, 0.1], tol=0.099)  # last just above tol
    # a 10% rise is allowed, more is not, unless the value sits below tol
    assert decays_to_zero([0.4, 0.44, 0.05], tol=0.1)
    assert not decays_to_zero([0.4, 0.45, 0.05], tol=0.1)
    assert decays_to_zero([0.0, 0.09, 0.05], tol=0.1)
    assert not decays_to_zero([8.8e-5, 1.3e-3, 1.1], tol=0.25 * 8.8e-5)


def test_decays_to_zero_is_a_python_bool_for_a_numpy_tolerance():
    # a numpy tol still gives a Python bool: np.False_ is not False
    vals = np.array([0.4, 0.2, 0.1])
    for tol in (np.float64(0.1), np.float64(0.05), np.float32(0.1)):
        assert type(decays_to_zero(vals, tol)) is bool
    assert decays_to_zero(vals, np.float64(0.1)) is True
    assert decays_to_zero(vals, np.float64(0.05)) is False


def test_decay_failure_names_the_rule_that_broke():
    assert decay_failure([0.4, 0.2, 0.1], tol=0.1) is None
    # the first rise above 1.1 x its predecessor and above tol, by index
    assert decay_failure([0.4, 0.45, 0.5, 0.05], tol=0.1) == ("rise", 1)
    assert decay_failure([0.4, 0.2, 0.3, 0.05], tol=0.1) == ("rise", 2)
    # no rise, but the last value is above tol
    assert decay_failure([0.4, 0.2, 0.1], tol=0.099) == ("last", 2)
    assert decay_failure([float("nan"), 0.1], tol=0.2) == ("rise", 1)


def test_dx_schedule_is_read_only():
    # every TangentData built on DX_SCHEDULE shares it as its eps
    from dilatlab.axioms import DX_SCHEDULE
    assert not DX_SCHEDULE.flags.writeable
