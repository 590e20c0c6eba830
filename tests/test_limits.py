"""Limit estimation along halving schedules."""

import numpy as np
import pytest

from dilatlab.limits import decays_to_zero, richardson_limit
from dilatlab.util import check_schedule, halving_schedule


def test_halving_schedule():
    s = halving_schedule(0.5, 4)
    assert np.allclose(s, [0.5, 0.25, 0.125, 0.0625])
    with pytest.raises(ValueError):
        check_schedule([0.5, 0.6])
    with pytest.raises(ValueError):
        check_schedule([0.5])


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


def test_decays_to_zero_on_both_sides_of_tol():
    assert decays_to_zero([0.4, 0.2, 0.1], tol=0.1)        # last exactly at tol
    assert not decays_to_zero([0.4, 0.2, 0.1], tol=0.099)  # last just above tol
    # a 10% rise is allowed, more is not, unless the value sits below tol
    assert decays_to_zero([0.4, 0.44, 0.05], tol=0.1)
    assert not decays_to_zero([0.4, 0.45, 0.05], tol=0.1)
    assert decays_to_zero([0.0, 0.09, 0.05], tol=0.1)
    assert not decays_to_zero([8.8e-5, 1.3e-3, 1.1], tol=0.25 * 8.8e-5)
