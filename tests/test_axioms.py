"""Axiom checks and tangent-operation extrapolation on closed-form cases."""

from dataclasses import replace

import numpy as np
import pytest

from dilatlab.axioms import (CheckReport, DilatationStructure, TangentData, check_A0_A1,
                             check_A2, check_conical_group, check_profile_theorem,
                             check_tangent_cone, derive_sigma_inv, estimate_dx)
from dilatlab.errors import DomainViolation, SamplingExhausted
from dilatlab.geometry import box_handle, sample_ball
from dilatlab.limits import decays_to_zero, richardson_limit
from dilatlab.structures import (build_structure, complex_dilatation, euclidean,
                                 riemannian_diffeo, shear_quadratic)
from dilatlab.util import halving_schedule, symmetric_box

np.random.seed(2)

SCHED = halving_schedule(0.5, 8)


def euclid_samples(n, count, rng, spread=0.8):
    return [tuple(spread * rng.standard_normal(n) for _ in range(2))
            for _ in range(count)]


def test_a0_a1_euclidean():
    ds = euclidean(2)
    rng = np.random.RandomState(0)
    rep = check_A0_A1(ds, euclid_samples(2, 5, rng), SCHED, tol=1e-12)
    assert rep.passed
    assert rep.max_residual < 1e-12


def _broken_inverse(eps, x, y):
    # not invertible through eps -> 1/eps (wrong exponent going out); takes a
    # schedule of scales like every dil
    e = np.asarray(eps, dtype=float)
    e = np.where(e <= 1, e, e ** 1.5)[..., None]
    return np.asarray(x) + e * (np.asarray(y) - np.asarray(x))


def test_a0_a1_catches_broken_inverse():
    ds = replace(euclidean(2), dil=_broken_inverse)
    rng = np.random.RandomState(1)
    rep = check_A0_A1(ds, euclid_samples(2, 3, rng), SCHED, tol=1e-9)
    assert not rep.passed
    kinds = {f["kind"] for f in rep.failures}
    assert "invertibility" in kinds


def _scaled(eps, x, y):
    """The Euclidean dilatation x + eps (y - x), eps (k,) as a (k, 1) column."""
    e = np.asarray(eps, dtype=float)[..., None]
    return np.asarray(x) + e * (np.asarray(y) - np.asarray(x))


def _off_at_1(eps, x, y):
    # moves every point by 1e-3 at eps = 1, and only there
    return _scaled(eps, x, y) + 1e-3 * (np.asarray(eps) == 1.0)[..., None]


def _moved_base(eps, x, y):
    # invertible, with the identity at 1, but dil(eps, x, x) = x + (1 - eps) 1e-6
    return _scaled(eps, x, y) + (1.0 - np.asarray(eps, dtype=float)[..., None]) * 1e-6


def _no_contraction(eps, x, y):
    # the identity map at every scale
    return np.broadcast_to(np.asarray(y, dtype=float), np.shape(_scaled(eps, x, y))).copy()


def _sawtooth(eps, x, y):
    # a sawtooth of period 1 / 3.3e6 in y's first coordinate, weighed by
    # eps (1 - eps) below 1: the continuity probe's move of 1e-6 shifts it by
    # 0.3 or 0.7 of its height
    e = np.asarray(eps, dtype=float)[..., None]
    d = np.asarray(y) - np.asarray(x)
    return _scaled(eps, x, y) + np.where(e < 1.0, e * (1.0 - e), 0.0) * 1e-2 * (
        3.3e6 * d[..., :1] % 1.0)


@pytest.mark.parametrize("dil, kind", [(_off_at_1, "identity-at-1"),
                                       (_moved_base, "fixed-point"),
                                       (_no_contraction, "contraction-trend"),
                                       (_sawtooth, "continuity-probe")])
def test_a0_a1_catches_each_known_defect(dil, kind):
    ds = replace(euclidean(2), dil=dil)
    rep = check_A0_A1(ds, euclid_samples(2, 3, np.random.RandomState(1)), SCHED, tol=1e-9)
    assert rep.passed is False
    assert kind in {f["kind"] for f in rep.failures}


def test_a0_a1_reports_each_failing_sample_and_kind_once():
    # the sawtooth fails invertibility and the domain witness at several
    # scales of one sample: those kinds take one record each, at their worst
    # scale, so every sample's continuity-probe record fits in the report
    ds = replace(euclidean(2), dil=_sawtooth)
    samples = euclid_samples(2, 3, np.random.RandomState(3))
    rep = check_A0_A1(ds, samples, SCHED, tol=1e-9)
    keys = [(f["sample"], f["kind"]) for f in rep.failures]
    assert len(keys) == len(set(keys)) < 20
    assert {i for i, kind in keys if kind == "continuity-probe"} == {0, 1, 2}
    for f in rep.failures:
        alone = check_A0_A1(ds, [samples[f["sample"]]], SCHED, tol=1e-9)
        assert dict(f, sample=0) in alone.failures
        if "scales" in f:
            assert 1 <= f["scales"] <= len(SCHED) and f["eps"] in SCHED.tolist(), f


def _merged_reports(check, ds, samples, *args, **kwargs):
    """The verdict, failures, max_residual and table of check on samples,
    merged from one call per sample: failures in sample order with "sample"
    re-indexed, the first 20 kept, and the table from sample 0."""
    reps = [check(ds, [s], *args, **kwargs) for s in samples]
    failures = [dict(f, sample=i) for i, r in enumerate(reps) for f in r.failures]
    return (all(r.passed for r in reps), failures[:20], max(r.max_residual for r in reps),
            reps[0].table)


@pytest.mark.parametrize("case", ["broken-inverse", "heisenberg"])
def test_pointwise_checks_equal_their_merged_per_sample_reports(case):
    from dilatlab.carnot import heisenberg_structure

    if case == "heisenberg":
        # an a0a1 tolerance below the Newton chart inverse's precision makes
        # every sample fail at several scales, so the failure order is exercised
        ds, x, sched, tol = (heisenberg_structure(steps=32), np.array([0.05, -0.1, 0.02]),
                             halving_schedule(0.125, 6), 1e-14)
    else:
        ds, x, sched, tol = replace(euclidean(2), dil=_broken_inverse), np.zeros(2), SCHED, 1e-9
    rng = np.random.RandomState(8)
    samples = [(x + rng.uniform(-0.1, 0.1, x.size), x + rng.uniform(-0.1, 0.1, x.size))
               for _ in range(3)]
    pairs = [(0.5, 0.5), (0.8, 0.4), (0.25, 0.125)]
    for check, args in ((check_A0_A1, (sched,)), (check_A2, (pairs,))):
        rep = check(ds, samples, *args, tol=tol)
        assert rep.failures or check is check_A2
        got = (rep.passed, rep.failures, rep.max_residual, rep.table)
        assert got == _merged_reports(check, ds, samples, *args, tol=tol)


def test_pointwise_checks_dilate_each_role_in_one_call():
    # dil sees every sample at every scale in one call per role: A0/A1's
    # images (y and its continuity bump at 1 and along the schedule), fixed
    # points and inverse images; A2's inner, outer and composed scales; the
    # difference's two roles and the sum's three in derive_sigma_inv and
    # check_conical_group, whose call counts do not grow with the samples.
    # The wrapper records the rows each call returns
    base = euclidean(2)
    calls = []

    def counted(e, x, y):
        out = base.dil(e, x, y)
        calls.append(out.size // 2)
        return out

    ds = replace(base, dil=counted)
    samples = euclid_samples(2, 5, np.random.RandomState(6))
    check_A0_A1(ds, samples, SCHED)
    assert calls == [5 * 2 * (len(SCHED) + 1), 5 * len(SCHED), 5 * len(SCHED)]
    del calls[:]
    check_A2(ds, samples, [(0.5, 0.5), (0.7, 0.2)])
    assert calls == [10, 10, 10]
    k, mus = len(SCHED), (0.5, 0.25)
    for count in (4, 7):
        del calls[:]
        td = derive_sigma_inv(ds, np.zeros(2), SCHED)
        # delta on (u, v), (u, u); sigma on (u, v), (x, v); delta on (u, u + v)
        assert calls == [4 * k, 2 * k] + [2 * k] * 3 + [2 * k, k]
        del calls[:]
        pts = [0.5 * p for p, _ in euclid_samples(2, count, np.random.RandomState(7))]
        check_conical_group(td, ds, pts, mus=mus)
        # T triples: sums of the 3T + 1 distinct pairs among u + v, v + w,
        # w + u, w + v (v + w of a triple is u + v of the next), the images
        # of u, v and u + v at each mu, sums of 2T pairs and of the T x mu
        # image pairs, then d^x of as many pairs
        T = count - 2
        R = 2 * T + T * len(mus)
        assert calls == ([(3 * T + 1) * k] * 3 + [3 * T * len(mus)] + [R * k] * 3
                         + [2 * R * k])


@pytest.mark.parametrize("arg,bad", [("pairs", []), ("pairs", [(0.5, 0.0)]),
                                     ("pairs", [(np.nan, 0.5)]), ("pairs", [(0.5, np.inf)]),
                                     ("pairs", [(-0.5, 0.5)]), ("mus", []), ("mus", [0.0]),
                                     ("mus", [0.5, np.nan]), ("mus", [np.inf]), ("mus", [-0.5])])
def test_scale_arguments_must_be_nonempty_finite_and_positive(arg, bad):
    ds = euclidean(2)
    samples = euclid_samples(2, 3, np.random.RandomState(6))
    with pytest.raises(ValueError, match="^%s must be nonempty, finite and > 0$" % arg):
        if arg == "pairs":
            check_A2(ds, samples, bad)
        else:
            td = derive_sigma_inv(ds, np.zeros(2), SCHED)
            check_conical_group(td, ds, [0.5 * p for p, _ in samples], mus=bad)


def test_a2_euclidean_exact():
    ds = euclidean(3)
    rng = np.random.RandomState(2)
    rep = check_A2(ds, euclid_samples(3, 4, rng), [(0.5, 0.5), (0.7, 0.2)], tol=1e-13)
    assert rep.passed


def test_estimate_dx_euclidean_is_distance():
    ds = euclidean(2)
    pts = [np.array([0.4, 0.1]), np.array([-0.3, 0.2]), np.array([0.1, -0.5])]
    td, worst = estimate_dx(ds, np.zeros(2), pts, SCHED)
    assert worst.converged
    assert td.collapsed == 0
    for i in range(3):
        for j in range(i + 1, 3):
            want = np.linalg.norm(pts[i] - pts[j])
            assert td.dx(pts[i], pts[j]) == pytest.approx(want, abs=1e-10)


def test_estimate_dx_flags_a_collapsing_metric():
    # with d = |p - q|^2 and affine dilatations the rescaled distance is
    # eps |u - v|^2, so d^x -> 0 on pairs whose distance stays above 1e-2
    space = box_handle(2, lambda p, q: np.sum((p - q) ** 2, axis=-1))
    ds = DilatationStructure(space=space,
                             dil=lambda e, x, y: x + np.asarray(e)[..., None] * (y - x))
    pts = [np.array([0.4, 0.1]), np.array([-0.3, 0.2]), np.array([0.1, -0.5])]
    td, worst = estimate_dx(ds, np.zeros(2), pts, SCHED)
    assert td.collapsed > 0
    assert abs(td.dx(pts[0], pts[1])) < 1e-6


@pytest.mark.parametrize("passed, converged, verdict", [
    (True, None, "pass"), (True, True, "pass"), (False, None, "FAIL"), (False, True, "FAIL"),
    # a residual read off unconverged limits certifies nothing either way
    (False, False, "inconclusive"), (True, False, "inconclusive")])
def test_check_report_verdict(passed, converged, verdict):
    rep = CheckReport(check="c", passed=passed, max_residual=0.0, tolerance=0.0,
                      converged=converged)
    assert rep.verdict == verdict
    # numpy booleans give the same words: np.False_ is not False
    if converged is not None:
        rep = CheckReport(check="c", passed=np.bool_(passed), max_residual=0.0,
                          tolerance=0.0, converged=np.bool_(converged))
        assert rep.verdict == verdict


def test_delta_sigma_inv_euclidean():
    ds = euclidean(3)
    x = np.array([0.1, -0.2, 0.3])
    u = np.array([0.5, 0.1, -0.2])
    v = np.array([-0.3, 0.4, 0.1])
    est = TangentData(ds, x, SCHED).limit("delta", u, v)
    assert est.converged
    assert np.allclose(est.extrapolated, x + v - u, atol=1e-10)

    td = derive_sigma_inv(ds, x, SCHED)
    assert td.converged
    assert np.allclose(td.sigma_op(u, v), u + v - x, atol=1e-10)
    assert np.allclose(td.delta_op(u, v), x + v - u, atol=1e-10)
    assert np.allclose(td.inv_op(u), 2 * x - u, atol=1e-10)
    assert td.consistency_residual(u, v) < 1e-9


def test_conical_group_euclidean():
    ds = euclidean(2)
    x = np.zeros(2)
    td = derive_sigma_inv(ds, x, SCHED)
    rng = np.random.RandomState(3)
    pts = [0.5 * rng.standard_normal(2) for _ in range(5)]
    rep = check_conical_group(td, ds, pts, mus=(0.5, 0.25))
    assert rep.passed


def test_conical_refuses_unconverged():
    # unconverged tangent limits certify nothing: the report is inconclusive,
    # carries the limit error and the caller's tolerance floor, and checks
    # no triple
    ds = euclidean(2)
    td = derive_sigma_inv(ds, np.zeros(2), SCHED)
    td.converged, td.limit_error = False, 3e-4
    rep = check_conical_group(td, ds, [np.zeros(2)] * 3, mus=(0.5,), tol_floor=1e-7)
    assert rep.to_jsonable() == {"check": "conical-group", "passed": False,
                                 "max_residual": 3e-4, "tolerance": 1e-7,
                                 "converged": False, "failures": [], "table": [],
                                 "notes": "tangent limits unconverged"}


def test_riemannian_dx_matches_jacobian_norm():
    dp = shear_quadratic()
    ds = riemannian_diffeo(dp, variant=1)
    x = np.array([0.3, -0.2])
    u = np.array([0.5, 0.1])
    v = np.array([-0.1, 0.4])
    sched = halving_schedule(2.0 ** -3, 8)
    td, worst = estimate_dx(ds, x, [u, v], sched)
    want = np.linalg.norm(dp.dphi(x) @ (v - u))
    assert worst.converged
    assert td.dx(u, v) == pytest.approx(want, rel=1e-6)


def _gaps(report):
    """The sup-gap sequence of a tangent-cone report, one value per scale."""
    return np.array([row["value"] for row in report.table])


def test_tangent_cone_euclidean_zero():
    ds = euclidean(2)
    rep = check_tangent_cone(ds, np.zeros(2), halving_schedule(0.5, 6), count=4, seed=0)
    assert rep.converged
    assert np.max(np.abs(_gaps(rep))) < 1e-9
    # the report carries the decay tolerance its verdict compares, the
    # largest of a quarter of the first gap, the worst d^x error over eps[0]
    # and 1e-10, and its notes name the term that set it
    assert rep.tolerance == 1e-10 and rep.notes.endswith("; tolerance: the floor 1e-10")


def _tangent_cone_by_hand(ds, x, eps, count, seed, direct=False):
    """The sup-gap sequence from an independent loop over one sample of
    B(x, eps[0]): every point dilated by its own dil call at mu = eps / eps[0],
    every d^x its own 12-scale limit through a bare TangentData. By default
    d^x is taken on the sample and the check's cone-identity arithmetic is
    repeated; direct=True takes d^x on the dilated images themselves,
    sup |d(u,v) - d^x(u,v)| / eps, with no cone identity. Also returns the
    worst d^x error on the sample's pairs."""
    td = TangentData(ds, x, halving_schedule(0.5, 12))
    dx = td.dx
    pts = sample_ball(ds.space, x, eps[0], count, seed=seed)
    dx_error = max([td.limit("dx", p, q).error for k, p in enumerate(pts) for q in pts[k + 1:]],
                   default=0.0)
    vals = []
    for e in eps:
        mu = float(e / eps[0])
        imgs = [ds.dil(mu, x, p) for p in pts]
        worst = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = float(ds.space.distance(imgs[i], imgs[j]))
                if direct:
                    worst = max(worst, abs(d - dx(imgs[i], imgs[j])) / e)
                else:
                    worst = max(worst, abs(d / mu - dx(pts[i], pts[j])))
        vals.append(worst if direct else worst / eps[0])
    return np.array(vals), dx_error


def _tangent_cone_case(case):
    from dilatlab.carnot import heisenberg_structure

    x = np.array([0.3, -0.2])
    if case == "heisenberg":
        return heisenberg_structure(steps=32), np.array([0.05, -0.1, 0.02]), 3
    if case == "heisenberg-origin":
        return heisenberg_structure(steps=32), np.zeros(3), 4
    if case == "riemannian-shear":
        return build_structure("riemannian-shear"), x, 4
    return euclidean(2), x, 1 if case == "one-point" else 4


@pytest.mark.parametrize("case", ["euclidean", "heisenberg", "one-point", "riemannian-shear"])
def test_tangent_cone_matches_per_pair_limits(case):
    ds, x, count = _tangent_cone_case(case)
    eps = halving_schedule(0.25, 4)
    got = check_tangent_cone(ds, x, eps, count=count, seed=1)
    want, dx_error = _tangent_cone_by_hand(ds, x, eps, count, seed=1)
    want_est = richardson_limit(eps, want)
    assert np.array_equal(_gaps(got), want)
    assert all(np.array_equal(row["extrapolated"], want_est.extrapolated) for row in got.table)
    assert all(row["error"] == want_est.error for row in got.table)
    assert got.converged == decays_to_zero(want, max(0.25 * want[0], dx_error / eps[0], 1e-10))


@pytest.mark.parametrize("case", ["euclidean", "heisenberg-origin", "riemannian-shear"])
def test_tangent_cone_matches_limits_on_dilated_images(case):
    # the values are gaps between rescaled distances of order one, so an
    # absolute 1e-9 is a relative 1e-9. Off the Heisenberg origin the direct
    # limits lose digits (the dilated points sit ~1e-6 apart in a chart whose
    # coordinates are ~0.1), which is why the check reads d^x on the sample
    ds, x, count = _tangent_cone_case(case)
    eps = halving_schedule(0.25, 4)
    got = check_tangent_cone(ds, x, eps, count=count, seed=1)
    want, _ = _tangent_cone_by_hand(ds, x, eps, count, seed=1, direct=True)
    np.testing.assert_allclose(_gaps(got), want, rtol=1e-9, atol=1e-9)


def test_tangent_cone_snowflake_does_not_converge():
    # off the origin d^x carries a fixed error (dil at eps^(1/0.3) rounds
    # away digits of the images), so the gap stays near 8.8e-5 at every
    # scale: a sequence that does not decay must not read as converged
    rep = check_tangent_cone(build_structure("snowflake-0.3"), (0.3, -0.2),
                             halving_schedule(0.5, 8), count=4, seed=0)
    gaps = _gaps(rep)
    assert not rep.converged
    assert np.all(gaps > 0.25 * gaps[0])
    assert 5e-5 < gaps[0] < 2e-4
    # an inconclusive report says which part of the decay failed
    assert rep.max_residual == gaps[-1] and rep.tolerance == 0.25 * gaps[0]
    assert rep.notes.endswith("; tolerance: a quarter of the first gap; "
                              "the last gap is above the tolerance")


def test_tangent_cone_names_the_scale_where_a_gap_rose():
    # a plane dil that stretches by 1e-3 at scales strictly between 0.15 and
    # 0.25 only: d^x, extrapolated along powers of 2, never sees it, and of
    # the check's dilations mu = eps / eps[0] only the last, 0.2, does
    flat = euclidean(2)

    def dil(e, x, y):
        e = np.asarray(e, dtype=float)
        return flat.dil(np.where((0.15 < e) & (e < 0.25), 1.001 * e, e), x, y)

    rep = check_tangent_cone(replace(flat, dil=dil), np.zeros(2), [0.5, 0.3, 0.2, 0.1],
                             count=4)
    gaps = _gaps(rep)
    assert np.all(gaps[:-1] < 1e-12) and gaps[-1] > 1e-4
    assert rep.verdict == "inconclusive"
    assert rep.notes.endswith("; the gap rose above 1.1 x the previous one at eps=0.1")


def test_tangent_cone_passes_at_the_dx_error_floor():
    # off the Heisenberg origin the exact cone leaves a flat gap of 2.34e-7
    # with 32-step flows, which is the d^x extrapolation error over eps[0]:
    # it never decays to a quarter of its first value, but it lies within the
    # d^x error bars
    from dilatlab.carnot import heisenberg_structure

    x, sched = np.array([0.05, -0.1, 0.02]), halving_schedule(0.125, 8)
    rep = check_tangent_cone(heisenberg_structure(steps=32), x, sched, count=3, seed=0)
    gaps = _gaps(rep)
    assert np.all(gaps > 0.25 * gaps[0])
    assert 1e-7 < gaps[0] < 1e-6
    assert rep.converged
    assert rep.max_residual == gaps[-1] <= rep.tolerance
    assert rep.notes.endswith("; tolerance: the worst d^x error over eps[0]")
    # the default one-step flows are exact, and the floor falls with their
    # rounding; the d^x error bars still cover it
    exact = check_tangent_cone(heisenberg_structure(), x, sched, count=3, seed=0)
    assert np.max(_gaps(exact)) < 1e-8
    assert exact.converged


def test_tangent_data_validates_point_and_schedule():
    ds = euclidean(2)
    with pytest.raises(ValueError, match="non-finite"):
        TangentData(ds, np.array([0.0, np.nan]), SCHED)
    with pytest.raises(ValueError, match="strictly decreasing"):
        TangentData(ds, np.zeros(2), SCHED[::-1])


def test_seeded_dx_pair_makes_no_dil_call():
    # the wrapper counts the rows dil returns: estimate_dx dilates each
    # sample point once per scale, memo hits (in either order) dilate
    # nothing, and a fresh pair dilates its two points once per scale
    base = euclidean(2)
    rows = [0]

    def counted(e, x, y):
        out = base.dil(e, x, y)
        rows[0] += out.size // 2
        return out

    ds = replace(base, dil=counted)
    pts = [np.array([0.4, 0.1]), np.array([-0.3, 0.2]), np.array([0.1, -0.5])]
    td, _ = estimate_dx(ds, np.zeros(2), pts, SCHED)
    seeded = rows[0]
    assert seeded == len(pts) * len(SCHED)
    for u, v in [(pts[0], pts[1]), (pts[2], pts[0]), (pts[2], pts[1])]:
        td.dx(u, v)
    assert rows[0] == seeded
    td.dx(pts[0], np.array([0.2, 0.2]))
    assert rows[0] == seeded + 2 * len(SCHED)


def test_tangent_operations_name_the_first_scale_off_the_chart():
    # on the chart [-1, 1]^2 both operations end at 1.2 - 0.6 eps on the
    # first axis, which leaves the chart first at eps = 0.25 of the schedule
    flat = euclidean(2)
    ds = replace(flat, space=replace(flat.space, chart_box=symmetric_box(2, 1.0)))
    x, u, v = np.zeros(2), np.array([-0.6, 0.0]), np.array([0.6, 0.0])
    with pytest.raises(DomainViolation,
                       match=r"^difference-operation point left the chart at eps=0\.25$"):
        TangentData(ds, x, SCHED).limit("delta", u, v)
    td = TangentData(ds, x, SCHED)
    with pytest.raises(DomainViolation,
                       match=r"^sum-operation point left the chart at eps=0\.25$"):
        td.sigma_op(v, v)
    # a batch names its first pair in request order that leaves the chart, at
    # that pair's first scale: the second row here (eps = 0.25), though the
    # third, which ends at 1.2 - 0.2 eps, leaves it earlier in the schedule
    inside, early = np.array([0.1, 0.0]), np.array([-0.2, 0.0])
    with pytest.raises(DomainViolation,
                       match=r"^difference-operation point left the chart at eps=0\.25$"):
        td.limits("delta", [-inside, u, early], [inside, v, np.array([1.0, 0.0])])


def test_profile_theorem_too_few_points_is_typed():
    sched = halving_schedule(0.5, 4)
    with pytest.raises(SamplingExhausted):
        check_profile_theorem(euclidean(2), np.zeros(2), sched, count=2)


def test_profile_theorem_euclidean():
    ds = euclidean(2)
    rep = check_profile_theorem(ds, np.zeros(2), halving_schedule(0.5, 6), count=5, seed=1)
    assert rep.passed
    assert rep.max_residual <= rep.tolerance


@pytest.mark.parametrize("count", [3, 5, 7])
def test_profile_theorem_refuses_a_spiral_under_the_l1_metric(count):
    # the spiral's dilatations rotate by ln(eps), and the l1 norm is not
    # rotation invariant: the rescaled distances swing forever, so no d^x
    # limit exists. The GH gaps (0.02-0.25) sit far below the sample density
    # (0.82-0.87) that judges their decay, so only the unconverged d^x limits
    # behind the snapshot can refuse the verdict
    l1 = lambda p, q: np.sum(np.abs(p - q), axis=-1)
    ds = replace(complex_dilatation(1.0), space=box_handle(2, l1))
    rep = check_profile_theorem(ds, np.array([0.3, -0.2]), SCHED, count=count)
    assert not rep.passed
    assert rep.converged is False
    assert "d^x limits unconverged" in rep.notes
    assert rep.max_residual <= rep.tolerance


def test_report_serialization():
    ds = euclidean(2)
    rng = np.random.RandomState(4)
    rep = check_A2(ds, euclid_samples(2, 2, rng), [(0.5, 0.5)], tol=1e-12)
    doc = rep.to_jsonable()
    assert doc["check"] == "a2"
    assert isinstance(doc["passed"], bool)
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "eps,value,diff,extrapolated,error"


def test_batched_and_per_scale_paths_agree_on_heisenberg():
    # the batched dil and a wrapper that calls it once per row with a float
    # scale must give identical reports and values
    from dilatlab.carnot import heisenberg_structure

    ds = heisenberg_structure(steps=32)

    def per_row(e, x, y):
        if np.ndim(e) == 0:
            return ds.dil(e, x, y)
        es, xs, ys = np.broadcast_arrays(np.asarray(e)[:, None], x, y)
        n = xs.shape[-1]
        return np.array([ds.dil(float(s[0]), p, q) for s, p, q
                         in zip(es.reshape(-1, n), xs.reshape(-1, n), ys.reshape(-1, n))]
                        ).reshape(xs.shape)

    looped = replace(ds, dil=per_row)
    sched = halving_schedule(0.125, 4)
    rng = np.random.RandomState(13)
    x = np.array([0.05, -0.1, 0.02])
    pts = [x + rng.uniform(-0.08, 0.08, 3) for _ in range(3)]
    samples = [(x, p) for p in pts]
    u, v = pts[0], pts[1]

    def run(d):
        a0 = check_A0_A1(d, samples, sched).to_jsonable()
        a2 = check_A2(d, samples, [(0.5, 0.5), (0.8, 0.4)]).to_jsonable()
        td, worst = estimate_dx(d, x, pts, sched)
        tan = derive_sigma_inv(d, x, sched)
        # the conical check needs converged limits, which take 8 scales here
        cone_td = derive_sigma_inv(d, x, halving_schedule(0.125, 8))
        cone = check_conical_group(cone_td, d, pts, mus=(0.5, 0.25)).to_jsonable()
        return [a0, a2, cone, worst.extrapolated, worst.error, worst.converged,
                td.dx(pts[0], pts[2]), td.dx(pts[2], pts[0]), td.dx(u, x + 0.05),
                tan.limit_error, tan.converged, tan.sigma_op(u, v), tan.delta_op(u, v),
                tan.inv_op(u), tan.dx(u, v)]

    for got, want in zip(run(ds), run(looped)):
        if isinstance(got, dict):
            assert got == want
        else:
            assert np.array_equal(got, want)
