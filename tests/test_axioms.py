"""Axiom checks and tangent-operation extrapolation on closed-form cases."""

import numpy as np
import pytest

from dilatlab.axioms import (check_A0_A1, check_A2, check_conical_group,
                             check_profile_theorem, check_tangent_cone,
                             derive_sigma_inv, estimate_delta, estimate_dx)
from dilatlab.structures import euclidean, riemannian_diffeo, shear_quadratic
from dilatlab.util import halving_schedule

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


def test_a0_a1_catches_broken_inverse():
    base = euclidean(2)

    def bad_dil(eps, x, y):
        # not invertible through eps -> 1/eps (wrong exponent going out)
        e = eps if eps <= 1 else eps ** 1.5
        return np.asarray(x) + e * (np.asarray(y) - np.asarray(x))

    import dataclasses
    ds = dataclasses.replace(base, dil=bad_dil)
    rng = np.random.RandomState(1)
    rep = check_A0_A1(ds, euclid_samples(2, 3, rng), SCHED, tol=1e-9)
    assert not rep.passed
    kinds = {f["kind"] for f in rep.failures}
    assert "invertibility" in kinds


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
    assert not td.degenerate
    for i in range(3):
        for j in range(i + 1, 3):
            want = np.linalg.norm(pts[i] - pts[j])
            assert td.dx(pts[i], pts[j]) == pytest.approx(want, abs=1e-10)


def test_delta_sigma_inv_euclidean():
    ds = euclidean(3)
    x = np.array([0.1, -0.2, 0.3])
    u = np.array([0.5, 0.1, -0.2])
    v = np.array([-0.3, 0.4, 0.1])
    est = estimate_delta(ds, x, u, v, SCHED)
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
    ds = euclidean(2)
    td = derive_sigma_inv(ds, np.zeros(2), SCHED)
    td.converged = False
    with pytest.raises(ValueError):
        check_conical_group(td, ds, [np.zeros(2)] * 3, mus=(0.5,))


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


def test_tangent_cone_euclidean_zero():
    ds = euclidean(2)
    est = check_tangent_cone(ds, np.zeros(2), halving_schedule(0.5, 6), count=4, seed=0)
    assert est.converged
    assert np.max(np.abs(est.values)) < 1e-9


def test_profile_theorem_euclidean():
    ds = euclidean(2)
    rep = check_profile_theorem(ds, np.zeros(2), halving_schedule(0.5, 6),
                                halving_schedule(0.5, 6), count=5, seed=1)
    assert rep.passed
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
    # the broadcasting dil and a scalar-only wrapper of it (which takes the
    # per-scale loop) must give identical reports and values
    import dataclasses
    from dilatlab.carnot import heisenberg_structure

    ds = heisenberg_structure(steps=32)
    looped = dataclasses.replace(ds, dil=lambda e, x, y: ds.dil(e, x, y))
    assert ds.dil.broadcasts and not hasattr(looped.dil, "broadcasts")
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
