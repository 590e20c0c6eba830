"""Built-in example structures: values against closed forms and oracles."""

import numpy as np
import pytest

from dilatlab import structures
from dilatlab.cli import main
from dilatlab.structures import (build_structure, complex_dilatation,
                                 euclidean, identity_diffeo, register_structure,
                                 riemannian_diffeo, shear_quadratic,
                                 snowflake_structure, structure_names, tanh_shear)
from dilatlab.axioms import check_A2, estimate_dx
from dilatlab.carnot import structure_from_manifest, warped_heisenberg_structure
from dilatlab.heisenberg_group import heisenberg_warp
from dilatlab.util import halving_schedule

np.random.seed(3)


def test_registry_builds_everything():
    for name in structure_names():
        ds = build_structure(name)
        n = ds.space.dim
        x = np.zeros(n)
        y = ds.dil(0.5, x, 0.1 * np.ones(n))
        assert np.all(np.isfinite(y))
        assert ds.space.distance(x, y) >= 0.0


def test_registered_structure_reaches_the_command_line(monkeypatch, capsys):
    # the registry is restored when the test ends
    monkeypatch.setitem(structures._REGISTRY, "custom-euclidean3", None)
    register_structure("custom-euclidean3", lambda: euclidean(3))
    assert "custom-euclidean3" in structure_names()
    assert build_structure("custom-euclidean3").space.dim == 3
    assert main(["verify", "--structure", "custom-euclidean3", "--checks", "a0a1,a2"]) == 0
    assert "custom-euclidean3" in capsys.readouterr().out


def test_unknown_structure_name():
    with pytest.raises(KeyError):
        build_structure("nonesuch")


def test_diffeo_pairs_validate():
    probes = [np.array([0.3, -0.4]), np.array([-0.2, 0.1]), np.zeros(2)]
    for dp in (shear_quadratic(), tanh_shear(), identity_diffeo(2)):
        worst = dp.validate(probes)
        assert worst < 1e-5


def test_diffeo_dphi_is_batched():
    rng = np.random.RandomState(4)
    P = rng.uniform(-1.0, 1.0, (5, 3, 2))
    for dp in (shear_quadratic(), tanh_shear(), identity_diffeo(2)):
        J = dp.dphi(P)
        assert J.shape == (5, 3, 2, 2)
        assert np.array_equal(J[2, 1], dp.dphi(P[2, 1]))


def test_heisenberg_warp_validates():
    probes = np.random.RandomState(11).uniform(-2.0, 2.0, (50, 3))
    assert heisenberg_warp().validate(probes) < 1e-8


def test_diffeo_validate_catches_wrong_inverse():
    dp = shear_quadratic()
    import dataclasses
    bad = dataclasses.replace(dp, phi_inv=lambda p: np.asarray(p))
    with pytest.raises(ValueError):
        bad.validate([np.array([0.3, 0.2])])


def test_diffeo_validate_catches_wrong_jacobian():
    import dataclasses
    bad = dataclasses.replace(tanh_shear(), dphi=shear_quadratic().dphi)
    with pytest.raises(ValueError, match="Jacobian"):
        bad.validate([np.zeros(2), np.array([0.3, 0.2])])


def test_snowflake_metric_value():
    base = euclidean(2)
    ds = snowflake_structure(base, 0.5)
    p = np.array([0.0, 0.0])
    q = np.array([3.0, 4.0])  # euclidean distance 5
    assert ds.space.distance(p, q) == pytest.approx(np.sqrt(5.0))
    # dilations run at eps^(1/a) so the powered metric stays 1-homogeneous
    e = ds.dil(0.25, p, q)
    assert np.allclose(e, 0.25 ** 2 * q)
    d0 = ds.space.distance(p, q)
    assert ds.space.distance(p, e) == pytest.approx(0.25 * d0)


def test_complex_dilatation_formula():
    theta = 1.0
    ds = complex_dilatation(theta)
    x = np.array([0.2, -0.1])
    y = np.array([0.5, 0.3])
    eps = 0.3
    ang = theta * np.log(eps)
    c, s = np.cos(ang), np.sin(ang)
    R = np.array([[c, -s], [s, c]])
    want = x + eps * (R @ (y - x))
    assert np.allclose(ds.dil(eps, x, y), want, atol=1e-14)
    # group property in eps: dil_a(x, dil_b(x, y)) == dil_{ab}(x, y)
    lhs = ds.dil(0.2, x, ds.dil(0.4, x, y))
    rhs = ds.dil(0.08, x, y)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_complex_dilatation_satisfies_a2():
    ds = complex_dilatation(0.7)
    rng = np.random.RandomState(5)
    samples = [tuple(0.6 * rng.standard_normal(2) for _ in range(2)) for _ in range(4)]
    rep = check_A2(ds, samples, [(0.5, 0.5), (0.3, 0.6)], tol=1e-12)
    assert rep.passed


def test_riemannian_variant_one_dx():
    dp = shear_quadratic()
    ds = riemannian_diffeo(dp, variant=1)
    x = np.array([0.25, -0.15])
    rng = np.random.RandomState(6)
    pts = [x + 0.4 * rng.standard_normal(2) for _ in range(3)]
    sched = halving_schedule(2.0 ** -3, 10)
    td, worst = estimate_dx(ds, x, pts, sched)
    assert worst.converged
    J = dp.dphi(x)
    for i in range(3):
        for j in range(i + 1, 3):
            want = np.linalg.norm(J @ (pts[i] - pts[j]))
            assert td.dx(pts[i], pts[j]) == pytest.approx(want, rel=1e-5)


def test_riemannian_variant_two_dx():
    # conjugated variant: dilations are pushed through phi while the
    # distance stays euclidean, so the tangent norm is
    # |Dphi(x)^{-1} (phi(u) - phi(v))|
    dp = shear_quadratic()
    ds = riemannian_diffeo(dp, variant=2)
    x = np.array([0.2, 0.1])
    u = np.array([0.45, -0.2])
    v = np.array([-0.05, 0.3])
    sched = halving_schedule(2.0 ** -3, 8)
    td, worst = estimate_dx(ds, x, [u, v], sched)
    assert worst.converged
    Jinv = np.linalg.inv(dp.dphi(x))
    want = np.linalg.norm(Jinv @ (dp.phi(u) - dp.phi(v)))
    got = td.dx(u, v)
    assert got == pytest.approx(want, rel=1e-4)


def test_heisenberg_registry_entry_has_group_dim():
    ds = build_structure("heisenberg")
    assert ds.space.dim == 3
    x = np.zeros(3)
    u = np.array([0.2, 0.1, 0.05])
    half = ds.dil(0.5, x, u)
    # at the origin the dilation is the graded one
    assert np.allclose(half, [0.1, 0.05, 0.0125], atol=1e-12)


# Heisenberg generators as a frame manifest (the CLI's --manifest format)
HEIS_MANIFEST = {
    "schema": 1, "name": "heis-manifest", "dim": 3, "chart_halfwidth": 2.0,
    "generators": [[[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]],
                   [[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]]],
}


def _build_for_broadcast(name):
    if name == "heisenberg-warped":
        return warped_heisenberg_structure(steps=16)
    if name == "manifest":
        return structure_from_manifest(HEIS_MANIFEST, steps=16)
    return build_structure(name)


@pytest.mark.parametrize("name", structure_names() + ["heisenberg-warped", "manifest"])
def test_broadcast_dil_equals_scalar_calls(name):
    # one call over a schedule (eps > 1 included) must give, row for row, the
    # same bits as one scalar call per scale; random scales tell numpy's
    # array power from Python's float power, which differ on a few percent
    ds = _build_for_broadcast(name)
    n = ds.space.dim
    rng = np.random.RandomState(12)
    eps = np.concatenate([[1.0], rng.uniform(0.05, 2.0, 15)])
    k = eps.size
    X = rng.uniform(-0.15, 0.15, (k, n))
    Y = X + rng.uniform(-0.08, 0.08, (k, n))
    for xs, ys in ((X, Y), (X[0], Y), (X[0], Y[0])):
        got = ds.dil(eps, xs, ys)
        assert got.shape == (k, n)
        xr = np.broadcast_to(xs, (k, n))
        yr = np.broadcast_to(ys, (k, n))
        want = np.array([ds.dil(float(eps[r]), xr[r], yr[r]) for r in range(k)])
        assert np.array_equal(got, want)
