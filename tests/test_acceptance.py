"""Acceptance gate: one test per shipped capability, run with pytest -v.

Each test prints a [PASS] line with its measured numbers so the verbose run
doubles as a short report. Expected values come from closed forms or from
independent oracles computed here, never from recorded outputs.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from dilatlab.axioms import (TangentData, check_A0_A1, check_A2, check_conical_group,
                             check_profile_continuity, check_tangent_cone, derive_sigma_inv,
                             estimate_dx)
from dilatlab.carnot import (CCConfig, cc_distance, check_normal_frame,
                             heisenberg_structure, sr_dilatation)
from dilatlab.geometry import FinitePointedSpace, rescale
from dilatlab.gromov import gh_pointed_exact, metric_profile
from dilatlab.heisenberg_group import (heisenberg, heisenberg_cc, heisenberg_dilate,
                                       heisenberg_group_law, heisenberg_inverse,
                                       heisenberg_warp, vertical_cc_oracle,
                                       warped_heisenberg)
from dilatlab.structures import (complex_dilatation, euclidean,
                                 riemannian_diffeo, shear_quadratic,
                                 snowflake_structure)
from dilatlab.util import halving_schedule
from dilatlab.vectorfields import (build_adapted_frame, compose_rows, flow_exp,
                                   lie_bracket, polynomial_field)

np.random.seed(99)


def _ball(rng, n, radius):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v) * radius * rng.uniform(0.0, 1.0) ** (1.0 / n)


def _heis_generators():
    X1 = polynomial_field([[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]], name="X1")
    X2 = polynomial_field([[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]], name="X2")
    return X1, X2


# ===========================================================================


def test_criterion_01_euclidean_calibration():
    t0 = time.perf_counter()
    sched = halving_schedule(0.5, 8)
    tuples = 0
    worst_resid = 0.0
    for n in (2, 3):
        ds = euclidean(n)
        rng = np.random.RandomState(10 + n)

        # keep each pair inside the declared axiom domain (radius 2 here)
        def pair():
            x = _ball(rng, n, 0.8)
            return x, x + _ball(rng, n, 0.9)

        xy = [pair() for _ in range(30)]
        rep01 = check_A0_A1(ds, xy, sched, tol=1e-9)
        assert rep01.passed and rep01.max_residual < 1e-9
        tuples += 30

        xu = [pair() for _ in range(30)]
        rep2 = check_A2(ds, xu, [(0.5, 0.5), (0.7, 0.2), (0.3, 0.9)], tol=1e-9)
        assert rep2.passed and rep2.max_residual < 1e-9
        tuples += 30

        # rescaled distance has no eps dependence at all: the sequence
        # (1/eps) d(dil_eps u, dil_eps v) equals d(u, v) at every scale
        x = _ball(rng, n, 0.3)
        pts = [x + _ball(rng, n, 0.6) for _ in range(8)]
        td, worst = estimate_dx(ds, x, pts, sched)
        assert worst.converged and worst.error < 1e-9
        for u, v in itertools.combinations(pts, 2):
            seq = np.array([ds.space.distance(ds.dil(e, x, u), ds.dil(e, x, v)) / e
                            for e in sched])
            dev = float(np.max(np.abs(seq - ds.space.distance(u, v))))
            assert dev < 1e-12
            worst_resid = max(worst_resid, dev)
        tuples += 28

        td2 = derive_sigma_inv(ds, x, sched)
        assert td2.converged
        for _ in range(12):
            u = x + _ball(rng, n, 0.6)
            v = x + _ball(rng, n, 0.6)
            assert np.max(np.abs(td2.sigma_op(u, v) - (u + v - x))) < 1e-9
            assert np.max(np.abs(td2.delta_op(u, v) - (x + v - u))) < 1e-9
            assert np.max(np.abs(td2.inv_op(u) - (2 * x - u))) < 1e-9
            assert td2.consistency_residual(u, v) < 1e-9
            tuples += 1

    dt = time.perf_counter() - t0
    assert tuples >= 200
    assert dt < 5.0
    print("[PASS] criterion 1: euclidean(2,3) axiom suite on %d tuples, "
          "worst rescale deviation %.1e (%.2fs < 5s)" % (tuples, worst_resid, dt))


def test_criterion_02_difference_closed_form():
    ds = euclidean(3)
    rng = np.random.RandomState(21)
    sched = halving_schedule(0.5, 10)
    worst_step = 0.0
    worst_limit = 0.0
    for _ in range(30):
        x = _ball(rng, 3, 0.3)
        u = x + _ball(rng, 3, 0.6)
        v = x + _ball(rng, 3, 0.6)
        est = TangentData(ds, x, sched).limit("delta", u, v)
        assert est.converged
        for e, val in zip(est.eps, np.asarray(est.values)):
            gap = float(np.max(np.abs(val - (x + e * (u - x) + v - u))))
            assert gap < 1e-12
            worst_step = max(worst_step, gap)
        lim = float(np.max(np.abs(np.asarray(est.extrapolated) - (x + v - u))))
        assert lim < 1e-10
        worst_limit = max(worst_limit, lim)
    print("[PASS] criterion 2: finite-scale difference matches "
          "x + eps(u-x) + v - u (worst %.1e), limit x + v - u (worst %.1e)"
          % (worst_step, worst_limit))


def test_criterion_03_riemannian_tangent_norm():
    t0 = time.perf_counter()
    dp = shear_quadratic()
    ds = riemannian_diffeo(dp, variant=1)
    sched = halving_schedule(2.0 ** -4, 9)
    rng = np.random.RandomState(31)
    pairs = 0
    worst_rel = 0.0
    for _ in range(5):
        x = 0.3 * rng.standard_normal(2)
        pts = [x + 0.45 * rng.standard_normal(2) for _ in range(5)]
        td, worst = estimate_dx(ds, x, pts, sched)
        assert worst.converged
        J = np.asarray(dp.dphi(x), dtype=float)
        for u, v in itertools.combinations(pts, 2):
            want = float(np.linalg.norm(J @ (v - u)))
            rel = abs(td.dx(u, v) - want) / want
            assert rel < 1e-6
            worst_rel = max(worst_rel, rel)
            pairs += 1
    dt = time.perf_counter() - t0
    assert pairs >= 50
    assert dt < 10.0
    print("[PASS] criterion 3: deformed tangent norm |Dphi(x)(v-u)| on %d "
          "pairs, worst relative gap %.1e (%.2fs < 10s)" % (pairs, worst_rel, dt))


def test_criterion_04_snowflake_suite():
    bases = [
        ("euclidean2", lambda: euclidean(2)),
        ("conjugated-shear", lambda: riemannian_diffeo(shear_quadratic(), variant=2)),
    ]
    sched_short = halving_schedule(0.5, 6)
    checked = []
    for label, make in bases:
        for a in (0.3, 0.5, 0.9):
            ds = snowflake_structure(make(), a)
            rng = np.random.RandomState(41)
            xy = [(pt, pt + off) for pt, off in
                  ((_ball(rng, 2, 0.5), _ball(rng, 2, 0.8)) for _ in range(12))]
            rep01 = check_A0_A1(ds, xy, sched_short, tol=1e-9)
            assert rep01.passed, (label, a, rep01.failures)
            rep2 = check_A2(ds, xy, [(0.5, 0.5), (0.7, 0.2)], tol=1e-9)
            assert rep2.passed, (label, a)

            # the dilatation family contracts at eps^(1/a), so the usable
            # schedule depth scales with the exponent: too deep and the
            # underlying offsets hit float granularity, too shallow and the
            # slowest case (a near 1) has not settled yet
            sched_limits = halving_schedule(0.5, max(6, int(np.ceil(22 * a))))
            x = np.array([0.15, -0.1])
            pts = [x + _ball(rng, 2, 0.4) for _ in range(4)]
            td, worst = estimate_dx(ds, x, pts, sched_limits)
            assert worst.converged, (label, a)
            td2 = derive_sigma_inv(ds, x, sched_limits)
            assert td2.converged, (label, a)
            u, v = pts[0], pts[1]
            assert td2.consistency_residual(u, v) < 1e-4, (label, a)
            checked.append((label, a))
    print("[PASS] criterion 4: snowflake suite green for %s" %
          ", ".join("%s^%.1f" % (l, a) for l, a in checked))


def test_criterion_05_rotation_scale_dependence():
    # the sum operation carries a first-order term that rotates with log(eps)
    # and scales with |p - x|; extrapolation cannot cancel a rotating
    # coefficient, so resolution comes from depth and from keeping the first
    # leg short (the identity is exact in the second argument)
    sched = halving_schedule(0.5, 23)
    x = np.array([0.1, -0.2])
    u = np.array([0.5, 0.2])
    v = np.array([-0.3, 0.4])
    finite_probe = {}
    worst_sigma = 0.0
    for theta in (0.5, 1.0):
        ds = complex_dilatation(theta)
        rng = np.random.RandomState(51)
        xy = [(pt, pt + off) for pt, off in
              ((_ball(rng, 2, 0.5), _ball(rng, 2, 0.8)) for _ in range(10))]
        assert check_A0_A1(ds, xy, halving_schedule(0.5, 8), tol=1e-9).passed
        assert check_A2(ds, xy, [(0.5, 0.5), (0.3, 0.7)], tol=1e-9).passed

        td = derive_sigma_inv(ds, x, sched)
        assert td.converged
        for _ in range(10):
            d1 = rng.standard_normal(2)
            p = x + rng.uniform(0.01, 0.05) * d1 / np.linalg.norm(d1)
            q = x + _ball(rng, 2, 0.5)
            gap = float(np.max(np.abs(td.sigma_op(p, q) - (p + q - x))))
            assert gap < 1e-8
            worst_sigma = max(worst_sigma, gap)

        # finite-scale difference probe keeps the rotation visible
        w = ds.dil(0.5, x, u)
        finite_probe[theta] = ds.dil(2.0, w, ds.dil(0.5, x, v))

    sep = float(np.max(np.abs(finite_probe[0.5] - finite_probe[1.0])))
    assert sep > 1e-2
    print("[PASS] criterion 5: rotation structures pass the suite, sum "
          "operation u+v-x to %.1e; finite-scale probes separate the two "
          "rates by %.3f" % (worst_sigma, sep))


def test_criterion_06_adapted_frame_construction():
    X1, X2 = _heis_generators()
    probes = [np.zeros(3), np.array([0.3, -0.2, 0.1]), np.array([-0.4, 0.5, 0.2])]
    fr = build_adapted_frame([X1, X2], probes)
    assert fr.degrees == (1, 1, 2)
    assert fr.layer_dims == (2, 3)
    B = lie_bracket(X1, X2)
    worst = max(float(np.max(np.abs(B(p) - np.array([0.0, 0.0, 1.0]))))
                for p in probes)
    assert worst < 1e-9
    print("[PASS] criterion 6: adapted frame has degrees (1,1,2), layers "
          "(2,3); bracket matches (0,0,1) to %.1e" % worst)


def test_criterion_07_composition_and_normal_frame():
    t0 = time.perf_counter()
    frame, law = heisenberg()
    rng = np.random.RandomState(71)
    worst = 0.0
    for _ in range(100):
        a = _ball(rng, 3, 0.3)
        b = _ball(rng, 3, 0.3)
        x = _ball(rng, 3, 0.2)
        P, _, _ = compose_rows(frame, a[None], b[None], x)
        want = np.array([a[0] - b[0], a[1] - b[1],
                         a[2] - b[2] - (b[0] * a[1] - b[1] * a[0]) / 2.0])
        gap = float(np.max(np.abs(P[0] - want)))
        assert gap < 1e-8
        worst = max(worst, gap)

    rep = check_normal_frame(frame, [np.zeros(3), np.array([0.1, -0.05, 0.02])],
                             halving_schedule(0.5, 3), coeff_box=0.4)
    assert rep.passed, rep.failures
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print("[PASS] criterion 7: 100 compositions match the closed form to "
          "%.1e; normal-frame verdicts converge (%.1fs < 60s)" % (worst, dt))


def test_criterion_08_cc_distance():
    t0 = time.perf_counter()
    frame, _ = heisenberg()
    cfg = CCConfig()
    origin = np.zeros(3)
    worst_line = 0.0
    for a in (0.1, 0.3, 0.5):
        d = cc_distance(frame, origin, np.array([a, 0.0, 0.0]), config=cfg)
        gap = abs(d - a)
        assert gap < 1e-3, (a, d)
        worst_line = max(worst_line, gap)
    worst_vert = 0.0
    for t in (0.01, 0.04):
        want = vertical_cc_oracle(t)  # independent 1-D minimization
        d = cc_distance(frame, origin, np.array([0.0, 0.0, t]), config=cfg)
        gap = abs(d - want)
        assert gap < 1e-2, (t, d, want)
        worst_vert = max(worst_vert, gap)
        # the oracle itself agrees with the circular-geodesic closed form
        assert want == pytest.approx(2.0 * np.sqrt(np.pi * t), rel=1e-6)
    dt = time.perf_counter() - t0
    assert dt < 300.0
    print("[PASS] criterion 8: straight-line gap %.1e < 1e-3, vertical gap "
          "%.1e < 1e-2 (%.1fs < 300s)" % (worst_line, worst_vert, dt))


def test_criterion_09_group_tangent_structure():
    ds = heisenberg_structure()
    rng = np.random.RandomState(91)

    xu = [tuple(rng.uniform(-0.25, 0.25, 3) for _ in range(2)) for _ in range(6)]
    rep2 = check_A2(ds, xu, [(0.5, 0.5), (0.5, 0.25)], tol=1e-8)
    assert rep2.passed

    sched = halving_schedule(0.125, 8)
    x0 = np.zeros(3)
    td = derive_sigma_inv(ds, x0, sched)
    assert td.converged
    budget = 1e-6 + td.limit_error
    worst_op = 0.0
    pairs = [tuple(rng.uniform(-0.3, 0.3, 3) for _ in range(2)) for _ in range(20)]
    for u, v in pairs:
        gs = heisenberg_group_law(u, v)
        gd = heisenberg_group_law(heisenberg_inverse(u), v)
        worst_op = max(worst_op,
                       float(np.max(np.abs(td.sigma_op(u, v) - gs))),
                       float(np.max(np.abs(td.delta_op(u, v) - gd))))
    assert worst_op < budget
    sched_deep = halving_schedule(0.125, 9)
    for u, v in pairs[:3]:
        est = TangentData(ds, x0, sched_deep).limit("delta", u, v)
        assert est.converged
        gd = heisenberg_group_law(heisenberg_inverse(u), v)
        assert np.max(np.abs(np.asarray(est.extrapolated) - gd)) < 1e-6 + est.error

    cone = check_conical_group(td, ds, [rng.uniform(-0.3, 0.3, 3) for _ in range(5)],
                               mus=(0.5, 0.25))
    assert cone.passed

    # integrator-order scaling, visible on the warped copy where the flows
    # are not polynomial. The reference is exact: the warped structure is
    # the pushforward of Heisenberg's under phi, so its dilatation is
    # phi(x' (e m . (x'^-1 u'))) for x' = phi^-1(x), u' = phi^-1(u)
    warp = heisenberg_warp()
    phi, phi_inv = warp.phi, warp.phi_inv
    tuples = [(phi(rng.uniform(-0.45, 0.45, 3)), phi(rng.uniform(-0.45, 0.45, 3)))
              for _ in range(3)]
    scale_pairs = [(0.5, 0.5), (0.5, 0.25)]

    def exact_dil(e, x, u):
        xw, uw = phi_inv(x), phi_inv(u)
        return phi(heisenberg_group_law(
            xw, heisenberg_dilate(e, heisenberg_group_law(heisenberg_inverse(xw), uw))))

    wframe, wcc, _ = warped_heisenberg()

    def residual(steps):
        dsn = sr_dilatation(replace(wframe, rk4_steps=steps), wcc, injectivity_radius=2.0)
        r = 0.0
        for x, u in tuples:
            for e, m in scale_pairs:
                got = dsn.dil(e, x, dsn.dil(m, x, u))
                r = max(r, float(np.max(np.abs(got - exact_dil(e * m, x, u)))))
        return r

    r8, r16, r32 = residual(8), residual(16), residual(32)
    assert r8 / max(r16, 1e-300) >= 8.0
    assert r16 / max(r32, 1e-300) >= 8.0
    print("[PASS] criterion 9: group tangent ops within %.1e of the group "
          "law; conical checks green; step-doubling residual ratios %.1f, %.1f"
          % (worst_op, r8 / r16, r16 / r32))


def test_criterion_10_tangent_cone_decay():
    sched = halving_schedule(0.5, 10)

    gaps = lambda rep: np.abs([row["value"] for row in rep.table])  # noqa: E731

    rep_e = check_tangent_cone(euclidean(2), np.zeros(2), sched, count=5, seed=0)
    assert rep_e.converged
    flat = float(np.max(gaps(rep_e)))
    assert flat < 1e-12

    dp = shear_quadratic()
    rep_r = check_tangent_cone(riemannian_diffeo(dp, variant=1),
                               np.array([0.2, -0.1]), sched, count=5, seed=1)
    vals_r = gaps(rep_r)
    assert rep_r.converged
    assert vals_r[-1] < 1e-3

    rep_h = check_tangent_cone(heisenberg_structure(), np.zeros(3),
                               sched, count=4, seed=2)
    vals_h = gaps(rep_h)
    assert rep_h.converged
    assert vals_h[-1] < 1e-2

    print("[PASS] criterion 10: rescaling gap flat at %.1e (euclidean), final "
          "%.1e (deformed), %.1e (group)" % (flat, vals_r[-1], vals_h[-1]))


def _oracle_gh(A, B):
    """Exhaustive minimum over base-preserving correspondences (<= 3 points)."""
    base_pair = (A.base, B.base)
    cells = [(i, j) for i in range(A.size) for j in range(B.size)
             if (i, j) != base_pair]
    best = np.inf
    for r in range(len(cells) + 1):
        for subset in itertools.combinations(cells, r):
            chosen = set(subset) | {base_pair}
            if set(i for i, _ in chosen) != set(range(A.size)):
                continue
            if set(j for _, j in chosen) != set(range(B.size)):
                continue
            dis = max(abs(A.dmat[i1, i2] - B.dmat[j1, j2])
                      for (i1, j1) in chosen for (i2, j2) in chosen)
            best = min(best, dis)
    return best / 2.0


def _random_space(rng, size):
    pts = rng.uniform(-1, 1, size=(size, 2))
    dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return FinitePointedSpace(dmat=dmat, base=int(rng.randint(size)))


def test_criterion_11_gh_engine():
    one = FinitePointedSpace(dmat=np.zeros((1, 1)), base=0)
    two = lambda L: FinitePointedSpace(dmat=np.array([[0.0, L], [L, 0.0]]), base=0)

    assert gh_pointed_exact(one, one) == 0.0
    assert gh_pointed_exact(one, two(1.2)) == 0.6
    assert gh_pointed_exact(two(0.8), two(0.3)) == 0.25
    tri = _random_space(np.random.RandomState(3), 3)
    assert gh_pointed_exact(tri, tri) == 0.0

    rng = np.random.RandomState(111)
    for _ in range(25):
        A = _random_space(rng, int(rng.randint(1, 4)))
        B = _random_space(rng, int(rng.randint(1, 4)))
        got = gh_pointed_exact(A, B)
        assert got == pytest.approx(_oracle_gh(A, B), abs=1e-12)
        # factor is a power of two, so equivariance holds bitwise
        for c in (0.5, 2.0):
            assert gh_pointed_exact(rescale(A, c), rescale(B, c)) == c * got

    eps = halving_schedule(0.5, 6)
    residuals = []
    for space in (euclidean(2).space,
                  snowflake_structure(euclidean(2), 0.5).space):
        curve = metric_profile(space, np.zeros(2), eps, count=6, seed=2)
        report = check_profile_continuity(curve)
        assert report.converged
        assert report.max_residual <= 3.0 * curve.density
        residuals.append(report.max_residual)
    print("[PASS] criterion 11: exact gaps match the exhaustive oracle; "
          "profile residuals %.1e / %.1e within 3x sampling density"
          % tuple(residuals))
