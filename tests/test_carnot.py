"""Group law, gauge, horizontal-path solver, and the frame-built structures."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from dilatlab import carnot, vectorfields
from dilatlab.carnot import (LIGHT_CC, CCConfig, _covector_starts, _landed,
                             _model_start, _newton, _objective_and_grad, _rollout, _shoot,
                             _structure_constant, check_normal_frame, cc_distance,
                             heisenberg_structure, sr_dilatation)
from dilatlab.errors import ChartEscape, DilatlabError, NoFeasiblePath
from dilatlab.geometry import euclidean_distance
from dilatlab.heisenberg_group import (heisenberg, heisenberg_ball_box, heisenberg_cc,
                                       heisenberg_dilate, heisenberg_gauge,
                                       heisenberg_group_law, heisenberg_inverse,
                                       vertical_cc_oracle, warped_heisenberg)
from dilatlab.util import in_chart
from dilatlab.vectorfields import (Frame, VectorField, compose_rows, flow_exp,
                                   frame_from_manifest, lie_bracket, polynomial_field, rk4_step)

np.random.seed(5)

# the generator manifest of tests/test_cli.py
HEIS_MANIFEST = {
    "schema": 1, "name": "heis-manifest", "dim": 3, "chart_halfwidth": 2.0,
    "generators": [[[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]],
                   [[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]]],
}


# === group law and gauge ===

def test_group_law_associative_and_inverse():
    rng = np.random.RandomState(0)
    for _ in range(10):
        u, v, w = (rng.uniform(-1, 1, 3) for _ in range(3))
        lhs = heisenberg_group_law(heisenberg_group_law(u, v), w)
        rhs = heisenberg_group_law(u, heisenberg_group_law(v, w))
        assert np.allclose(lhs, rhs, atol=1e-14)
        assert np.allclose(heisenberg_group_law(u, heisenberg_inverse(u)),
                           np.zeros(3), atol=1e-14)


def test_dilate_is_group_homomorphism():
    rng = np.random.RandomState(1)
    u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    e = 0.37
    lhs = heisenberg_dilate(e, heisenberg_group_law(u, v))
    rhs = heisenberg_group_law(heisenberg_dilate(e, u), heisenberg_dilate(e, v))
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_gauge_identities():
    rng = np.random.RandomState(2)
    for _ in range(8):
        w = rng.uniform(-1, 1, 3)
        g = heisenberg_gauge(w)
        # symmetry under inversion and homogeneity under dilation
        assert heisenberg_gauge(heisenberg_inverse(w)) == pytest.approx(g, rel=1e-10)
        assert heisenberg_gauge(heisenberg_dilate(0.5, w)) == pytest.approx(0.5 * g,
                                                                            rel=1e-10)


def test_gauge_horizontal_is_euclidean():
    w = np.array([0.3, -0.4, 0.0])
    assert heisenberg_gauge(w) == pytest.approx(0.5)


def test_gauge_vertical_matches_independent_minimizer():
    for t in (0.01, 0.05, 0.2):
        want = vertical_cc_oracle(t)
        got = heisenberg_gauge(np.array([0.0, 0.0, t]))
        assert got == pytest.approx(want, rel=1e-7)
        # closed form for purely vertical displacements
        assert got == pytest.approx(2.0 * np.sqrt(np.pi * t), rel=1e-9)


def _gauge_reference(w) -> float:
    """Scalar reference gauge: scipy's brentq on the arc ratio, one point at a
    time, with the regimes of the closed form (scipy serves only as the
    reference here)."""
    from scipy.optimize import brentq

    rho, t = math.hypot(w[0], w[1]), abs(float(w[2]))
    if t < 1e-300:
        return rho
    if rho < 1e-300:
        return 2.0 * math.sqrt(math.pi * t)
    ratio = t / (rho * rho)
    if ratio < 1e-8:
        return rho
    arc_ratio = lambda th: (th - math.sin(th)) / (8.0 * math.sin(0.5 * th) ** 2)  # noqa: E731
    hi = 2.0 * math.pi - 1e-9
    if ratio >= arc_ratio(hi):
        return 2.0 * math.sqrt(math.pi * t)
    theta = brentq(lambda th: arc_ratio(th) - ratio, 1e-9, hi, xtol=1e-14, rtol=8.9e-16)
    return rho * theta / (2.0 * math.sin(0.5 * theta))


def _gauge_points():
    """Points in every regime of the gauge: straight (t = 0, a signed zero t,
    t / rho^2 below 1e-8), rho = 0 (and -0.0), the origin, arcs with ratios
    from 1e-8 to 1e12 (near the circle), and the circle branch above the
    ratio of theta = 2 pi - 1e-9."""
    rng = np.random.RandomState(11)
    fixed = [[0.3, -0.4, 0.0], [0.3, -0.4, -0.0], [0.3, -0.4, 1e-10], [0.0, 0.0, 0.05],
             [-0.0, 0.0, -0.2], [0.0, -0.0, -0.0], [0.0, 0.0, 0.0], [1e-10, 0.0, 1.0],
             [1e-9, 0.0, 4.0], [3e-160, 0.0, 0.5], [1e-6, 0.0, 0.1], [1e-4, 1e-4, -2.0]]
    ratio = 10.0 ** rng.uniform(-8.0, 12.0, 60)
    rho = rng.uniform(0.01, 1.0, 60)
    phi = rng.uniform(0.0, 2.0 * math.pi, 60)
    t = rng.choice([-1.0, 1.0], 60) * ratio * rho * rho
    arcs = np.stack([rho * np.cos(phi), rho * np.sin(phi), t], axis=1)
    return np.concatenate([np.array(fixed), arcs])


def test_batched_gauge_matches_a_scalar_root_solve():
    W = _gauge_points()
    want = np.array([_gauge_reference(w) for w in W])
    rho = np.hypot(W[:, 0], W[:, 1])
    with np.errstate(all="ignore"):
        ratio = np.abs(W[:, 2]) / (rho * rho)
    # theta has condition about sqrt(ratio / pi) near the full circle
    bound = 1e-13 * np.where(ratio > 1e3, 1.0 + np.sqrt(ratio), 1.0)
    ones = [heisenberg_gauge(w) for w in W]
    assert all(type(g) is float for g in ones)
    assert np.all(np.abs(np.array(ones) - want) <= bound * want)
    assert heisenberg_gauge(W[5]) == 0.0 and heisenberg_gauge(W[1]) == 0.5
    # a chord whose square underflows to 0 takes the circle mask, not a division
    assert heisenberg_gauge([3e-170, 0.0, 1.0]) == 2.0 * math.sqrt(math.pi)
    # a (k, 3) and an (a, b, 3) stack: every row has the bits of its one-point call
    got = heisenberg_gauge(W)
    assert got.shape == (len(W),) and got.tobytes() == np.array(ones).tobytes()
    got = heisenberg_gauge(W.reshape(8, 9, 3))
    assert got.shape == (8, 9) and got.tobytes() == np.array(ones).reshape(8, 9).tobytes()


def test_cc_left_invariance():
    rng = np.random.RandomState(3)
    p, q, g = (rng.uniform(-0.8, 0.8, 3) for _ in range(3))
    d0 = heisenberg_cc(p, q)
    d1 = heisenberg_cc(heisenberg_group_law(g, p), heisenberg_group_law(g, q))
    assert d1 == pytest.approx(d0, rel=1e-10)


def test_gauge_dominates_euclidean_in_box():
    # the ball-box hint must contain the gauge ball
    rng = np.random.RandomState(4)
    center = np.array([0.3, -0.2, 0.1])
    for r in (0.05, 0.2):
        half = heisenberg_ball_box(center, r)
        for _ in range(40):
            w = rng.uniform(-1, 1, 3)
            # radial rescaling must follow the group dilation, under which
            # the gauge is 1-homogeneous
            s = r * rng.uniform(0, 1) / heisenberg_gauge(w)
            w = heisenberg_dilate(s, w)
            q = heisenberg_group_law(center, w)
            assert np.all(np.abs(q - center) <= half + 1e-12)


# === frame-based machinery against the group law ===

def test_compose_p_matches_group_law():
    frame, law = heisenberg()
    rng = np.random.RandomState(5)
    x = rng.uniform(-0.2, 0.2, 3)
    for _ in range(5):
        a = rng.uniform(-0.25, 0.25, 3)
        b = rng.uniform(-0.25, 0.25, 3)
        P, _, _ = compose_rows(frame, a[None], b[None], x, steps=32)
        want = law(heisenberg_inverse(b), a)
        assert np.allclose(P[0], want, atol=1e-9)


def test_flow_exp_is_right_translation():
    frame, law = heisenberg()
    rng = np.random.RandomState(6)
    x = rng.uniform(-0.3, 0.3, 3)
    a = rng.uniform(-0.4, 0.4, 3)
    got = flow_exp(frame, a, x, steps=16)
    assert np.allclose(got, law(x, a), atol=1e-13)


def test_sr_dilatation_matches_group_dilation():
    ds = heisenberg_structure(steps=32)
    rng = np.random.RandomState(7)
    for _ in range(4):
        x = rng.uniform(-0.3, 0.3, 3)
        u = rng.uniform(-0.3, 0.3, 3)
        got = ds.dil(0.5, x, u)
        want = heisenberg_group_law(
            x, heisenberg_dilate(0.5, heisenberg_group_law(heisenberg_inverse(x), u)))
        assert np.allclose(got, want, atol=1e-11)


def test_one_rk4_step_is_the_heisenberg_group_law():
    # the combined field is constant along its own flow in exponential
    # coordinates, so one RK4 step lands on x . a up to rounding
    frame, law = heisenberg()
    rng = np.random.RandomState(11)
    for shape in ((40,), (6, 5)):
        X = rng.uniform(-0.5, 0.5, shape + (3,))
        A = rng.uniform(-1.0, 1.0, shape + (3,))
        one = flow_exp(frame, A, X, steps=1)
        scale = 1.0 + np.maximum(np.abs(X), np.abs(A)).max(axis=-1, keepdims=True)
        assert np.all(np.abs(one - law(X, A)) <= 4.0 * np.finfo(float).eps * scale)
        assert np.max(np.abs(flow_exp(frame, A, X, steps=32) - one)) < 1e-14


def test_default_heisenberg_dil_schedule_is_the_closed_form():
    # x . delta_eps(x^-1 . y) along a (k,) schedule, with one y per scale and
    # with one y for every scale
    ds = heisenberg_structure()
    eps = 0.5 ** np.arange(1, 13)
    rng = np.random.RandomState(12)
    for _ in range(4):
        x = rng.uniform(-0.3, 0.3, 3)
        Y = rng.uniform(-0.3, 0.3, (eps.size, 3))
        for y in (Y, Y[0]):
            want = np.array([heisenberg_group_law(
                x, heisenberg_dilate(e, heisenberg_group_law(heisenberg_inverse(x), p)))
                for e, p in zip(eps, np.broadcast_to(y, Y.shape))])
            got = ds.dil(eps, x, y)
            assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))


def test_one_step_flow_leaving_the_chart_box_raises():
    # one step tests only the endpoint; the segment and the box are convex,
    # so that is the test of the whole path
    frame, _ = heisenberg()
    with pytest.raises(ChartEscape):
        flow_exp(frame, [[0.1, 0.0, 0.0], [2.5, 0.0, 0.0]], np.zeros(3), steps=1)
    with pytest.raises(ChartEscape):
        flow_exp(frame, [0.0, 0.0, 0.3], np.array([1.0, 1.0, 1.9]), steps=1)


def test_sr_dilatation_without_chart_box_in_dim_4():
    # Heisenberg x R (degrees 1, 1, 1, 2) with no chart box: the fallback box
    # takes the frame's dimension
    one = [[1.0, [0, 0, 0, 0]]]
    X1 = polynomial_field([one, [], [], [[-0.5, [0, 1, 0, 0]]]])
    X2 = polynomial_field([[], one, [], [[0.5, [1, 0, 0, 0]]]])
    X3 = polynomial_field([[], [], one, []])
    X4 = polynomial_field([[], [], [], one])
    frame = Frame(fields=(X1, X2, X3, X4), degrees=(1, 1, 1, 2))
    ds = sr_dilatation(frame, euclidean_distance, steps=32)
    assert ds.space.chart_box.shape == (4, 2)
    x = np.array([0.1, -0.05, 0.02, 0.03])
    y = np.array([0.2, 0.04, -0.06, 0.08])
    eps = np.array([0.5, 0.25])
    back = ds.dil(1.0 / eps, x, ds.dil(eps, x, y))
    assert np.allclose(back, y, atol=1e-10)


# === variational distances ===

def test_heisenberg_fields_are_polynomial_with_bracket_x3():
    X1, X2, X3 = heisenberg()[0].fields
    Z = np.random.RandomState(2).uniform(-2.0, 2.0, (6, 3))
    assert np.array_equal(X1(Z), np.stack([np.ones(6), np.zeros(6), -0.5 * Z[:, 1]], axis=1))
    assert np.array_equal(X2.jac(Z)[:, 2, 0], np.full(6, 0.5))
    assert np.array_equal(lie_bracket(X1, X2)(Z), X3(Z))


def test_cc_distance_needs_a_segment():
    frame, _ = heisenberg()
    with pytest.raises(ValueError, match="segments"):
        cc_distance(frame, np.zeros(3), np.array([0.3, 0.0, 0.0]),
                    config=CCConfig(segments=0))


def test_cc_distance_checks_its_endpoints():
    frame, _ = heisenberg()
    # the straight path to (5, 0, 0) has length 5, but it leaves the chart
    # box [-2, 2]^3, as flow_exp would say of the same path
    for x, y in ((np.zeros(3), [5.0, 0.0, 0.0]), ([0.0, 0.0, -2.5], np.zeros(3))):
        with pytest.raises(ChartEscape):
            cc_distance(frame, x, y, config=LIGHT_CC)
    with pytest.raises(ValueError, match=r"\(3,\).*\(2,\)"):
        cc_distance(frame, np.zeros(3), np.array([0.3, 0.0]), config=LIGHT_CC)


def test_cc_distance_raises_where_no_horizontal_path_fits_the_box():
    # the z-displacement of a horizontal Heisenberg path is the area it
    # encloses, and no loop inside [-0.2, 0.2]^2 encloses more than 0.16:
    # no horizontal path inside the box reaches these targets
    frame = frame_from_manifest(dict(HEIS_MANIFEST, chart_halfwidth=0.2))
    for cfg in (LIGHT_CC, CCConfig()):
        for y in ((0.0, 0.0, 0.19), (0.0, 0.0, -0.19), (0.05, 0.0, 0.19)):
            with pytest.raises(NoFeasiblePath) as err:
                cc_distance(frame, np.zeros(3), np.array(y), config=cfg)
            assert isinstance(err.value, DilatlabError)


def test_cc_distance_from_a_point_to_itself_is_the_zero_path():
    # Engel is no contact frame: the zero path comes before any start
    for frame in (heisenberg()[0], _manifest("engel")):
        x = np.linspace(0.1, -0.1, frame.n)
        assert cc_distance(frame, x, x) == 0.0
        d, path = cc_distance(frame, x, x, config=LIGHT_CC, return_info=True)
        assert d == 0.0
        assert np.array_equal(path.controls, np.zeros((LIGHT_CC.segments, frame.m)))
        assert (path.family, path.flows) == ("model", 0)


def test_shots_that_leave_the_chart_box_are_dropped():
    # a vertical target next to the box wall: the circles that bulge out of
    # the box are infeasible starts, and one that turns inward is solved
    frame, _ = heisenberg()
    x = np.array([1.9, 0.0, 0.0])
    y = heisenberg_group_law(x, [0.0, 0.0, 0.04])
    rhs, Minv = frame.hamiltonian, np.linalg.inv(frame.eval_matrix(x))
    C = _covector_starts(2, (y - x) @ Minv.T, 1.0)
    gap = _newton(frame, rhs, x, y, Minv, C, LIGHT_CC.segments)[0].gap
    assert np.any(np.isinf(gap)) and np.any(np.isfinite(gap))
    assert 0 < len(_shoot(frame, rhs, x, y, Minv, 1.0, LIGHT_CC.segments)[0].C) < len(C)
    d, path = cc_distance(frame, x, y, config=LIGHT_CC, return_info=True)
    zs = _rollout(frame, x, path.controls)[0]
    assert np.all(zs <= 2.0) and np.all(zs >= -2.0)
    want = heisenberg_cc(x, y)
    assert want <= d <= want * (1.0 + 2e-3)


def test_cc_distance_straight_line():
    frame, _ = heisenberg()
    x = np.zeros(3)
    y = np.array([0.3, 0.0, 0.0])
    d = cc_distance(frame, x, y, config=LIGHT_CC)
    assert d == pytest.approx(0.3, abs=1e-6)


def test_cc_distance_mixed_target():
    frame, _ = heisenberg()
    x = np.zeros(3)
    y = np.array([0.1, 0.05, 0.02])
    d = cc_distance(frame, x, y, config=LIGHT_CC)
    want = heisenberg_cc(x, y)
    assert d == pytest.approx(want, rel=5e-3)


def _adjoint_loop_reference(frame, U, stages, lam_z):
    """Gradient of lam_z . z_N by the per-segment, per-point adjoint loop."""
    N, m = U.shape
    h = 1.0 / N
    eye = np.eye(frame.n)
    fields = frame.fields[:m]
    grad = np.empty_like(U)
    for j in range(N - 1, -1, -1):
        A = [sum(U[j, i] * f.jac(p) for i, f in enumerate(fields)) for p in stages[j]]
        B = [np.stack([f(p) for f in fields], axis=1) for p in stages[j]]
        A2 = A[1] @ (eye + 0.5 * h * A[0])
        A3 = A[2] @ (eye + 0.5 * h * A2)
        A4 = A[3] @ (eye + h * A3)
        B2 = A[1] @ (0.5 * h * B[0]) + B[1]
        B3 = A[2] @ (0.5 * h * B2) + B[2]
        B4 = A[3] @ (h * B3) + B[3]
        G = (h / 6.0) * (B[0] + 2.0 * B2 + 2.0 * B3 + B4)
        grad[j] = 2.0 * h * U[j] + G.T @ lam_z
        lam_z = (eye + (h / 6.0) * (A[0] + 2.0 * A2 + 2.0 * A3 + A4)).T @ lam_z
    return grad


def test_objective_gradient_matches_finite_differences():
    # the adjoint gradient through the RK4 discretization, against central
    # differences of the augmented-Lagrangian objective itself
    rng = np.random.RandomState(8)
    for frame in (heisenberg()[0], warped_heisenberg()[0]):
        x = rng.uniform(-0.2, 0.2, 3)
        y = x + rng.uniform(-0.2, 0.2, 3)
        U = rng.standard_normal((6, 2))
        lam = rng.standard_normal(3)
        rho = 7.5
        _, grad, c = _objective_and_grad(frame, x, y, U, lam, rho)
        fd = np.empty_like(U)
        step = 1e-6
        for idx in np.ndindex(U.shape):
            Up, Um = U.copy(), U.copy()
            Up[idx] += step
            Um[idx] -= step
            fd[idx] = (_objective_and_grad(frame, x, y, Up, lam, rho)[0]
                       - _objective_and_grad(frame, x, y, Um, lam, rho)[0]) / (2.0 * step)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-7), frame.name
        # the batched pass reassociates the per-segment loop, nothing more
        _, stages = _rollout(frame, x, U)
        ref = _adjoint_loop_reference(frame, U, stages, lam + rho * c)
        assert np.allclose(grad, ref, rtol=0.0, atol=1e-13), frame.name


def test_rollout_and_flow_exp_share_one_integrator():
    # constant controls make the CC rollout the exponential-chart flow with a
    # zero vertical coefficient: both run rk4_step, to the same bits
    rng = np.random.RandomState(12)
    for frame in (heisenberg()[0], warped_heisenberg()[0], frame_from_manifest(HEIS_MANIFEST)):
        for N in (8, 32):
            x = rng.uniform(-0.3, 0.3, 3)
            u = rng.uniform(-0.5, 0.5, 2)
            end = _rollout(frame, x, np.tile(u, (N, 1)))[0][-1]
            assert np.array_equal(end, flow_exp(frame, [u[0], u[1], 0.0], x, steps=N)), \
                (frame.name, N)


def _loop_rollout(frame, x, U):
    """The per-segment rk4_step loop that _rollout reproduces."""
    N = U.shape[0]
    zs, stages = np.empty((N + 1, x.size)), np.empty((N, 4, x.size))
    zs[0] = x
    for j in range(N):
        zs[j + 1], st = rk4_step(frame.combined, U[j], zs[j], 1.0 / N)
        stages[j] = np.array(st)
    return zs, stages


def _manifest(name):
    with open(os.path.join(os.path.dirname(__file__), "manifests", name + ".json")) as f:
        return frame_from_manifest(json.load(f))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_rollout_runs_without_a_step_loop_to_the_loops_bits(monkeypatch):
    # the horizontal fields of these frames read only coordinates that move
    # at constant speed: the rollout takes two prefix sums and batched field
    # calls, and no rk4_flow, for the states and stages of the loop
    frames = [(heisenberg()[0], (0, 1)), (frame_from_manifest(HEIS_MANIFEST), (0, 1)),
              (_contact_curved(), (0,)), (_manifest("engel"), (0,))]
    rng = np.random.RandomState(31)
    for frame, cols in frames:
        assert frame.affine_coords == cols, frame.name
        half = float(frame.chart_box[0, 1])
        for N in (1, 7, 32, 64):
            x = rng.uniform(-0.5 * half, 0.5 * half, frame.n)
            for U in (rng.standard_normal((N, frame.m)), np.zeros((N, frame.m)),
                      rng.standard_normal((N, frame.m)) * 10.0 * half):
                want = _loop_rollout(frame, x, U)
                with monkeypatch.context() as mp:
                    mp.setattr(carnot, "rk4_flow", None)
                    got = _rollout(frame, x, U)
                assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), \
                    (frame.name, N)
        # the large controls leave the box, and the value test sees it
        assert np.any(~in_chart(frame.chart_box, got[0])), frame.name
        # a rollout that overflows is redone by the loop
        U = np.full((4, frame.m), 1e300)
        cols = np.array(cols)
        assert carnot._affine_rollout(frame.combined, x, U, cols) is None
        with np.errstate(all="ignore"):
            got, want = _rollout(frame, x, U), _loop_rollout(frame, x, U)
        assert not np.all(np.isfinite(got[0]))
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), frame.name


def test_rollout_keeps_the_loop_where_a_field_reads_a_moving_coordinate(monkeypatch):
    # warped fields have no monomial tables; here X2 reads x2 and moves x1
    # at a speed 0.3 x2 that X2 itself changes. Both go through the loop.
    X1 = polynomial_field([[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]])
    X2 = polynomial_field([[[0.3, [0, 1, 0]]], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]])
    X3 = polynomial_field([[], [], [[1.0, [0, 0, 0]]]])
    moving = Frame(fields=(X1, X2, X3), degrees=(1, 1, 2), chart_box=[[-2.0, 2.0]] * 3)
    rng = np.random.RandomState(32)
    # the loop-free rollout checks the slopes it assumed: given x1 and x2
    # as the moving frame's mask, it declines
    x, U = rng.uniform(-0.3, 0.3, 3), rng.standard_normal((7, 2))
    assert carnot._affine_rollout(moving.combined, x, U, np.array([0, 1])) is None
    monkeypatch.setattr(carnot, "_affine_rollout", None)
    for frame in (warped_heisenberg()[0], moving):
        assert frame.affine_coords is None
        x, U = rng.uniform(-0.3, 0.3, 3), rng.standard_normal((7, 2))
        got, want = _rollout(frame, x, U), _loop_rollout(frame, x, U)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def test_cc_distance_on_manifest_frame():
    # the manifest shape of tests/test_cli.py: the solver runs on the
    # batched analytic Jacobians of polynomial_field
    frame = frame_from_manifest(HEIS_MANIFEST)
    x = np.array([0.1, -0.05, 0.02])
    for w in (np.array([0.24, -0.18, 0.0]), np.array([0.1, 0.05, 0.02])):
        y = heisenberg_group_law(x, w)
        d = cc_distance(frame, x, y, config=LIGHT_CC)
        want = heisenberg_cc(x, y)
        assert abs(d - want) <= 1e-2 * want, (w, d, want)


def _grid_only(monkeypatch):
    """Make cc_distance skip its model start: a NaN covector's flow is lost
    at once, so every solve falls back to the grid."""
    monkeypatch.setattr(carnot, "_model_start", lambda a, c: np.full(3, np.nan))


def test_covector_starts_solve_vertical_targets(monkeypatch):
    # a pure vertical target has a_h = 0: its starts are the full circles
    # of area t, length 2 sqrt(pi t), turned by right angles, both signs
    t = 0.03
    starts = _covector_starts(2, np.array([0.0, 0.0, t]), 1.0)
    assert starts.shape == (8, 3)
    assert np.allclose(np.linalg.norm(starts[:, :2], axis=1), 2.0 * math.sqrt(math.pi * t))
    assert np.allclose(np.abs(starts[:, 2]), 2.0 * math.pi)
    assert len(_covector_starts(2, np.array([0.1, 0.05, 0.02]), 1.0)) <= 9
    frame, _ = heisenberg()
    for family in ("model", "grid"):
        with monkeypatch.context() as mp:
            if family == "grid":
                _grid_only(mp)
            for x in (np.zeros(3), np.array([0.15, -0.1, 0.05])):
                for t in (0.01, -0.04):
                    y = heisenberg_group_law(x, [0.0, 0.0, t])
                    d, path = cc_distance(frame, x, y, config=LIGHT_CC, return_info=True)
                    assert path.family == family
                    end = _rollout(frame, x, path.controls)[0][-1]
                    assert np.max(np.abs(end - y)) <= LIGHT_CC.endpoint_tol
                    assert path.controls.shape == (LIGHT_CC.segments, 2)
                    assert d == pytest.approx(
                        float(np.sum(np.linalg.norm(path.controls, axis=1)))
                        / LIGHT_CC.segments, rel=1e-15)
                    # 2 sqrt(pi |t|), and the 32-gon's perimeter excess pi^2 / (6 32^2)
                    want = 2.0 * math.sqrt(math.pi * abs(t))
                    assert want <= d <= want * (1.0 + math.pi ** 2 / (6 * 32 ** 2) + 1e-5), \
                        (family, x, t)


def test_far_targets_are_shot_through_halved_targets():
    # no grid start's Newton lands on this target (most leave the chart
    # box); the halved targets' shots, scaled back up, reach it
    frame, _ = heisenberg()
    x = np.array([1.43, 1.13, -0.49])
    y = np.array([1.38, -0.8, 1.35])
    rhs, Minv = frame.hamiltonian, np.linalg.inv(frame.eval_matrix(x))
    gap = _newton(frame, rhs, x, y, Minv, _covector_starts(2, (y - x) @ Minv.T, 1.0),
                  LIGHT_CC.segments)[0].gap
    assert np.all(gap > 1e-3 * np.max(np.abs(y - x))) and np.any(np.isinf(gap))
    shots, family, _ = _shoot(frame, rhs, x, y, Minv, 1.0, LIGHT_CC.segments)
    assert len(shots.C) > 0 and family == "halved"
    want = heisenberg_cc(x, y)
    assert want <= cc_distance(frame, x, y, config=LIGHT_CC) <= want * (1.0 + 2e-3)


def _heis_c(c):
    """The Heisenberg frame with X3 = (1 / c) d/dz: the same CC metric, and
    [X1, X2] = c X3."""
    one = [[1.0, [0, 0, 0]]]
    return frame_from_manifest({
        "schema": 1, "name": "heis-c", "dim": 3, "chart_halfwidth": 2.0,
        "fields": [[one, [], [[-0.5, [0, 1, 0]]]], [[], one, [[0.5, [1, 0, 0]]]],
                   [[], [], [[1.0 / c, [0, 0, 0]]]]],
        "degrees": [1, 1, 2]})


@pytest.mark.parametrize("c", [1.0, -1.0, 2.0])
def test_grid_arcs_bend_towards_either_vertical_sign(c):
    # each arc's turn -s theta / 2 goes with the vertical covector
    # s theta / c, whatever the sign of a_v / c: flowed once, without
    # Newton, the best arc ends near the target on both sides (the grid's
    # angles are a quarter turn apart), where a mispaired grid bends every
    # arc away from it (misses of 0.2 to 0.4)
    frame = _heis_c(c)
    rhs, x = frame.hamiltonian, np.zeros(3)
    Minv = np.linalg.inv(frame.eval_matrix(x))
    for t in (0.03, -0.03):
        y = np.array([0.2, 0.1, t])
        C = _covector_starts(2, (y - x) @ Minv.T, c)
        z, _, _ = carnot._normal_flow(rhs, frame.chart_box, x, C[1:] @ Minv, 64)
        assert np.min(np.max(np.abs(z[:, :3] - y), axis=1)) < 0.02, (c, t)
    # the target the far-target test used to need halvings for is now shot
    # through the grid's own starts
    frame, _ = heisenberg()
    x = np.array([-0.15361223, -1.13777704, 0.11918995])
    y = np.array([-0.15522626, -0.19111727, -0.40719643])
    Minv = np.linalg.inv(frame.eval_matrix(x))
    assert _shoot(frame, frame.hamiltonian, x, y, Minv, 1.0, LIGHT_CC.segments)[1] == "grid"


def _heisenberg_pair(rng, kind):
    x = rng.uniform(-0.2, 0.2, 3)
    if kind == "mixed":
        return x, rng.uniform(-0.2, 0.2, 3)
    if kind == "horizontal":
        phi, r = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.01, 0.2)
        return x, heisenberg_group_law(x, [r * math.cos(phi), r * math.sin(phi), 0.0])
    t = rng.choice([-1.0, 1.0]) * rng.uniform(0.001, 0.04)
    return x, heisenberg_group_law(x, [0.0, 0.0, t])


def test_cc_distance_brackets_the_gauge_on_seeded_pairs():
    # an upper bound (never below the gauge beyond rounding), and at most
    # the 32-gon's perimeter excess above it
    frame, _ = heisenberg()
    rng = np.random.RandomState(20)
    for k in range(60):
        kind = ("horizontal", "vertical", "mixed")[k % 3]
        x, y = _heisenberg_pair(rng, kind)
        d = cc_distance(frame, x, y, config=LIGHT_CC)
        want = heisenberg_cc(x, y)
        assert -1e-8 <= (d - want) / want <= 2e-3, (kind, x, y, d, want)


def _contact_curved():
    return _manifest("contact-curved")


def test_near_box_shots_that_find_no_path_warn_nothing():
    # draws 39 and 52 of this stream find no path, and some shooting rows
    # overflow after they leave the 0.4 box: lost reports those rows, and
    # they print no warning
    frame, rng = _contact_curved(), np.random.RandomState(1)
    draws = [(x, x + rng.uniform(-0.3, 0.3, 3))
             for x in (rng.uniform(-0.3, 0.3, 3) for _ in range(53))]
    for k in (39, 52):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NoFeasiblePath):
                cc_distance(frame, *draws[k], config=LIGHT_CC)
        assert not caught, (k, [str(w.message) for w in caught])


def test_normal_flow_marks_a_row_that_leaves_the_box_on_the_way():
    # q turns through a full circle and ends where it starts; from (1.5, 0)
    # the circle leaves the box [-2, 2] x [-1, 1] on the way
    def rhs(_, z):
        return 2.0 * np.pi * np.stack([-z[..., 1], z[..., 0], 0.0 * z[..., 2],
                                       0.0 * z[..., 3]], axis=-1)

    box = np.array([[-2.0, 2.0], [-1.0, 1.0]])
    for start, lost in (((1.5, 0.0), True), ((0.5, 0.0), False)):
        z, got, _ = carnot._normal_flow(rhs, box, np.array(start), np.zeros((1, 2)), 64)
        assert got.tolist() == [lost], start
    assert np.allclose(z[0], [0.5, 0.0, 0.0, 0.0], atol=1e-5)


@pytest.mark.parametrize("c", [2.0, -1.0])
def test_grid_starts_use_the_structure_constant(monkeypatch, c):
    # the Heisenberg frame with X3 = (1 / c) d/dz has the same CC metric and
    # [X1, X2] = c X3; the grid's vertical covectors and circle areas carry
    # the 1 / c, or its arcs miss (at c = 2: 5 of these 12 pairs raised
    # NoFeasiblePath and 2 came out 46% and 60% long)
    frame = _heis_c(c)
    rng = np.random.RandomState(5)
    pairs = []
    for _ in range(12):
        x = rng.uniform(-0.2, 0.2, 3)
        pairs.append((x, x + rng.uniform(-0.2, 0.2, 3) * np.array([1.0, 1.0, 0.3])))
    assert _structure_constant(frame, pairs[0][0], np.linalg.inv(
        frame.eval_matrix(pairs[0][0]))) == pytest.approx(c, rel=1e-14)
    # a vertical target's circles enclose the area |a_v / c|
    starts = _covector_starts(2, np.array([0.0, 0.0, 0.03]), c)
    assert np.allclose(np.linalg.norm(starts[:, :2], axis=1),
                       2.0 * math.sqrt(math.pi * 0.03 / abs(c)))
    assert np.allclose(np.abs(starts[:, 2]), 2.0 * math.pi / abs(c))
    for family in ("model", "grid"):
        with monkeypatch.context() as mp:
            if family == "grid":
                _grid_only(mp)
            for x, y in pairs:
                d, path = cc_distance(frame, x, y, config=LIGHT_CC, return_info=True)
                want = heisenberg_cc(x, y)
                assert path.family == family
                assert -1e-8 <= (d - want) / want <= 2e-3, (family, x, y, d, want)


def test_structure_constant_of_other_frames():
    # the warped fields carry no Jacobian: c comes from central differences
    # of the pushforward, whose bracket is again its X3
    frame, _, _ = warped_heisenberg()
    x = np.array([0.3, -0.2, 0.1])
    Minv = np.linalg.inv(frame.eval_matrix(x))
    assert _structure_constant(frame, x, Minv) == pytest.approx(1.0, abs=1e-8)
    # contact-curved's X3 is the bracket itself; Engel is no contact frame
    frame = _contact_curved()
    assert _structure_constant(frame, x, np.linalg.inv(frame.eval_matrix(x))) == \
        pytest.approx(1.0, rel=1e-14)
    assert _structure_constant(_engel(), np.zeros(4), np.eye(4)) is None


def test_model_start_is_never_worse_than_the_grid():
    # the model shot is the tangent cone's geodesic: on the Heisenberg
    # manifest exact, on contact-curved close enough to land on most pairs.
    # Where it lands it is no longer than any landed grid shot.
    N = LIGHT_CC.segments
    rng = np.random.RandomState(3)
    landed = {}
    for frame, shrink in ((frame_from_manifest(HEIS_MANIFEST), 1.0), (_contact_curved(), 0.5)):
        landed[frame.name] = 0
        for k in range(9):
            x, y = _heisenberg_pair(rng, ("horizontal", "vertical", "mixed")[k % 3])
            x, y = shrink * x, shrink * y
            rhs, Minv = frame.hamiltonian, np.linalg.inv(frame.eval_matrix(x))
            c = _structure_constant(frame, x, Minv)
            model, _ = _newton(frame, rhs, x, y, Minv, _model_start((y - x) @ Minv.T, c)[None], N)
            grid, _, _ = _shoot(frame, rhs, x, y, Minv, c, N)
            if _landed(x, y, model.gap)[0]:
                landed[frame.name] += 1
                assert (np.linalg.norm(model.C[0, :2])
                        <= np.min(np.linalg.norm(grid.C[:, :2], axis=1)) * (1.0 + 1e-9)), (x, y)
    assert landed["heis-manifest"] == 9 and landed["contact-curved"] >= 4, landed
    # a vertical target by the chart box wall: the model's full circle
    # bulges out of the box, and the grid's turned circles solve it
    frame, _ = heisenberg()
    x = np.array([-1.9, 0.3, 0.1])
    y = heisenberg_group_law(x, [0.0, 0.0, -0.04])
    rhs, Minv = frame.hamiltonian, np.linalg.inv(frame.eval_matrix(x))
    model, _ = _newton(frame, rhs, x, y, Minv, _model_start((y - x) @ Minv.T, 1.0)[None], N)
    assert np.isinf(model.gap[0])
    d, path = cc_distance(frame, x, y, config=LIGHT_CC, return_info=True)
    assert path.family == "grid" and path.flows > 1
    want = heisenberg_cc(x, y)
    assert want <= d <= want * (1.0 + 2e-3)


def test_cc_solve_pairs_come_from_the_model_start():
    # the bench's horizontal and mixed pairs on the Heisenberg manifest land
    # from the model start after one flow (RK4 integrates a straight line
    # exactly) and within three (its flow of an arc misses the exact end by
    # about 1e-7 of the target's size, which one or two Newton steps remove)
    frame = frame_from_manifest(HEIS_MANIFEST)
    rng = np.random.RandomState(21)
    for k in range(6):
        x, phi = rng.uniform(-0.2, 0.2, 3), rng.uniform(0.0, 2.0 * math.pi)
        r, t = (rng.uniform(0.2, 0.4), 0.0) if k % 2 == 0 else (0.3, 0.025)
        y = heisenberg_group_law(x, [r * math.cos(phi), r * math.sin(phi), t])
        d, path = cc_distance(frame, x, y, config=LIGHT_CC, return_info=True)
        assert path.family == "model" and path.flows <= (1 if t == 0.0 else 3), (x, y, path)
        want = heisenberg_cc(x, y)
        assert want * (1.0 - 1e-8) <= d <= want * (1.0 + 2e-3)


def test_vertical_model_shots_keep_their_best_flow(monkeypatch):
    # a vertical target's full-circle model start lands at its first flow,
    # and the first truncated Newton step raises the gap: the row stops at
    # that second flow and returns the first one, covector, gap and stages
    frame = frame_from_manifest(HEIS_MANIFEST)
    rhs, N = frame.hamiltonian, LIGHT_CC.segments
    gaps = []  # the start's gap at each flow
    real = carnot._normal_flow

    def recorded(rhs, box, x, P, N):
        z, lost, stages = real(rhs, box, x, P, N)
        gaps.append(np.inf if lost[0, 0] else float(np.max(np.abs(z[0, 0, :3] - y))))
        return z, lost, stages

    for x in (np.zeros(3), np.array([0.1, -0.05, 0.02])):
        for t in (0.01, 0.025, 0.04):
            y = heisenberg_group_law(x, [0.0, 0.0, t])
            Minv = np.linalg.inv(frame.eval_matrix(x))
            start = _model_start((y - x) @ Minv.T, _structure_constant(frame, x, Minv))[None]
            del gaps[:]
            with monkeypatch.context() as mp:
                mp.setattr(carnot, "_normal_flow", recorded)
                shots, flows = _newton(frame, rhs, x, y, Minv, start, N)
            assert flows == len(gaps) <= 2 and _landed(x, y, shots.gap)[0], (x, t, gaps)
            assert shots.gap[0] == min(gaps), (x, t, gaps)
            # the kept stages are the best flow's own: the polish reads from
            # them the controls a fresh flow of the covector would give
            z, _, stages = real(rhs, frame.chart_box, x, shots.C[0] @ Minv, N)
            assert np.array_equal(shots.stages[0], np.array(stages))
            assert np.array_equal(shots.end[0], z)


def test_polish_starts_on_the_target(monkeypatch):
    # cc-solve-shaped pairs: the shot's controls, projected by Gauss-Newton
    # steps, reach the target before L-BFGS starts, which then takes at most
    # two iterations
    frame = frame_from_manifest(HEIS_MANIFEST)
    starts = []
    real = carnot.minimize

    def counted(fun, x0, **kwargs):
        sol = real(fun, x0, **kwargs)
        starts.append((x0.copy(), sol.nit))
        return sol

    monkeypatch.setattr(carnot, "minimize", counted)
    rng = np.random.RandomState(22)
    for kind in ("horizontal", "vertical", "mixed") * 3:
        x, phi = rng.uniform(-0.2, 0.2, 3), rng.uniform(0.0, 2.0 * math.pi)
        if kind == "horizontal":
            r, t = rng.uniform(0.2, 0.4), 0.0
        elif kind == "vertical":
            r, t = 0.0, rng.uniform(0.01, 0.04)
        else:
            r, t = 0.3, 0.025
        y = heisenberg_group_law(x, [r * math.cos(phi), r * math.sin(phi), t])
        del starts[:]
        d = cc_distance(frame, x, y, config=LIGHT_CC)
        ((U0, nit),) = starts
        end = _rollout(frame, x, U0.reshape(LIGHT_CC.segments, 2))[0][-1]
        assert np.max(np.abs(end - y)) <= 1e-10 * np.max(np.abs(y - x)), kind
        assert nit <= 2, kind
        want = heisenberg_cc(x, y)
        assert want * (1.0 - 1e-8) <= d <= want * (1.0 + 2e-3)


def test_a_polish_that_leaves_its_shot_is_projected_onto_the_target(monkeypatch):
    # contact-curved pairs whose landed shots run past a conjugate point:
    # L-BFGS leaves each for a shorter path and stops 1e-5 off the target,
    # where the shot's multiplier no longer holds the endpoint. Projected
    # onto y, that path is feasible: the first pair raised NoFeasiblePath,
    # and the second took the 0.867-long shot itself
    frame = _contact_curved()
    projections = []
    real = carnot._project

    def counted(frame, x, y, U):
        projections.append(1)
        return real(frame, x, y, U)

    monkeypatch.setattr(carnot, "_project", counted)
    for x, y, longest in (([0.105, -0.287, -0.239], [0.06, -0.182, -0.317], 1.1),
                          ([0.19, 0.247, -0.134], [0.136, 0.198, -0.109], 0.7)):
        x, y = np.array(x), np.array(y)
        del projections[:]
        d, path = cc_distance(frame, x, y, config=LIGHT_CC, return_info=True)
        assert len(projections) == 2 and d < longest, (x, d, len(projections))
        zs = _rollout(frame, x, path.controls)[0]
        assert np.max(np.abs(zs[-1] - y)) <= LIGHT_CC.endpoint_tol
        assert np.all(np.abs(zs) <= 0.4)
        assert d == float(np.sum(np.linalg.norm(path.controls, axis=1))) / LIGHT_CC.segments


def test_a_polish_that_leaves_the_chart_box_falls_back_to_its_start():
    # a landed shot's projected start ends 3.2e-7 off the target inside
    # the box (max |z| 1.69), and L-BFGS moves the path out to max |z|
    # 2.52: that start is returned, where NoFeasiblePath was raised
    frame, _ = heisenberg()
    x, y = np.array([0.92, 0.61, -1.2]), np.array([1.26, 0.64, 1.5])
    d, path = cc_distance(frame, x, y, config=LIGHT_CC, return_info=True)
    assert d >= heisenberg_cc(x, y)
    zs = _rollout(frame, x, path.controls)[0]
    assert np.max(np.abs(zs[-1] - y)) <= LIGHT_CC.endpoint_tol
    assert not np.any(~in_chart(frame.chart_box, zs))
    assert d == float(np.sum(np.linalg.norm(path.controls, axis=1))) / LIGHT_CC.segments


def _engel():
    """Engel frame (n = 4, degrees 1, 1, 2, 3): X2 carries a quadratic term."""
    one = [[1.0, [0, 0, 0, 0]]]
    X1 = polynomial_field([one, [], [], []])
    X2 = polynomial_field([[], one, [[1.0, [1, 0, 0, 0]]], [[0.5, [2, 0, 0, 0]]]])
    X3 = polynomial_field([[], [], one, [[1.0, [1, 0, 0, 0]]]])
    X4 = polynomial_field([[], [], [], one])
    return Frame(fields=(X1, X2, X3, X4), degrees=(1, 1, 2, 3),
                 chart_box=[[-2.0, 2.0]] * 4)


def test_polynomial_hamiltonian_matches_the_field_by_field_system():
    # the quadratic form against the right-hand side that calls each field
    # and its jac, on every manifest (contact-curved and Martinet carry x^2
    # terms); the table-free copies take the second path. A row gets the
    # same bits alone as inside a batch: _newton keeps a row's stages out of
    # a batched flow, and the polish reads them as that covector's own flow
    rng = np.random.RandomState(21)
    folder = os.path.join(os.path.dirname(__file__), "manifests")
    frames = [heisenberg()[0], _engel(), frame_from_manifest(HEIS_MANIFEST)]
    frames += [_manifest(name[:-len(".json")]) for name in sorted(os.listdir(folder))]
    assert len(frames) == 6
    for frame in frames:
        bare = Frame(fields=tuple(VectorField(func=f.func, jacobian=f.jacobian)
                                  for f in frame.fields),
                     degrees=frame.degrees, chart_box=frame.chart_box)
        rhs = frame.hamiltonian
        for shape in ((2 * frame.n,), (5, 7, 2 * frame.n)):
            z = rng.uniform(-1.0, 1.0, shape)
            got, want = rhs(None, z), bare.hamiltonian(None, z)
            assert got.shape == want.shape == shape
            assert np.allclose(got, want, rtol=0.0, atol=1e-14), frame.name
        assert all(_same_bits(rhs(None, z[i, j]), got[i, j])
                   for i in range(5) for j in range(7)), frame.name
        assert _same_bits(rhs(None, z[3:4]), got[3:4]), frame.name


def test_the_normal_system_is_built_once_per_frame(monkeypatch):
    # frame_from_manifest builds no system (the bench times that build as
    # set-up); the first cc_distance builds it from the monomial tables and
    # keeps it on the frame, and a second call builds no table
    frame = frame_from_manifest(HEIS_MANIFEST)
    assert "hamiltonian" not in vars(frame)
    built = []
    real = vectorfields._table
    monkeypatch.setattr(vectorfields, "_table", lambda *a: built.append(a) or real(*a))
    x, y = np.array([0.1, -0.05, 0.02]), np.array([0.2, 0.1, -0.03])
    d = cc_distance(frame, x, y, config=LIGHT_CC)
    assert built and "hamiltonian" in vars(frame)
    del built[:]
    assert cc_distance(frame, x, y, config=LIGHT_CC) == d
    assert not built
    # the field-by-field system of a frame without tables is kept the same way
    for f in (frame, warped_heisenberg()[0]):
        assert f.hamiltonian is f.hamiltonian


def test_cc_distance_on_an_engel_line():
    # a one-parameter subgroup along X1 is length minimizing in a Carnot
    # group; two vertical coordinates, so the vertical covector has a
    # direction
    frame = _engel()
    for a in (0.2, -0.35):
        d = cc_distance(frame, np.zeros(4), np.array([a, 0.0, 0.0, 0.0]), config=LIGHT_CC)
        assert d == pytest.approx(abs(a), rel=1e-9)


# === normal-frame verdicts ===

def test_normal_frame_passes_with_exact_metric():
    frame, _ = heisenberg()
    rep = check_normal_frame(frame, [np.zeros(3), np.array([0.1, -0.05, 0.02])],
                             [0.5, 0.25, 0.125], coeff_box=0.4,
                             cc=heisenberg_cc)
    assert rep.passed


def test_normal_frame_scale_batches_equal_per_scale_calls():
    # check_normal_frame runs each schedule as one batch: every row must
    # carry the bits of the per-scale flow_exp and one-row compose_rows calls
    eps = np.array([0.5, 0.3, 0.125, 0.0625])
    a = np.array([0.31, -0.22, 0.17])
    b = np.array([-0.12, 0.27, -0.2])
    for frame, steps in ((heisenberg()[0], 32), (warped_heisenberg()[0], 64)):
        x = np.array([0.1, -0.05, 0.02])
        A, B = frame.scale_coeffs(eps, a), frame.scale_coeffs(eps, b)
        pts = flow_exp(frame, A, x, steps=steps)
        P, _, _ = compose_rows(frame, A, B, x, steps=steps)
        for r, e in enumerate(eps):
            Ae, Be = frame.scale_coeffs(float(e), a), frame.scale_coeffs(float(e), b)
            assert np.array_equal(pts[r], flow_exp(frame, Ae, x, steps=steps)), frame.name
            Pe, _, _ = compose_rows(frame, Ae[None], Be[None], x, steps=steps)
            assert np.array_equal(P[r], Pe[0])


def test_normal_frame_rejects_wrong_degrees():
    frame, _ = heisenberg()
    wrong = Frame(fields=frame.fields, degrees=(1, 1, 1),
                  chart_box=frame.chart_box)
    rep = check_normal_frame(wrong, [np.zeros(3)],
                             [0.5, 0.25, 0.125], coeff_box=0.4,
                             cc=heisenberg_cc)
    assert not rep.passed


@pytest.mark.parametrize("box", [0.0, np.nan, np.inf])
def test_normal_frame_refuses_a_coefficient_box_with_no_draw(box):
    # the coefficient draws continue until two clear 5% of the box width,
    # which no draw from a zero-width or non-finite box does
    with pytest.raises(ValueError, match="coeff_box"):
        check_normal_frame(heisenberg()[0], [np.zeros(3)], [0.5, 0.25, 0.125],
                           coeff_box=box, cc=heisenberg_cc)


def _zero_metric(p, q):
    return np.zeros(np.broadcast_shapes(np.shape(p), np.shape(q))[:-1])


def _probe_weighted_gauge(p, q):
    # the gauge weighed by 1 + 100 |q_1|: the rescaled limits at the probes
    # (0, 0, 0) and (0.1, -0.05, 0.02) are the gauge's and 11 times it
    return heisenberg_cc(p, q) * (1.0 + 100.0 * np.abs(np.asarray(q)[..., 0]))


@pytest.mark.parametrize("degrees, cc, failure", [
    ((1, 1, 2), _zero_metric, ("a", "degenerate-limit")),
    ((1, 1, 2), _probe_weighted_gauge, ("a", "uniformity")),
    # with degree 3 on the bracket field, the composition's vertical
    # coefficient, of order eps^2, grows like 1 / eps once divided by eps^3
    ((1, 1, 3), heisenberg_cc, ("b", "no-limit")),
])
def test_normal_frame_catches_each_known_defect(degrees, cc, failure):
    frame, _ = heisenberg()
    frame = Frame(fields=frame.fields, degrees=degrees, chart_box=frame.chart_box)
    rep = check_normal_frame(frame, [np.zeros(3), np.array([0.1, -0.05, 0.02])],
                             [0.5, 0.25, 0.125], coeff_box=0.4, cc=cc)
    assert rep.passed is False
    assert failure in {(f["part"], f["kind"]) for f in rep.failures}


# === warped model ===

def test_warped_flow_error_drops_with_steps():
    frame, cc, phi = warped_heisenberg()
    # the integrator error scales with the coefficient along the warped
    # axis, so keep that one well away from zero
    x = phi(np.array([0.2, -0.1, 0.1]))
    a = np.array([0.3, 0.2, 0.1])
    ref = flow_exp(frame, a, x, steps=512)
    e8 = float(np.max(np.abs(flow_exp(frame, a, x, steps=8) - ref)))
    e16 = float(np.max(np.abs(flow_exp(frame, a, x, steps=16) - ref)))
    assert e8 > 1e-12  # genuinely inexact at coarse steps
    assert e8 / max(e16, 1e-300) > 8.0  # fourth-order decay
