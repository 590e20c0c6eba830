"""Carnot-Caratheodory distances and the dilatation structures they induce.

cc_distance is a variational solver: horizontal paths are piecewise-constant
controls on the degree-1 frame fields, integrated by RK4, optimized by L-BFGS
on the path energy with an augmented quadratic endpoint penalty (multiplier
update plus x10 continuation), several deterministic starts, and analytic
adjoint gradients through the discretization.

The Heisenberg group ships as the worked example with three oracles that do
not go through the optimizer: the group law, the exact gauge distance (root
solve for the connecting circular arc), and a 1-D arc-radius minimization for
purely vertical targets.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar

from .axioms import CheckReport, DilatationStructure, broadcasting
from .errors import NoFeasiblePath
from .geometry import MetricSpaceHandle
from .limits import richardson_limit
from .util import as_point, as_points, check_schedule
from .vectorfields import (Frame, VectorField, chart_inverse, compose_P, flow_exp,
                           frame_from_manifest)


# ---------------------------------------------------------------------------
# Heisenberg group: frame and oracles


def heisenberg_group_law(u, v) -> np.ndarray:
    """(u * v) with the area cocycle in the third slot."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = u + v
    w3 = u[..., 2] + v[..., 2] + 0.5 * (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    out = np.array(w)
    out[..., 2] = w3
    return out


def heisenberg_inverse(u) -> np.ndarray:
    return -np.asarray(u, dtype=float)


def heisenberg_dilate(eps: float, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return u * np.array([eps, eps, eps * eps])


def heisenberg():
    """Left-invariant Heisenberg frame and the group-law oracle.

    Returns (Frame, group_law). The frame fields are
    X1 = (1, 0, -x2/2), X2 = (0, 1, x1/2), X3 = (0, 0, 1) with degrees
    (1, 1, 2); X3 = [X1, X2]. The chart box is [-2, 2]^3.
    """

    def f1(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(p)
        out[..., 0] = 1.0
        out[..., 2] = -0.5 * p[..., 1]
        return out

    def f2(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(p)
        out[..., 1] = 1.0
        out[..., 2] = 0.5 * p[..., 0]
        return out

    def f3(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(p)
        out[..., 2] = 1.0
        return out

    J1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -0.5, 0.0]])
    J2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    J3 = np.zeros((3, 3))

    def const(J):
        return lambda p: np.broadcast_to(J, np.shape(p)[:-1] + J.shape)

    X1 = VectorField(func=f1, jacobian=const(J1), name="X1")
    X2 = VectorField(func=f2, jacobian=const(J2), name="X2")
    X3 = VectorField(func=f3, jacobian=const(J3), name="X3")
    box = np.stack([np.full(3, -2.0), np.full(3, 2.0)], axis=1)
    frame = Frame(fields=(X1, X2, X3), degrees=(1, 1, 2), chart_box=box,
                  name="heisenberg")
    return frame, heisenberg_group_law


def _arc_ratio(theta: float) -> float:
    """(theta - sin theta) / (8 sin^2(theta/2)): vertical gain over chord^2."""
    s = math.sin(0.5 * theta)
    return (theta - math.sin(theta)) / (8.0 * s * s)


def heisenberg_gauge(w) -> float:
    """Exact CC distance from the origin (unit horizontal frame).

    The minimizing path projects to a circular arc; the central angle theta
    solves (theta - sin theta) / (8 sin^2(theta/2)) = |t| / rho^2 where rho is
    the horizontal chord and t the vertical coordinate, and the length is
    rho * theta / (2 sin(theta/2)). Degenerate regimes: theta -> 0 gives the
    straight segment (length rho), rho -> 0 the full circle (length
    2 sqrt(pi |t|)).
    """
    w = as_point(w)
    rho = math.hypot(w[0], w[1])
    t = abs(float(w[2]))
    if t < 1e-300:
        return rho
    if rho < 1e-300:
        return 2.0 * math.sqrt(math.pi * t)
    ratio = t / (rho * rho)
    if ratio < 1e-8:
        return rho  # correction is O(ratio^2), below machine precision
    hi = 2.0 * math.pi - 1e-9
    if ratio >= _arc_ratio(hi):
        return 2.0 * math.sqrt(math.pi * t)
    theta = brentq(lambda th: _arc_ratio(th) - ratio, 1e-9, hi, xtol=1e-14, rtol=8.9e-16)
    return rho * theta / (2.0 * math.sin(0.5 * theta))


def heisenberg_cc(p, q) -> float:
    """Exact CC distance: gauge of the group difference."""
    return heisenberg_gauge(heisenberg_group_law(heisenberg_inverse(as_point(p)),
                                                 as_point(q)))


def vertical_cc_oracle(t: float) -> float:
    """Length of the closed horizontal loop reaching (0, 0, t).

    Among circles through the origin, the loop of radius r encloses area
    pi r^2 and has length 2 pi r; the feasible radius is found by 1-D
    minimization of the squared area mismatch.
    """
    t = abs(float(t))
    if t == 0.0:
        return 0.0
    r_guess = math.sqrt(t / math.pi)
    res = minimize_scalar(lambda r: (math.pi * r * r - t) ** 2,
                          bounds=(0.0, 3.0 * r_guess + 1.0), method="bounded",
                          options={"xatol": 1e-13})
    return 2.0 * math.pi * float(res.x)


def heisenberg_ball_box(center, radius: float) -> np.ndarray:
    """Chart bounding halfwidths of the CC ball around center.

    The ball is the left translate of the gauge ball. Horizontal reach is the
    radius itself; vertical reach is r^2 / (2 pi), attained by half-circle
    paths, plus the translation cross term from the group law.
    """
    c = as_point(center)
    r = float(radius)
    h3 = r * r / (2.0 * math.pi) + 0.5 * r * (abs(c[0]) + abs(c[1]))
    return 1.05 * np.array([r, r, h3 + 1e-300])


# ---------------------------------------------------------------------------
# Variational CC distance


# Initial endpoint-penalty weight of cc_distance and its growth per stage.
RHO0 = 1e2
RHO_FACTOR = 10.0


@dataclass(frozen=True)
class CCConfig:
    segments: int = 64
    starts: int = 8
    stages: int = 5
    maxiter_first: int = 150
    maxiter_later: int = 60
    keep_after_first: int = 3
    endpoint_tol: float = 1e-6


LIGHT_CC = CCConfig(segments=32, starts=4, stages=4, maxiter_first=100,
                    maxiter_later=50, keep_after_first=2, endpoint_tol=3e-6)


@dataclass(frozen=True)
class HorizontalPath:
    """Piecewise-constant controls on the degree-1 fields."""

    controls: np.ndarray  # (N, m)
    start: np.ndarray

    @property
    def length(self) -> float:
        h = 1.0 / self.controls.shape[0]
        return float(h * np.sum(np.linalg.norm(self.controls, axis=1)))


def _h_fields(frame: Frame):
    return frame.fields[: frame.m]


def _ctrl_field(fields, z, u):
    """sum_i u_i X_i(z) over the horizontal fields at one point."""
    return sum(ui * f(z) for ui, f in zip(u, fields))


def _rollout(frame: Frame, x: np.ndarray, U: np.ndarray):
    """RK4 trajectory (one step per segment); returns (states, stage inputs)."""
    N = U.shape[0]
    h = 1.0 / N
    zs = np.empty((N + 1, x.size))
    zs[0] = x
    stages = np.empty((N, 4, x.size))
    fields = _h_fields(frame)
    for j in range(N):
        u = U[j]
        z = zs[j]
        k1 = _ctrl_field(fields, z, u)
        s2 = z + 0.5 * h * k1
        k2 = _ctrl_field(fields, s2, u)
        s3 = z + 0.5 * h * k2
        k3 = _ctrl_field(fields, s3, u)
        s4 = z + h * k3
        k4 = _ctrl_field(fields, s4, u)
        zs[j + 1] = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        stages[j, 0] = z
        stages[j, 1] = s2
        stages[j, 2] = s3
        stages[j, 3] = s4
    return zs, stages


def _objective_and_grad(frame: Frame, x, y, U, lam, rho):
    """Augmented-Lagrangian energy and its control gradient (adjoint pass)."""
    N = U.shape[0]
    n = x.size
    h = 1.0 / N
    zs, stages = _rollout(frame, x, U)
    c = zs[-1] - y
    J = h * float(np.sum(U * U)) + float(lam @ c) + 0.5 * rho * float(c @ c)

    # linearize every RK4 stage of every segment at once: A = sum_i u_i DX_i
    # and B = [X_1 ... X_m] at the stage points, (N, 4, n, n) and (N, 4, n, m)
    fields = _h_fields(frame)
    A = sum(U[:, i, None, None, None] * f.jac(stages) for i, f in enumerate(fields))
    B = np.stack([f(stages) for f in fields], axis=-1)
    eyeN = np.eye(n)
    A1 = A[:, 0]
    A2 = A[:, 1] @ (eyeN + 0.5 * h * A1)
    A3 = A[:, 2] @ (eyeN + 0.5 * h * A2)
    A4 = A[:, 3] @ (eyeN + h * A3)
    B1 = B[:, 0]
    B2 = A[:, 1] @ (0.5 * h * B1) + B[:, 1]
    B3 = A[:, 2] @ (0.5 * h * B2) + B[:, 2]
    B4 = A[:, 3] @ (h * B3) + B[:, 3]
    M = eyeN + (h / 6.0) * (A1 + 2.0 * A2 + 2.0 * A3 + A4)  # d z_{j+1} / d z_j
    G = (h / 6.0) * (B1 + 2.0 * B2 + 2.0 * B3 + B4)  # d z_{j+1} / d u_j

    # backward multiplier recursion: lams[j] = d(penalty) / d z_{j+1}
    lams = np.empty((N, n))
    lam_z = lam + rho * c
    for j in range(N - 1, -1, -1):
        lams[j] = lam_z
        lam_z = M[j].T @ lam_z
    grad = 2.0 * h * U + np.einsum("jnm,jn->jm", G, lams)
    return J, grad, c


def _seed_controls(frame: Frame, x, y, cfg: CCConfig):
    """Deterministic start family: least-squares straight control, circular
    seeds sized to sweep the non-horizontal displacement, sine bumps, one
    fixed pseudo-random draw. At most cfg.starts of these distinct starts
    are returned; a horizontal target, which skips the circular seeds, gets
    fewer. Also returns (residual, energy) seed statistics used to scale the
    initial penalty weight."""
    N, m = cfg.segments, frame.m
    w = y - x
    M = frame.eval_matrix(x)[:, :m]
    u_ls, *_ = np.linalg.lstsq(M, w, rcond=None)
    resid = float(np.linalg.norm(w - M @ u_ls))
    base = np.tile(u_ls, (N, 1))
    tau = 2.0 * math.pi * (np.arange(N) + 0.5) / N

    seeds = [base]
    amp = 2.0 * math.sqrt(math.pi * resid) if resid > 1e-14 else 0.0
    if m >= 2 and amp > 0.0:
        for phase in (0.0, 0.5 * math.pi):
            for sgn in (1.0, -1.0):
                circ = np.zeros((N, m))
                circ[:, 0] = amp * np.cos(tau + phase)
                circ[:, 1] = sgn * amp * np.sin(tau + phase)
                seeds.append(base + circ)
    scale = max(float(np.linalg.norm(u_ls)), amp, 0.5)
    perp = np.zeros(m)
    perp[-1] = 1.0
    if m >= 2 and float(np.linalg.norm(u_ls)) > 1e-12:
        d = u_ls / np.linalg.norm(u_ls)
        perp = perp - float(perp @ d) * d
        if np.linalg.norm(perp) < 1e-8:
            perp = np.zeros(m)
            perp[0] = 1.0
            perp = perp - float(perp @ d) * d
        perp = perp / max(np.linalg.norm(perp), 1e-12)
    for sgn in (1.0, -1.0):
        bump = np.outer(np.sin(math.pi * (np.arange(N) + 0.5) / N), sgn * scale * perp)
        seeds.append(base + bump)
    rng = np.random.RandomState(0)
    seeds.append(base + 0.3 * scale * rng.standard_normal((N, m)))

    e_typ = float(u_ls @ u_ls) + amp * amp
    return np.array(seeds[: cfg.starts]), resid, e_typ


def cc_distance(frame: Frame, x, y, config: Optional[CCConfig] = None,
                return_info: bool = False):
    """Length of the shortest found horizontal path from x to y.

    Upper-bound semantics: the value is the length of an actual feasible
    discrete path (endpoint residual below config.endpoint_tol in chart
    coordinates). NoFeasiblePath is raised when no start reaches the target.
    """
    cfg = config or CCConfig()
    x = as_point(x)
    y = as_point(y)
    m = frame.m
    if m < 1:
        raise ValueError("frame has no degree-1 fields")
    N = cfg.segments
    h = 1.0 / N

    if float(np.max(np.abs(y - x))) == 0.0:
        path = HorizontalPath(controls=np.zeros((N, m)), start=x)
        return (0.0, path) if return_info else 0.0

    seeds, seed_resid, seed_energy = _seed_controls(frame, x, y, cfg)
    n_starts = seeds.shape[0]
    lams = [np.zeros(x.size) for _ in range(n_starts)]
    Us = [seeds[s].copy() for s in range(n_starts)]
    # endpoint gap z_N - y of each start's current controls
    gaps = [_rollout(frame, x, U)[0][-1] - y for U in Us]
    active = list(range(n_starts))
    # the quadratic penalty must dominate the path energy at the seed
    # residual, or the first stage collapses near-feasible loop seeds into
    # the zero-control saddle before any multiplier forms
    if seed_resid <= 1e-9 * (1.0 + float(np.linalg.norm(y - x))):
        rho = RHO0
    else:
        rho = max(RHO0, min(1e8, 10.0 * max(seed_energy, 1e-12) / seed_resid ** 2))

    for stage in range(cfg.stages):
        maxiter = cfg.maxiter_first if stage == 0 else cfg.maxiter_later
        for s in active:
            def fun(uflat):
                J, grad, _ = _objective_and_grad(frame, x, y, uflat.reshape(N, m), lams[s], rho)
                return J, grad.ravel()

            sol = minimize(fun, Us[s].ravel(), jac=True, method="L-BFGS-B",
                           options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-10})
            Us[s] = sol.x.reshape(N, m)
            gaps[s] = _rollout(frame, x, Us[s])[0][-1] - y
            lams[s] = lams[s] + rho * gaps[s]
        if stage == 0 and len(active) > cfg.keep_after_first:
            scored = sorted((h * float(np.sum(np.linalg.norm(Us[s], axis=1)))
                             + 10.0 * float(np.linalg.norm(gaps[s])), s) for s in active)
            active = sorted(s for _, s in scored[: cfg.keep_after_first])
        rho *= RHO_FACTOR

    best = None
    for s in active:
        res = float(np.max(np.abs(gaps[s])))
        length = h * float(np.sum(np.linalg.norm(Us[s], axis=1)))
        key = (res > cfg.endpoint_tol, length, s)
        if best is None or key < best[0]:
            best = (key, s, res, length)
    _, s_best, res_best, length_best = best
    if res_best > cfg.endpoint_tol:
        raise NoFeasiblePath("best endpoint residual %.3g above %.3g"
                             % (res_best, cfg.endpoint_tol))
    path = HorizontalPath(controls=Us[s_best], start=x)
    return (length_best, path) if return_info else length_best


# ---------------------------------------------------------------------------
# Normal-frame checks


def _coeff_samples(frame: Frame, coeff_box) -> list:
    """Two Halton draws from the coefficient box, away from the origin."""
    from scipy.stats import qmc

    n = frame.n
    box = np.asarray(coeff_box, dtype=float)
    if box.ndim == 0:
        box = np.stack([np.full(n, -float(box)), np.full(n, float(box))], axis=1)
    if box.shape != (n, 2):
        raise ValueError("coeff_box must be a scalar halfwidth or an (n, 2) array")
    eng = qmc.Halton(d=n, scramble=False)
    eng.fast_forward(3)
    out = []
    while len(out) < 2:
        u = eng.random(1)[0]
        a = box[:, 0] + u * (box[:, 1] - box[:, 0])
        if np.linalg.norm(a) > 0.05 * float(np.max(box[:, 1] - box[:, 0])):
            out.append(a)
    return out


def _plateau(vals: np.ndarray, band: float) -> bool:
    tail = vals[-3:] if len(vals) >= 3 else vals
    return bool(np.max(tail) - np.min(tail) <= band)


def check_normal_frame(frame: Frame, probes: Sequence, eps_schedule, coeff_box,
                       cc: Optional[Callable] = None,
                       cc_config: Optional[CCConfig] = None,
                       flow_steps: int = 256,
                       value_noise: Optional[float] = None) -> CheckReport:
    """Two-part degree test of an adapted frame.

    (a) (1/eps) cc(exp(sum eps^deg a_i X_i)(y), y) settles to a finite
        positive limit at every probe, with bounded spread across probes.
    (b) eps^(-deg_i) P_i(eps-scaled a, eps-scaled b, y) settles per
        coordinate, where P solves the two-exponential composition.

    cc defaults to the variational solver on the frame; value_noise is the
    absolute noise floor of one cc evaluation (defaults: 1e-4 for the solver,
    1e-9 for a supplied exact metric) used in the plateau verdict.
    """
    eps = check_schedule(eps_schedule)
    probes = [as_point(p) for p in probes]
    degrees = np.asarray(frame.degrees, dtype=float)
    if value_noise is None:
        value_noise = 1e-4 if cc is None else 1e-9
    if cc is None:
        solver_cfg = cc_config or LIGHT_CC
        cc = lambda p, q: cc_distance(frame, p, q, config=solver_cfg)

    coeffs = _coeff_samples(frame, coeff_box)
    failures = []
    table = []
    max_res = 0.0

    # (a) rescaled gauge of dilated coefficients
    for ci, a in enumerate(coeffs):
        limits = []
        for pi, y in enumerate(probes):
            vals = []
            for e in eps:
                e = float(e)
                p = flow_exp(frame, frame.scale_coeffs(e, a), y, steps=flow_steps)
                vals.append(float(cc(p, y)) / e)
            vals = np.array(vals)
            est = richardson_limit(eps, vals)
            band = max(0.02 * float(np.median(np.abs(vals))),
                       10.0 * value_noise / float(eps[-1]))
            settled = est.converged or _plateau(vals, band)
            lim = float(est.extrapolated)
            limits.append(lim)
            if not settled:
                failures.append({"part": "a", "coeff": ci, "probe": pi,
                                 "kind": "no-limit", "values": [float(v) for v in vals]})
            if not (lim > 0.0 and np.isfinite(lim)):
                failures.append({"part": "a", "coeff": ci, "probe": pi,
                                 "kind": "degenerate-limit", "limit": lim})
            if ci == 0 and pi == 0:
                for r in est.table_rows():
                    r["error"] = float(max(est.error, band))
                    table.append(r)
        spread = max(limits) - min(limits)
        mean = float(np.mean(limits))
        max_res = max(max_res, spread)
        if spread > max(1.0 * abs(mean), 10.0 * value_noise / float(eps[-1])):
            failures.append({"part": "a", "coeff": ci, "kind": "uniformity",
                             "spread": spread, "mean": mean})

    # (b) degree-rescaled composition coefficients
    pair_list = [(coeffs[0], coeffs[1]), (coeffs[1], coeffs[0])]
    for pi, x in enumerate(probes):
        for qi, (a, b) in enumerate(pair_list):
            vecs = []
            for e in eps:
                e = float(e)
                r = compose_P(frame, frame.scale_coeffs(e, a),
                              frame.scale_coeffs(e, b), x, steps=flow_steps)
                vecs.append(r.coeffs / e ** degrees)
            vecs = np.array(vecs)
            est = richardson_limit(eps, vecs)
            noise_b = 1e-12 / float(eps[-1]) ** frame.step
            band = max(1e-5 * (1.0 + float(np.max(np.abs(vecs)))), 10.0 * noise_b)
            diffs = np.max(np.abs(np.diff(vecs, axis=0)), axis=1)
            settled = est.converged or bool(np.all(diffs[-2:] <= band))
            if not settled:
                failures.append({"part": "b", "probe": pi, "pair": qi,
                                 "kind": "no-limit",
                                 "last-diffs": [float(d) for d in diffs[-3:]]})
            if pi == 0 and qi == 0:
                for r in est.table_rows():
                    table.append(r)

    return CheckReport(check="normal-frame", passed=not failures,
                       max_residual=max_res, tolerance=float(value_noise),
                       converged=not failures, failures=failures[:20], table=table,
                       notes="%d probes, %d coefficient draws" % (len(probes), len(coeffs)))


# ---------------------------------------------------------------------------
# Induced dilatation structures


def sr_dilatation(frame: Frame, cc: Callable, steps: int = 256,
                  newton_tol: float = 1e-12, injectivity_radius: float = 0.5,
                  ball_box=None, name: str = "",
                  working_radius: float = 0.3) -> DilatationStructure:
    """Dilatation structure of an adapted frame under a CC-type metric:

        dil(eps, x, y) = exp(sum eps^deg_i a_i X_i)(x),  a = chart coords of y

    dil broadcasts over a schedule of scales (see axioms.broadcasting). cc
    is the metric callable (typically cc_distance on the frame, or an
    exact formula when one exists). The chart is the frame's box, or
    [-3, 3]^n when it declares none; the domain radius is 1.2.
    """
    n = frame.n
    if frame.chart_box is not None:
        box = np.asarray(frame.chart_box, dtype=float)
    else:
        box = np.stack([np.full(n, -3.0), np.full(n, 3.0)], axis=1)

    @broadcasting
    def dil(eps, x, y):
        # the chart coordinates of y do not depend on eps: one batched inverse
        # for the (x, y) rows, then every scale in one flow
        x = as_points(x)
        a = chart_inverse(frame, x, y, tol=newton_tol, steps=steps,
                          injectivity_radius=injectivity_radius)
        return flow_exp(frame, frame.scale_coeffs(eps, a), x, steps=steps)

    space = MetricSpaceHandle(dim=n, distance=cc, chart_box=box,
                              ball_box=ball_box, name=name or frame.name)
    return DilatationStructure(space=space, dil=dil, name=name or frame.name,
                               domain_radius=1.2, working_radius=working_radius)


def heisenberg_structure(steps: int = 32) -> DilatationStructure:
    """Heisenberg dilatation structure.

    The metric is the exact gauge distance (the optimizer is validated
    against it elsewhere); steps=32 is safe because RK4 integrates these
    flows exactly at any step count (polynomial flows of degree 2).
    """
    frame, _ = heisenberg()
    # the exponential chart of this group is a global diffeomorphism, so the
    # Newton guard can extend to the chart box
    return sr_dilatation(frame, heisenberg_cc, steps=steps, newton_tol=1e-13,
                         injectivity_radius=2.0,
                         ball_box=heisenberg_ball_box, name="heisenberg")


# ---------------------------------------------------------------------------
# Warped copy (pushforward under a chart diffeomorphism)


def _warp_maps():
    """Triangular warp of R^3 with a trigonometric shear and a closed-form
    inverse.

    The sine term matters: a polynomial triangular warp pushes the nilpotent
    fields to a cascade that RK4 still integrates exactly (the higher
    elementary differentials all vanish), which would make every
    discretization-order measurement on the warped structure degenerate.
    """
    a, b, s, r = 0.4, 2.0, 0.3, 0.35

    def phi(x):
        x = np.asarray(x, dtype=float)
        out = np.array(x)
        out[..., 1] = x[..., 1] + a * np.sin(b * x[..., 0])
        out[..., 2] = x[..., 2] + s * x[..., 0] * x[..., 1] + r * x[..., 1] ** 2
        return out

    def phi_inv(y):
        y = np.asarray(y, dtype=float)
        out = np.array(y)
        x2 = y[..., 1] - a * np.sin(b * y[..., 0])
        out[..., 1] = x2
        out[..., 2] = y[..., 2] - s * y[..., 0] * x2 - r * x2 ** 2
        return out

    def dphi(x):
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1]
        J = np.zeros(shape + (3, 3))
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = 1.0
        J[..., 2, 2] = 1.0
        J[..., 1, 0] = a * b * np.cos(b * x[..., 0])
        J[..., 2, 0] = s * x[..., 1]
        J[..., 2, 1] = s * x[..., 0] + 2.0 * r * x[..., 1]
        return J

    return phi, phi_inv, dphi


def warped_heisenberg():
    """Pushforward of the Heisenberg frame under a polynomial warp.

    Returns (frame, cc, phi): the frame fields are Dphi . X_i . phi^{-1}, and
    cc is the pushforward metric, so the warped triple is again a regular
    sub-Riemannian structure; its flows are NOT integrated exactly by RK4,
    which makes it the reference instance for discretization-order checks.
    The chart box is [-2.5, 2.5]^3.
    """
    base, _ = heisenberg()
    phi, phi_inv, dphi = _warp_maps()

    def push(i):
        Xi = base.fields[i]

        def func(yy):
            yy = np.asarray(yy, dtype=float)
            x = phi_inv(yy)
            J = dphi(x)
            v = Xi(x)
            return np.einsum("...ij,...j->...i", J, v)

        return VectorField(func=func, jacobian=None, name="Y%d" % (i + 1))

    fields = tuple(push(i) for i in range(3))
    box = np.stack([np.full(3, -2.5), np.full(3, 2.5)], axis=1)
    frame = Frame(fields=fields, degrees=(1, 1, 2), chart_box=box,
                  name="heisenberg-warped")
    cc = lambda p, q: heisenberg_cc(phi_inv(as_point(p)), phi_inv(as_point(q)))
    return frame, cc, phi


def warped_heisenberg_structure(steps: int = 256) -> DilatationStructure:
    frame, cc, _ = warped_heisenberg()
    # the warp is a global triangular diffeomorphism, so the chart stays
    # injective across the box
    return sr_dilatation(frame, cc, steps=steps, injectivity_radius=2.0,
                         name="heisenberg-warped", working_radius=0.25)


def structure_from_manifest(doc: dict, steps: int = 256) -> DilatationStructure:
    """Dilatation structure from a JSON frame manifest (variational metric,
    cc_distance with LIGHT_CC)."""
    frame = frame_from_manifest(doc)
    cc = lambda p, q: cc_distance(frame, p, q, config=LIGHT_CC)
    return sr_dilatation(frame, cc, steps=steps, name=frame.name)
