"""Carnot-Caratheodory distances and the dilatation structures they induce.

cc_distance is a variational solver: horizontal paths are piecewise-constant
controls on the degree-1 frame fields, integrated by vectorfields.rk4_step,
optimized by L-BFGS on the path energy with an augmented quadratic endpoint
penalty (multiplier update plus x10 continuation), several deterministic
starts, and analytic adjoint gradients through the discretization. The
L-BFGS solver is scipy's, reached through this module's minimize, which
imports scipy.optimize on its first call, so importing carnot loads no
scipy.

check_normal_frame tests the degrees of an adapted frame, and sr_dilatation
turns a frame and a CC-type metric on point stacks into a dilatation
structure: the exact Heisenberg metrics of heisenberg_group, or cc_distance
through _light_cc, the package's only per-row metric loop.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .axioms import CheckReport, DilatationStructure
from .errors import NoFeasiblePath
from .geometry import MetricSpaceHandle
from .heisenberg_group import heisenberg, heisenberg_ball_box, heisenberg_cc, warped_heisenberg
from .limits import richardson_limit
from .util import as_point, as_points, check_schedule, halton, symmetric_box
from .vectorfields import (Frame, chart_inverse, compose_rows, flow_exp, frame_from_manifest,
                           rk4_linearization, rk4_step)


# ---------------------------------------------------------------------------
# Variational CC distance


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call so that importing
    carnot loads no scipy. cc_distance looks this name up when it calls it,
    so a wrapper set on the module attribute sees every L-BFGS solve."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


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


def _rollout(frame: Frame, x: np.ndarray, U: np.ndarray):
    """RK4 trajectory (one step per segment); returns (states, stage inputs)."""
    N = U.shape[0]
    h = 1.0 / N
    zs = np.empty((N + 1, x.size))
    zs[0] = x
    stages = np.empty((N, 4, x.size))
    combined = frame.combined  # U[j] holds the m horizontal coefficients
    for j in range(N):
        # one row per stage: assigning the tuple to stages[j] would convert it
        # to an array on every step
        zs[j + 1], (stages[j, 0], stages[j, 1], stages[j, 2], stages[j, 3]) = \
            rk4_step(combined, U[j], zs[j], h)
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
    fields = frame.fields[:frame.m]
    A = sum(U[:, i, None, None, None] * f.jac(stages) for i, f in enumerate(fields))
    B = np.stack([f(stages) for f in fields], axis=-1)
    M, G = rk4_linearization(A, B, h)  # d z_{j+1} / d z_j and d z_{j+1} / d u_j

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
    if cfg.stages < 1:
        raise ValueError("config needs stages >= 1")
    N = cfg.segments
    h = 1.0 / N

    if float(np.max(np.abs(y - x))) == 0.0:
        path = HorizontalPath(controls=np.zeros((N, m)), start=x)
        return (0.0, path) if return_info else 0.0

    seeds, seed_resid, seed_energy = _seed_controls(frame, x, y, cfg)
    n_starts = seeds.shape[0]
    lams = [np.zeros(x.size) for _ in range(n_starts)]
    Us = [seeds[s].copy() for s in range(n_starts)]
    # endpoint gap z_N - y of each start's current controls; stage 0 sets
    # every start's gap before anything reads it
    gaps = [None] * n_starts
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


def _light_cc(frame: Frame) -> Callable:
    """cc_distance with LIGHT_CC on the frame as a metric on point stacks (see
    geometry.MetricSpaceHandle), solved row by row: the package's one per-row
    metric loop, since the solver takes one pair at a time."""
    return np.vectorize(lambda p, q: cc_distance(frame, p, q, config=LIGHT_CC),
                        signature="(n),(n)->()", otypes=[float])


# ---------------------------------------------------------------------------
# Normal-frame checks


def _coeff_samples(frame: Frame, coeff_box) -> list:
    """The first two Halton draws from the coefficient box, from index 3 on,
    that lie away from the origin."""
    n = frame.n
    box = np.asarray(coeff_box, dtype=float)
    if box.ndim == 0:
        box = symmetric_box(n, box)
    if box.shape != (n, 2):
        raise ValueError("coeff_box must be a scalar halfwidth or an (n, 2) array")
    floor = 0.05 * float(np.max(box[:, 1] - box[:, 0]))
    out = []
    start = 3
    while len(out) < 2:
        A = box[:, 0] + halton(n, start, 8) * (box[:, 1] - box[:, 0])
        out += [a for a in A if np.linalg.norm(a) > floor]
        start += 8
    return out[:2]


def _plateau(vals: np.ndarray, band: float) -> bool:
    tail = vals[-3:] if len(vals) >= 3 else vals
    return bool(np.max(tail) - np.min(tail) <= band)


def check_normal_frame(frame: Frame, probes: Sequence, eps_schedule, coeff_box,
                       cc: Optional[Callable] = None,
                       flow_steps: int = 256) -> CheckReport:
    """Two-part degree test of an adapted frame.

    (a) (1/eps) cc(exp(sum eps^deg a_i X_i)(y), y) settles to a finite
        positive limit at every probe, with bounded spread across probes.
    (b) eps^(-deg_i) P_i(eps-scaled a, eps-scaled b, y) settles per
        coordinate, where P solves the two-exponential composition.

    cc is a metric on point stacks (see geometry.MetricSpaceHandle), called
    once per schedule; it defaults to the variational solver (LIGHT_CC) on
    the frame. The plateau verdict takes the absolute noise floor of one cc
    evaluation as 1e-4 for the solver and 1e-9 for a supplied exact metric.
    """
    eps = check_schedule(eps_schedule)
    probes = [as_point(p) for p in probes]
    degrees = np.asarray(frame.degrees, dtype=float)
    value_noise = 1e-4 if cc is None else 1e-9
    metric = cc or _light_cc(frame)

    coeffs = _coeff_samples(frame, coeff_box)
    failures = []
    table = []
    max_res = 0.0

    # (a) rescaled gauge of dilated coefficients
    for ci, a in enumerate(coeffs):
        limits = []
        for pi, y in enumerate(probes):
            pts = flow_exp(frame, frame.scale_coeffs(eps, a), y, steps=flow_steps)
            vals = metric(pts, y) / eps
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
            P, _, _ = compose_rows(frame, frame.scale_coeffs(eps, a),
                                   frame.scale_coeffs(eps, b), x, steps=flow_steps)
            vecs = P / eps[:, None] ** degrees
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

    dil takes a whole schedule of scales (see axioms.DilatationStructure). cc
    is the handle's metric on point stacks (see geometry.MetricSpaceHandle),
    used as it is: heisenberg_cc, or _light_cc(frame) row by row. The chart
    is the frame's box, or [-3, 3]^n when it declares none; the domain
    radius is 1.2.
    """
    n = frame.n
    if frame.chart_box is not None:
        box = np.asarray(frame.chart_box, dtype=float)
    else:
        box = symmetric_box(n, 3.0)

    def dil(eps, x, y):
        # the chart coordinates of y do not depend on eps: one batched inverse
        # for the distinct (x, y) rows (a schedule repeats each pair once per
        # scale), then every scale in one flow
        x, y = as_points(x), as_points(y)
        shape = np.broadcast_shapes(x.shape, y.shape)
        rows = np.concatenate(np.broadcast_arrays(x, y), axis=-1).reshape(-1, 2 * n)
        # distinct by exact bytes, so -0.0 and 0.0 stay apart
        keys = rows.view(np.dtype((np.void, rows.itemsize * 2 * n))).ravel()
        _, first, back = np.unique(keys, return_index=True, return_inverse=True)
        a = chart_inverse(frame, rows[first, :n], rows[first, n:], tol=newton_tol,
                          steps=steps, injectivity_radius=injectivity_radius)
        return flow_exp(frame, frame.scale_coeffs(eps, a[back.ravel()].reshape(shape)), x,
                        steps=steps)

    space = MetricSpaceHandle(dim=n, distance=cc, chart_box=box,
                              ball_box=ball_box, name=name or frame.name)
    return DilatationStructure(space=space, dil=dil, name=name or frame.name,
                               domain_radius=1.2, working_radius=working_radius)


def heisenberg_structure(steps: int = 1) -> DilatationStructure:
    """Heisenberg dilatation structure.

    The metric is the exact gauge distance (the optimizer is validated
    against it elsewhere). Every flow is one RK4 step by default, and that
    step is exact: in exponential coordinates the flow of the combined field
    sum a_i X_i has z1' = a1, z2' = a2 and z3' = a3 + (a2 z1 - a1 z2) / 2,
    all constant along the path, so its time-1 flow from x is the straight
    line to the group product x . a, and RK4 integrates a constant field
    without error. More steps walk the same line and only add rounding. The chart
    box is convex, so flow_exp's test of the one endpoint is the test of the
    whole segment.
    """
    frame, _ = heisenberg()
    # the exponential chart of this group is a global diffeomorphism, so the
    # Newton guard can extend to the chart box
    return sr_dilatation(frame, heisenberg_cc, steps=steps, newton_tol=1e-13,
                         injectivity_radius=2.0,
                         ball_box=heisenberg_ball_box, name="heisenberg")


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
    return sr_dilatation(frame, _light_cc(frame), steps=steps, name=frame.name)
