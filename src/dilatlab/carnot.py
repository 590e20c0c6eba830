"""Carnot-Caratheodory distances and the dilatation structures they induce.

cc_distance shoots a normal geodesic and polishes it into a feasible
discrete path. Normal geodesics are the projections of the Hamiltonian flow
of H(q, p) = 1/2 sum_i <p, X_i(q)>^2 over the degree-1 frame fields
(Agrachev, Barilari & Boscain, A Comprehensive Introduction to
Sub-Riemannian Geometry, 2019), integrated by vectorfields.rk4_flow. For
polynomial fields that system is one quadratic form in p with coefficients
polynomial in q, built at a frame's first cc_distance and kept on it
(Frame.hamiltonian), never at import or frame construction. The shooting
solves q(1) = y for the initial covector by Newton's method; each start and
its central-difference probes share one batched flow per iteration, and the
steps are truncated least squares.

On a contact frame (n = 3, two degree-1 fields) Newton first runs on one
start: the covector of the exact geodesic of the tangent cone at x, its
nilpotent approximation (Bellaiche, The tangent space in sub-Riemannian
geometry, 1996). That cone is the Heisenberg group whose structure
constant c is read off [X1, X2](x) = c X3(x) + (horizontal) through the
fields' Jacobians, and its geodesics are the circular arcs of
heisenberg_group. Only when that shot does not
land, or its polish misses the target, does the fallback run: a grid of up
to nine Heisenberg arcs of fixed angles, and halved targets when none of
those lands. Other frames go to the grid at once.

Newton keeps each start's best shot: the covector of the smallest endpoint
gap it reached, with the (q, p) stage points of that flow. The shortest
landed shot is then polished without being flowed again. Its RK4-weighted
controls, read off those stages, miss the target by the discretization's
mismatch (up to about 3e-4 of the target's size); at most two
minimum-norm Gauss-Newton steps project them onto it. One L-BFGS solve
from that feasible start minimizes the energy of piecewise-constant
controls under a fixed quadratic endpoint penalty, with the shot's
multiplier -2 p(1). The projection and the L-BFGS gradient read one
derivative of the RK4 rollout, the Jacobian of its endpoint with respect
to the controls (_endpoint_jacobian). The L-BFGS solver is scipy's,
reached through this module's minimize, which imports scipy.optimize on
its first call, so importing carnot loads no scipy.

Every polish evaluation rolls the piecewise-constant controls out by one
RK4 step per segment. Where the horizontal fields read only coordinates
that move at constant speed along them (Frame.affine_coords: Bellaiche's
graded coordinates, as on heisenberg() and the Heisenberg, contact and
Engel manifests), _rollout needs no step loop and keeps the loop's bits:
  - those coordinates' field components do not depend on the point (their
    non-constant terms have exact zero coefficients), so their states are
    one add.accumulate of constant increments;
  - combined gives a row the same bits alone as in a batch, so one batched
    call at every segment's stage points gives the four RK4 slopes;
  - add.accumulate adds in index order, as the loop does.

Shooting finds normal geodesics only. A strictly abnormal minimizer
(Montgomery 1994) is missed, and the value is then the length of a longer
normal path: still an upper bound. Step-2 distributions, such as the
Heisenberg and contact ones, have no strictly abnormal minimizers.

check_normal_frame tests the degrees of an adapted frame, and sr_dilatation
turns a frame and a CC-type metric on point stacks into a dilatation
structure: the exact Heisenberg metrics of heisenberg_group, or cc_distance
through _light_cc, the package's only per-row metric loop.
"""

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .axioms import CheckReport, DilatationStructure
from .errors import ChartEscape, NoFeasiblePath
from .geometry import MetricSpaceHandle
from .heisenberg_group import (_geodesic_arc, heisenberg, heisenberg_ball_box, heisenberg_cc,
                               warped_heisenberg)
from .limits import richardson_limit
from .util import as_point, check_schedule, halton, in_chart, symmetric_box
from .vectorfields import (FD_STEP, Frame, chart_inverse, compose_rows, flow_exp,
                           frame_from_manifest, rk4_flow, rk4_linearization)


# ---------------------------------------------------------------------------
# CC distance: normal-geodesic shooting and a variational polish


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call so that importing
    carnot loads no scipy. cc_distance looks this name up when it calls it,
    so a wrapper set on the module attribute sees every L-BFGS solve."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


# Endpoint-penalty weight and iteration cap of the polish.
POLISH_RHO = 1e6
POLISH_ITERS = 200
# Shooting Newton, relative to the target's size max|y - x|: a start stops
# below SHOOT_TOL or after SHOOT_ITERS steps, and its best shot is polished
# when its endpoint gap is at most SHOOT_ACCEPT. Once it is, the start also
# stops at the first flow that does not improve on that gap; before, once
# SHOOT_PATIENCE flows in a row have not.
# Singular values below SHOOT_RCOND times the largest are dropped, and a
# step is capped at SHOOT_CAP (1 + |h|) for covector h.
SHOOT_ITERS = 20
SHOOT_PATIENCE = 3
SHOOT_TOL = 1e-10
SHOOT_ACCEPT = 1e-3
SHOOT_RCOND = 1e-3
SHOOT_CAP = 3.0
# Nested target halvings that _shoot tries when no start lands.
SHOOT_HALVINGS = 3
# Gauss-Newton steps that project a shot's controls onto the target before
# the polish; a residual below PROJECT_ROUNDING (1 + max|y|) takes none.
PROJECT_STEPS = 2
PROJECT_ROUNDING = 1e-14


@dataclass(frozen=True)
class CCConfig:
    """Settings of cc_distance.

    segments is the number of RK4 steps of the shooting flow and of
    constant-control segments of the returned path; endpoint_tol bounds the
    endpoint residual (max norm, chart coordinates) of a returned path.

    LIGHT_CC's lengths sit up to +1.6e-3 (relative) above the Heisenberg
    gauge on vertical targets. That is pi^2 / (6 * 32^2), the perimeter
    excess of a 32-gon over the circle of the same area: a floor of 32
    constant-control segments, not a solver error (the shot's own length is
    within 3e-5).
    """

    segments: int = 64
    endpoint_tol: float = 1e-6


LIGHT_CC = CCConfig(segments=32, endpoint_tol=3e-6)


@dataclass(frozen=True)
class HorizontalPath:
    """Piecewise-constant controls on the degree-1 fields, with the start
    family whose shot was polished into them ("model": the tangent cone's
    geodesic, "grid": the fallback arcs, "halved": the grid through halved
    targets) and the number of batched Newton flows the shooting ran; x = y
    gives the zero path, with family "model" and no flow."""

    controls: np.ndarray  # (N, m)
    family: str
    flows: int


def _rollout(frame: Frame, x: np.ndarray, U: np.ndarray):
    """RK4 trajectory of the controls U (N, m) from x, one step per segment:
    the states (N + 1, n) and the stage points (N, 4, n) of rk4_flow.

    On a frame with affine_coords the rollout runs without a step loop and
    gives rk4_flow's bits (_affine_rollout); on any other frame, and where
    that rollout declines, rk4_flow runs.
    """
    cols = frame.affine_coords
    if cols is not None:
        out = _affine_rollout(frame.combined, x, U, np.array(cols, dtype=int))
        if out is not None:
            return out
    # U[j] holds the m horizontal coefficients of segment j
    ends, stages = zip(*rk4_flow(frame.combined, U, x))
    return np.array((x,) + ends), np.array(stages)


def _affine_rollout(combined: Callable, x, U, cols):
    """_rollout without a step loop, where the horizontal fields read only
    the coordinates cols, and those move at constant speed along each field
    (Frame.affine_coords). Three passes:

    1. Along segment j, cols' components of combined(U_j, .) are one
       constant K_j: their non-constant terms have exact zero coefficients.
       So cols' states are one add.accumulate of (h/6)(K + 2K + 2K + K),
       and so are their stage points.
    2. combined reads nothing outside cols and gives a row the same bits
       alone as in a batch, so one batched call at those stage points gives
       every segment's k1, k2 and k4 (k3 = k2, since the second and third
       stages agree on cols).
    3. One more add.accumulate, which adds in index order as the loop does,
       gives all the states, and from them the stages.

    Returns None, for the loop to run, unless every state is finite and
    cols' stage components equal K bit for bit (a sum that is exactly zero
    could differ in its sign)."""
    N, n = U.shape[0], x.size
    h = 1.0 / N
    # an overflow here is redone, and reported, by the loop
    with np.errstate(all="ignore"):
        K = combined(U, x)[:, cols]
        zc = np.add.accumulate(np.concatenate([x[None, cols],
                                               (h / 6.0) * (K + 2.0 * K + 2.0 * K + K)]))[:-1]
        at = np.zeros((3, N, n))  # the coordinates outside cols are never read
        at[:, :, cols] = (zc, zc + 0.5 * h * K, zc + h * K)
        k1, k2, k4 = k = combined(U, at)
        zs = np.add.accumulate(np.concatenate([x[None],
                                               (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k2 + k4)]))
    if not (np.all(np.isfinite(zs))
            and np.all(k[:, :, cols].view(np.int64) == K.view(np.int64))):
        return None
    z = zs[:-1]
    return zs, np.stack([z, z + 0.5 * h * k1, z + 0.5 * h * k2, z + h * k2], axis=1)


def _endpoint_jacobian(frame: Frame, x: np.ndarray, U: np.ndarray):
    """RK4 rollout of the controls U (N, m) from x and the derivative of its
    endpoint: the states zs (N + 1, n) and Jb (N, n, m) = d z_N / d u_j, the
    backward products M_(N-1) ... M_(j+1) G_j of rk4_linearization's
    M (N, n, n) = d z_{j+1} / d z_j and G (N, n, m) = d z_{j+1} / d u_j."""
    zs, stages = _rollout(frame, x, U)
    # linearize every RK4 stage of every segment at once: A = sum_i u_i DX_i
    # and B = [X_1 ... X_m] at the stage points, (N, 4, n, n) and (N, 4, n, m)
    fields = frame.fields[:frame.m]
    A = sum(U[:, i, None, None, None] * f.jac(stages) for i, f in enumerate(fields))
    B = np.stack([f(stages) for f in fields], axis=-1)
    M, G = rk4_linearization(A, B, 1.0 / U.shape[0])
    P = np.empty_like(M)  # P[j] = d z_N / d z_{j+1}
    P[-1] = np.eye(x.size)
    for j in range(U.shape[0] - 1, 0, -1):
        P[j - 1] = P[j] @ M[j]
    return zs, P @ G


def _objective_and_grad(frame: Frame, x, y, U, lam, rho):
    """Augmented-Lagrangian energy h sum |u_j|^2 + lam . c + rho/2 |c|^2 of
    the endpoint residual c, and its control gradient
    2 h U + Jb^T (lam + rho c) through the endpoint Jacobian Jb."""
    h = 1.0 / U.shape[0]
    zs, Jb = _endpoint_jacobian(frame, x, U)
    c = zs[-1] - y
    J = h * float(np.sum(U * U)) + float(lam @ c) + 0.5 * rho * float(c @ c)
    return J, 2.0 * h * U + np.einsum("jnm,n->jm", Jb, lam + rho * c), c


def _normal_flow(rhs: Callable, box, x, P, N: int):
    """N RK4 steps of the normal-geodesic system rhs (Frame.hamiltonian) from
    q = x with initial covectors P (..., n). Returns the final (q, p) rows
    (..., 2n), which rows left the chart (util.in_chart) at a step, and the
    stage points of every step. Lost rows integrate on to the end, so their
    overflows are silenced: lost reports them."""
    z = np.concatenate([np.broadcast_to(x, P.shape), P], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        ends, stages = zip(*rk4_flow(rhs, (None,) * N, z))
    ends = np.array(ends)
    # the covectors have no box: they only have to be finite
    kept = in_chart(box, ends[..., :x.size]) & in_chart(None, ends[..., x.size:])
    return ends[-1], ~np.all(kept, axis=(0, -1)), stages


def _turned(d: np.ndarray, angle: float) -> np.ndarray:
    """d with its first two coordinates turned by angle."""
    out = d.copy()
    out[:2] = (math.cos(angle) * d[0] - math.sin(angle) * d[1],
               math.sin(angle) * d[0] + math.cos(angle) * d[1])
    return out


def _structure_constant(frame: Frame, x, Minv) -> Optional[float]:
    """c in [X1, X2](x) = c X3(x) + (horizontal), read in frame coordinates
    from the fields' Jacobians at x, for a contact frame (n = 3, two degree-1
    fields); None for any other frame, and where c is 0 or not finite."""
    if (frame.n, frame.m) != (3, 2):
        return None
    X1, X2 = frame.fields[:2]
    c = float(Minv[2] @ (X2.jac(x) @ X1(x) - X1.jac(x) @ X2(x)))
    return c if math.isfinite(c) and c != 0.0 else None


def _model_start(a: np.ndarray, c: float) -> np.ndarray:
    """Covector, as the values <p, X_i(x)> on the frame, of the exact
    geodesic of the tangent cone at x towards the frame coordinates a of
    y - x: the Heisenberg group with [X1, X2] = c X3. There the normal
    geodesic with vertical covector h turns its velocity by c h, and the
    path to a is the arc of heisenberg_group._geodesic_arc over the chord
    a_h with vertical coordinate a_v / c, of angle theta and length L. So
    the covector is L times the chord direction turned by -s theta / 2, with
    vertical part s theta / c, for s = sign(a_v / c); a pure vertical target
    takes the first frame direction as its chord."""
    t = a[2] / c
    s = math.copysign(1.0, t)
    rho = math.hypot(a[0], a[1])
    theta, length = (float(v) for v in _geodesic_arc(np.array(rho), np.array(abs(t))))
    d = a[:2] / rho if rho > 0.0 else np.array([1.0, 0.0])
    return np.append(length * _turned(d, -0.5 * s * theta), s * theta / c)


def _covector_starts(m: int, a: np.ndarray, c: float) -> np.ndarray:
    """The fallback grid: initial covectors, as the values <p, X_i(x)> on the
    frame, aimed at the frame coordinates a = (a_h, a_v) of y - x through
    the Heisenberg model with [X1, X2] = c X3: there the normal geodesic
    with vertical covector h is an arc whose velocity turns by theta = c h,
    so its chord points along the initial velocity turned by theta / 2, and
    an arc of angle theta over the chord |a_h| has length
    |a_h| theta / (2 sin(theta / 2)).

    theta = 0 gives the straight start (a_h, 0). Each theta in pi/2, pi and
    3pi/2, of either sign s, gives the arc over the chord a_h, its velocity
    turned by -s theta / 2 in the first two horizontal coordinates and its
    vertical part s (theta / c) a_v / |a_v|. theta = +-2 pi is the full circle
    of area |a_v / c|, length sqrt(4 pi |a_v / c|), which a vertical target
    needs (there a_h = 0, and each sign gets four circles, turned by right
    angles). Zero-length starts are left out, so at most nine remain. Frames
    with more than one vertical coordinate pass c = 1."""
    ah, av = a[:m], a[m:]
    nh, nv = float(np.linalg.norm(ah)), float(np.linalg.norm(av))
    dh = ah / nh if nh > 0.0 else np.eye(m)[0]
    dv = av / nv if nv > 0.0 else np.eye(av.size)[:1].ravel()
    # the arcs' sign s turns them by -s theta / 2 and the Heisenberg geodesic
    # of that turn has vertical covector s theta / c: dv keeps a nonnegative
    # first coordinate, so that each sign pairs them so, whatever a_v's sign
    dv = -dv if dv[0] < 0.0 else dv
    starts = [np.concatenate([ah, np.zeros(av.size)])] if nh > 0.0 else []
    for theta in ((0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi)
                  if av.size and m > 1 else ()):
        if theta < 2.0 * math.pi:
            length = nh * theta / (2.0 * math.sin(0.5 * theta))
        else:
            length = math.hypot(nh, math.sqrt(4.0 * math.pi * nv / abs(c)))
        if length == 0.0:
            continue
        # the circles of a vertical target differ only by their turn: take
        # four, so that one fits wherever the chart box is near
        turns = (0.0,) if nh > 0.0 else (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
        for sign, extra in product((1.0, -1.0), turns):
            starts.append(np.concatenate([length * _turned(dh, extra - 0.5 * sign * theta),
                                          sign * theta / c * dv]))
    return np.array(starts).reshape(-1, a.size)


class _Shots(NamedTuple):
    """Newton's best shot of each start, one row each: the covectors (k, n)
    in frame coordinates, their endpoint gaps (k,) in max norm (inf for a
    flow that left the chart box), the (q, p) stage points of each shot's
    flow (k, N, 4, 2n) and its end (k, 2n)."""

    C: np.ndarray
    gap: np.ndarray
    stages: np.ndarray
    end: np.ndarray

    def take(self, rows) -> "_Shots":
        return _Shots(*(a[rows] for a in self))


def _newton(frame: Frame, rhs: Callable, x, y, Minv, C, N: int):
    """Newton's method for q(1) = y on the initial covectors C, one row per
    start; the flows take N RK4 steps.

    Covectors are rows h in frame coordinates, p(0) = h Minv. Each iteration
    integrates every unstopped start with its 2n central-difference probes
    in one batched flow, then takes a truncated least-squares step: a
    vertical target's Jacobian is singular along its rotation family. Each
    start keeps its best shot, the covector of the smallest endpoint gap it
    reached, with the stages of that flow (its centre row, not its probes).
    A start stops on its own when its gap drops below SHOOT_TOL, its step
    stalls or its path leaves the chart box; once its best gap is at most
    SHOOT_ACCEPT, also at the first flow that does not improve on it, and
    before that, when it wanders: SHOOT_PATIENCE flows in a row without an
    improvement. Returns the best shots (_Shots) and the number of flows
    run.
    """
    n = frame.n
    scale = float(np.max(np.abs(y - x)))
    tol, accept = SHOOT_TOL * scale, SHOOT_ACCEPT * scale
    # rows in frame coordinates, degree d weighed by hom^-d for the target's
    # homogeneous size hom: a short target moves its vertical coordinates
    # about hom times less than its horizontal ones, so unweighed rows
    # would truncate the vertical direction
    deg = np.asarray(frame.degrees, dtype=float)
    hom = float(np.max(np.abs((y - x) @ Minv.T) ** (1.0 / deg)))
    W = Minv / hom ** deg[:, None]
    C = np.array(C, dtype=float)
    k = len(C)
    best = _Shots(C.copy(), np.full(k, np.inf), np.full((k, N, 4, 2 * n), np.nan),
                  np.full((k, 2 * n), np.nan))
    stale = np.zeros(k, dtype=int)  # flows since the gap last improved
    active = np.arange(k)
    eye = np.eye(n)
    for it in range(SHOOT_ITERS + 1):
        ca = C[active, None, :]
        rows = np.concatenate([ca, ca + FD_STEP * eye, ca - FD_STEP * eye], axis=1)
        z, lost, stages = _normal_flow(rhs, frame.chart_box, x, rows @ Minv, N)
        F = z[:, 0, :n] - y
        g = np.where(lost[:, 0], np.inf, np.max(np.abs(F), axis=1))
        better = g < best.gap[active]
        won = active[better]
        best.C[won], best.gap[won], best.end[won] = C[won], g[better], z[better, 0]
        best.stages[won] = np.moveaxis(np.array(stages)[:, :, better, 0], 2, 0)
        stale[active] = np.where(better, 0, stale[active] + 1)
        wait = np.where(best.gap[active] <= accept, better, stale[active] < SHOOT_PATIENCE)
        go = (g > tol) & np.isfinite(g) & wait
        if it == SHOOT_ITERS or not np.any(go):
            break
        active, F, q = active[go], F[go], z[go, 1:, :n]
        J = W @ np.swapaxes(q[:, :n] - q[:, n:], 1, 2) / (2.0 * FD_STEP)
        # unit columns: the vertical covector moves a short target's end
        # much less than the horizontal one does, without being singular
        col = np.linalg.norm(J, axis=1)
        col = np.divide(1.0, col, out=np.zeros_like(col), where=col > 0.0)
        U, s, Vt = np.linalg.svd(J * col[:, None, :])
        keep = s > SHOOT_RCOND * s[:, :1]
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        step = -col * np.einsum("aji,aj,akj,ak->ai", Vt, inv, U, F @ W.T)
        size = np.linalg.norm(step, axis=1)
        cap = SHOOT_CAP * (1.0 + np.linalg.norm(C[active], axis=1))
        C[active] += step * np.minimum(1.0, cap / np.maximum(size, 1e-300))[:, None]
        active = active[size > 1e-12 * (1.0 + np.linalg.norm(C[active], axis=1))]
        if active.size == 0:
            break
    return best, it + 1


def _landed(x, y, gap) -> np.ndarray:
    """Which shots land on y: endpoint gap at most SHOOT_ACCEPT max|y - x|."""
    return gap <= SHOOT_ACCEPT * float(np.max(np.abs(y - x)))


def _shoot(frame: Frame, rhs: Callable, x, y, Minv, c: float, N: int, halvings: int = 0):
    """The fallback: Newton from the grid of _covector_starts (structure
    constant c). Returns the best shots that land on y (_Shots), the family
    they came from ("grid", or "halved" when the grid's own starts do not
    land) and the number of flows run.

    When no start lands, the target is halved along the frame's dilation,
    a -> (2^-deg_i a_i), and shot first; its landed covectors, scaled back
    by h_i -> 2^(2 - deg_i) h_i (exact for a Carnot group, whose dilations
    map normal geodesics to normal geodesics), are the starts of a second
    Newton. At most SHOOT_HALVINGS nested halvings.
    """
    a = (y - x) @ Minv.T
    shots, flows = _newton(frame, rhs, x, y, Minv, _covector_starts(frame.m, a, c), N)
    family = "grid"
    if halvings < SHOOT_HALVINGS and not np.any(_landed(x, y, shots.gap)):
        deg = np.asarray(frame.degrees, dtype=float)
        half = x + np.linalg.solve(Minv, a * 0.5 ** deg)
        seeds, _, k1 = _shoot(frame, rhs, x, half, Minv, c, N, halvings + 1)
        shots, k2 = _newton(frame, rhs, x, y, Minv, seeds.C * 2.0 ** (2.0 - deg), N)
        family, flows = "halved", flows + k1 + k2
    return shots.take(_landed(x, y, shots.gap)), family, flows


def _project(frame: Frame, x, y, U) -> np.ndarray:
    """Up to PROJECT_STEPS minimum-norm Gauss-Newton steps of the controls U
    (N, m) onto the target, dU = -J^T (J J^T)^-1 c for the endpoint residual
    c and J = d z_N / d U of _endpoint_jacobian. Stops once c is at rounding
    level."""
    floor = PROJECT_ROUNDING * (1.0 + float(np.max(np.abs(y))))
    for _ in range(PROJECT_STEPS):
        zs, Jb = _endpoint_jacobian(frame, x, U)
        c = zs[-1] - y
        if np.max(np.abs(c)) <= floor:
            break
        w = np.linalg.lstsq(np.einsum("jnm,jkm->nk", Jb, Jb), c, rcond=None)[0]
        U = U - np.einsum("jnm,n->jm", Jb, w)
    return U


def _polish(frame: Frame, x, y, stages, end):
    """L-BFGS on the penalized path energy, from the shot whose flow has the
    (q, p) stage points stages (N, 4, 2n) and end (2n,): its RK4-weighted
    controls, projected onto y (_project), and the multiplier lam = -2 p(1)
    that makes the shot stationary for the energy sum h |u_j|^2. Returns
    the polished controls and that projected start."""
    n, m = frame.n, frame.m
    N = stages.shape[0]
    u = np.einsum("...in,...n->...i",
                  np.stack([f(stages[..., :n]) for f in frame.fields[:m]], axis=-2),
                  stages[..., n:])
    U0 = (u[:, 0] + 2.0 * u[:, 1] + 2.0 * u[:, 2] + u[:, 3]) / 6.0
    lam = -2.0 * end[n:]

    def fun(uflat):
        J, grad, _ = _objective_and_grad(frame, x, y, uflat.reshape(N, m), lam, POLISH_RHO)
        return J, grad.ravel()

    start = _project(frame, x, y, U0)
    sol = minimize(fun, start.ravel(), jac=True, method="L-BFGS-B",
                   options={"maxiter": POLISH_ITERS, "ftol": 1e-10, "gtol": 1e-7})
    return sol.x.reshape(N, m), start


def _fits(frame: Frame, y, zs, cfg: CCConfig) -> bool:
    """Whether the path of states zs stays in the chart (util.in_chart) and
    ends within cfg.endpoint_tol of y."""
    return bool(np.max(np.abs(zs[-1] - y)) <= cfg.endpoint_tol
                and np.all(in_chart(frame.chart_box, zs)))


def _polished(frame: Frame, x, y, shots: _Shots, cfg: CCConfig):
    """Polish the landed shots, shortest first, until one gives a path
    inside the chart box whose endpoint residual is at most
    cfg.endpoint_tol. Returns its controls, or None.

    A shot past its first conjugate point is no local minimum of the
    energy, and L-BFGS can leave it for a shorter path whose endpoint the
    shot's multiplier does not hold; such a result is projected onto y
    (_project) before it is tested. L-BFGS can also leave the chart box
    from a start inside it: when every polish fails, the shortest
    projected start that fits is returned."""
    starts = []
    for k in np.argsort(np.linalg.norm(shots.C[:, :frame.m], axis=1), kind="stable"):
        U, start = _polish(frame, x, y, shots.stages[k], shots.end[k])
        zs, _ = _rollout(frame, x, U)
        if np.max(np.abs(zs[-1] - y)) > cfg.endpoint_tol:
            U = _project(frame, x, y, U)
            zs, _ = _rollout(frame, x, U)
        if _fits(frame, y, zs, cfg):
            return U
        starts.append(start)
    starts.sort(key=lambda U: float(np.sum(np.linalg.norm(U, axis=1))))
    return next((U for U in starts if _fits(frame, y, _rollout(frame, x, U)[0], cfg)), None)


def cc_distance(frame: Frame, x, y, config: Optional[CCConfig] = None,
                return_info: bool = False):
    """Length of the shortest found horizontal path from x to y.

    Normal-geodesic shooting, then one polish of the shortest shot that
    lands: its controls, read off Newton's kept stages and projected onto
    y, start one L-BFGS solve (see the module docstring); should that
    polish miss the target, the next shortest shot is polished. On a
    contact frame Newton first runs on the one start aimed along the
    tangent cone's geodesic (_model_start, with the structure constant c
    of _structure_constant).
    When that shot does not land or its polish misses, and on every other
    frame, the fallback runs: up to nine grid starts, through halved
    targets when none of them lands (see _shoot, with c = 1 off contact
    frames). With return_info, the HorizontalPath also records which
    family the polished shot came from and how many Newton flows ran.
    Upper-bound semantics: the value is the length of an actual
    piecewise-constant path inside the chart box whose endpoint residual is
    at most config.endpoint_tol in chart coordinates.
    NoFeasiblePath is raised when no shot yields one. Shooting misses
    strictly abnormal minimizers, where the value can exceed the distance
    by more than the discretization.

    x and y must be (n,) points of the frame; an endpoint outside its chart
    box raises ChartEscape.
    """
    cfg = config or CCConfig()
    x = as_point(x)
    y = as_point(y)
    n, m = frame.n, frame.m
    if x.shape != (n,) or y.shape != (n,):
        raise ValueError("x has shape %r and y has shape %r; the frame needs (%d,)"
                         % (x.shape, y.shape, n))
    if m < 1:
        raise ValueError("frame has no degree-1 fields")
    if cfg.segments < 1:
        raise ValueError("config needs segments >= 1")
    if not np.all(in_chart(frame.chart_box, np.stack([x, y]))):
        raise ChartEscape("endpoint outside the chart box")
    N = cfg.segments

    if float(np.max(np.abs(y - x))) == 0.0:
        path = HorizontalPath(controls=np.zeros((N, m)), family="model", flows=0)
        return (0.0, path) if return_info else 0.0

    rhs = frame.hamiltonian
    Minv = np.linalg.inv(frame.eval_matrix(x))
    c = _structure_constant(frame, x, Minv)
    U, flows = None, 0
    if c is not None:
        shots, flows = _newton(frame, rhs, x, y, Minv,
                               _model_start((y - x) @ Minv.T, c)[None], N)
        family = "model"
        U = _polished(frame, x, y, shots.take(_landed(x, y, shots.gap)), cfg)
    if U is None:
        shots, family, k = _shoot(frame, rhs, x, y, Minv, 1.0 if c is None else c, N)
        U, flows = _polished(frame, x, y, shots, cfg), flows + k
    if U is None:
        raise NoFeasiblePath("%d shots landed, and none polished to a path inside the chart "
                             "box within endpoint residual %.3g"
                             % (len(shots.C), cfg.endpoint_tol))
    length = float(np.sum(np.linalg.norm(U, axis=1))) / N
    path = HorizontalPath(controls=U, family=family, flows=flows)
    return (length, path) if return_info else length


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
    that lie away from the origin. A box with a non-finite bound or an axis
    with lo >= hi has no such draw, and raises ValueError."""
    n = frame.n
    box = np.asarray(coeff_box, dtype=float)
    if box.ndim == 0:
        box = symmetric_box(n, box)
    if box.shape != (n, 2):
        raise ValueError("coeff_box must be a scalar halfwidth or an (n, 2) array")
    if not (np.all(np.isfinite(box)) and np.all(box[:, 0] < box[:, 1])):
        raise ValueError("coeff_box needs finite bounds and lo < hi on every axis")
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
    once per schedule; it defaults to the CC solver (cc_distance with
    LIGHT_CC) on the frame. The plateau verdict takes the absolute noise floor of one cc
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
                  injectivity_radius: float = 0.5, ball_box=None,
                  working_radius: float = 0.3) -> DilatationStructure:
    """Dilatation structure of an adapted frame under a CC-type metric:

        dil(eps, x, y) = exp(sum eps^deg_i a_i X_i)(x),  a = chart coords of y

    dil broadcasts a whole schedule of scales (see axioms.DilatationStructure):
    one batched chart inverse of the (x, y) stacks as given, then one flow
    of their coefficients at every scale, so a (P, n) sample along k scales
    costs P chart-inverse rows. cc is the handle's metric on point stacks
    (see geometry.MetricSpaceHandle), used as it is: heisenberg_cc, or
    _light_cc(frame) row by row. The chart
    is the frame's box, or [-3, 3]^n when it declares none; the domain
    radius is 1.2, and the structure takes the frame's name.
    """
    n = frame.n
    if frame.chart_box is not None:
        box = np.asarray(frame.chart_box, dtype=float)
    else:
        box = symmetric_box(n, 3.0)

    def dil(eps, x, y):
        # the chart coordinates of y do not depend on eps: the inverse runs on
        # the stacks as given, and the scale axis first appears at the flow
        a = chart_inverse(frame, x, y, steps=steps, injectivity_radius=injectivity_radius)
        return flow_exp(frame, frame.scale_coeffs(eps, a), x, steps=steps)

    space = MetricSpaceHandle(dim=n, distance=cc, chart_box=box, ball_box=ball_box)
    return DilatationStructure(space=space, dil=dil, name=frame.name,
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
    whole segment. The chart is affine in the coefficients, so the chart
    inverse's exact first Newton step is the answer, and every row leaves
    Newton at rounding under the default tolerance.
    """
    frame, _ = heisenberg()
    # the exponential chart of this group is a global diffeomorphism, so the
    # Newton guard can extend to the chart box
    return sr_dilatation(frame, heisenberg_cc, steps=steps, injectivity_radius=2.0,
                         ball_box=heisenberg_ball_box)


def warped_heisenberg_structure(steps: int = 256) -> DilatationStructure:
    frame, cc, _ = warped_heisenberg()
    # the warp is a global triangular diffeomorphism, so the chart stays
    # injective across the box
    return sr_dilatation(frame, cc, steps=steps, injectivity_radius=2.0,
                         working_radius=0.25)


def structure_from_manifest(doc: dict, steps: int = 256) -> DilatationStructure:
    """Dilatation structure from a JSON frame manifest (metric: cc_distance
    with LIGHT_CC)."""
    frame = frame_from_manifest(doc)
    return sr_dilatation(frame, _light_cc(frame), steps=steps)
