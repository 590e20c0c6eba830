"""Numerical harness for dilatation structures.

A dilatation structure is a metric space together with a family of point-based
contractions dil(eps, x, y): for each base point x, dil(eps, x, .) shrinks a
neighbourhood of x by the factor eps. The harness checks the defining axioms
on sampled witnesses and extracts the tangent-space data (the rescaled-limit
distance d^x, the difference / sum / inverse operations of the tangent group)
by extrapolating finite-scale quantities to eps -> 0:

    d^x(u, v)      = lim (1/eps) d(dil(eps,x,u), dil(eps,x,v))
    diff(u, v)     = lim dil(1/eps, dil(eps,x,u), dil(eps,x,v))
    add(u, v)      = lim dil(1/eps, x, dil(eps, dil(eps,x,u), v))
    neg(u)         = diff(u, x)

Point-mismatch residuals are measured in chart coordinates; quantities that
are about the metric itself (contraction decay, rescaled-distance limits,
profile snapshots) use the structure's own distance.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import DomainViolation, SamplingExhausted
from .geometry import FinitePointedSpace, MetricSpaceHandle, distances, pairwise, sample_ball
from .gromov import SIZE_LIMIT, gh_pointed_exact, _sample_density
from .limits import LimitEstimate, _table_row, decays_to_zero, richardson_limit
from .util import as_point, as_points, check_schedule, halving_schedule


@dataclass(frozen=True)
class DilatationStructure:
    """Metric space plus dilatations.

    dil(eps, x, y) must accept any eps > 0 (eps > 1 gives the inverse maps),
    fix x, and be the identity at eps = 1; a dil marked @broadcasting also
    takes a whole schedule of scales in one call. domain_radius is the
    declared bound A of the axioms' domains; working_radius is the
    "sufficiently close" radius within which witnesses are drawn.
    """

    space: MetricSpaceHandle
    dil: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    name: str = ""
    domain_radius: float = 2.0      # A > 1
    working_radius: float = 1.0

    def __post_init__(self):
        if not (self.domain_radius > 1.0):
            raise ValueError("domain radius must exceed 1")

    @property
    def probe_radius(self) -> float:
        """Default radius for limit-operation probes (half the working ball)."""
        return 0.5 * self.working_radius


@dataclass
class CheckReport:
    """Outcome of one named check, JSON/CSV serializable."""

    check: str
    passed: bool
    max_residual: float
    tolerance: float
    converged: Optional[bool] = None
    failures: List[dict] = field(default_factory=list)
    table: List[dict] = field(default_factory=list)
    notes: str = ""

    def to_jsonable(self) -> dict:
        out = {
            "check": self.check,
            "passed": bool(self.passed),
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "failures": self.failures,
            "table": self.table,
            "notes": self.notes,
        }
        if self.converged is not None:
            out["converged"] = bool(self.converged)
        return out

    def to_csv(self) -> str:
        """Fixed-column table export: eps, value, diff, extrapolated, error."""
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["eps", "value", "diff", "extrapolated", "error"])
        for row in self.table:
            w.writerow([row.get("eps", ""), row.get("value", ""), row.get("diff", ""),
                        row.get("extrapolated", ""), row.get("error", "")])
        return buf.getvalue()


def report_to_json(reports: Sequence[CheckReport], meta: Optional[dict] = None) -> str:
    doc = {"schema": 1, "checks": [r.to_jsonable() for r in reports]}
    if meta:
        doc.update(meta)
    return json.dumps(doc, sort_keys=True, indent=2)


def broadcasting(dil):
    """Mark dil(eps, x, y) as broadcasting over a schedule of scales.

    A marked dil takes eps of shape (k,) and points x, y of shape (n,) or
    (k, n), and returns the (k, n) stack whose row r equals
    dil(eps[r], x_r, y_r) to the last bit; a float eps with (n,) points
    still gives one (n,) point. The harness then evaluates a schedule in one
    call. An unmarked dil is called once per scale, with a float and two
    (n,) points. The mark lives on the function, so a structure copied with
    dataclasses.replace(ds, dil=other) takes the mark of its new dil.
    """
    dil.broadcasts = True
    return dil


def _dil_rows(ds, eps, x, y) -> np.ndarray:
    """(k, n) stack of dil(eps[r], x_r, y_r) for x, y of shape (n,) or (k, n):
    one call to a broadcasting dil, a per-scale loop over any other."""
    eps = np.asarray(eps, dtype=float)
    if getattr(ds.dil, "broadcasts", False):
        return as_points(ds.dil(eps, x, y))
    xs = x if np.ndim(x) == 2 else [x] * eps.size
    ys = y if np.ndim(y) == 2 else [y] * eps.size
    return np.array([as_point(ds.dil(float(e), p, q)) for e, p, q in zip(eps, xs, ys)])


def _dil_schedule(ds, eps, x, pts) -> np.ndarray:
    """(P, k, n) images dil(eps[s], x_i, y_is) of P points at k scales in one
    _dil_rows call. x is one base point (n,) or one per point (P, n); pts is
    (P, n), every point at every scale, or (P, k, n), one point per scale."""
    pts = np.asarray(pts, dtype=float)
    P, k = len(pts), eps.size
    xs = np.repeat(x, k, axis=0) if np.ndim(x) == 2 else x
    ys = pts.reshape(P * k, -1) if pts.ndim == 3 else np.repeat(pts, k, axis=0)
    return _dil_rows(ds, np.tile(eps, P), xs, ys).reshape(P, k, -1)


def _gap(a, b):
    """Chart gap max |a - b| over the coordinate axis, as (nested) floats."""
    return np.max(np.abs(a - b), axis=-1).tolist()


def _sample_stacks(samples):
    """(P, n) stacks of the first and of the second points of P sample pairs,
    and their (P,) relative-tolerance scales: 1 + each pair's largest
    coordinate."""
    pairs = [(as_point(x), as_point(y)) for x, y in samples]
    if not pairs:
        raise ValueError("need at least one sample pair")
    X, Y = (np.array(col) for col in zip(*pairs))
    return X, Y, 1.0 + np.max(np.abs(np.hstack([X, Y])), axis=1)


# ---------------------------------------------------------------------------
# A0 / A1: domains, identity, fixed point, invertibility, contraction


def check_A0_A1(ds: DilatationStructure, samples: Sequence, eps_schedule,
                tol: float = 1e-9) -> CheckReport:
    """Identity at eps=1, fixed point, invertibility round-trip, contraction
    of d(x, dil(eps,x,y)) to zero along the schedule, small-perturbation
    continuity, and the domain witness d(x, dil(1/eps, x, y_eps)) <= A for
    ball points y_eps.

    samples: list of (x, y) point pairs with y in the working ball of x.
    """
    eps = check_schedule(eps_schedule)
    X, Y, sc = _sample_stacks(samples)
    bump = 1e-6
    # one stack for the identity at 1, the images along the schedule and the
    # continuity probe at eps[0]: y moved by bump along the first axis, whose
    # reference is the first image
    ys = np.repeat(Y[:, None], eps.size + 2, axis=1)
    ys[:, -1] += bump * np.eye(Y.shape[1])[0]
    imgs = _dil_schedule(ds, np.concatenate([[1.0], eps, eps[:1]]), X, ys)
    y_eps = imgs[:, 1:-1]
    fixed = _dil_schedule(ds, eps, X, X)
    back = _dil_schedule(ds, 1.0 / eps, X, y_eps)
    # d(x, y), then the decay d(x, dil(eps,x,y)) along the schedule
    dist = distances(ds.space, X[:, None], np.concatenate([Y[:, None], y_eps], axis=1))
    # domain witness: the expanded ball points stay inside B(x, A)
    d_back = distances(ds.space, X[:, None], back).tolist()

    r_id, r_cont = _gap(imgs[:, 0], Y), _gap(imgs[:, -1], y_eps[:, 0])
    r_fix, r_inv = _gap(fixed, X[:, None]), _gap(back, Y[:, None])
    # contraction trend: comparable to first order in eps, heading to 0
    floor = 1e-12 * sc
    d0, decay = dist[:, 0], dist[:, 1:]
    trend = (np.all(decay[:, 1:] <= decay[:, :-1] * 1.01 + floor[:, None], axis=1)
             & (decay[:, -1] <= np.maximum(50.0 * d0 * eps[-1] / eps[0], floor)))
    stalled, decay = ((d0 > floor) & ~trend).tolist(), decay.tolist()

    failures = []
    for i, lim in enumerate((tol * sc).tolist()):
        if r_id[i] > floor[i]:
            failures.append({"sample": i, "kind": "identity-at-1", "residual": r_id[i]})
        for s, e in enumerate(eps.tolist()):
            if r_fix[i][s] > lim:
                failures.append({"sample": i, "kind": "fixed-point", "eps": e,
                                 "residual": r_fix[i][s]})
            if r_inv[i][s] > lim:
                failures.append({"sample": i, "kind": "invertibility", "eps": e,
                                 "residual": r_inv[i][s]})
            if d_back[i][s] > ds.domain_radius * (1.0 + 1e-9):
                failures.append({"sample": i, "kind": "domain-witness", "eps": e,
                                 "distance": d_back[i][s]})
        if stalled[i]:
            failures.append({"sample": i, "kind": "contraction-trend", "decay": decay[i]})
        # continuity probe at a fixed small perturbation of y
        if r_cont[i] > 100.0 * bump * sc[i]:
            failures.append({"sample": i, "kind": "continuity-probe", "residual": r_cont[i]})

    table = [_table_row(e, decay[0][k], diff="" if k == 0 else decay[0][k] - decay[0][k - 1])
             for k, e in enumerate(eps.tolist())]
    return CheckReport(check="a0a1", passed=not failures,
                       max_residual=max(map(max, [r_id] + r_fix + r_inv)),
                       tolerance=tol, failures=failures[:20], table=table,
                       notes="%d samples, %d scales" % (len(samples), len(eps)))


def check_A2(ds: DilatationStructure, samples: Sequence, pairs: Sequence,
             tol: float = 1e-9) -> CheckReport:
    """Composition law dil(eps, x, dil(mu, x, u)) = dil(eps*mu, x, u).

    samples: list of (x, u); pairs: list of (eps, mu) scale pairs. Residuals
    are chart-coordinate gaps relative to the coordinate scale.
    """
    X, U, sc = _sample_stacks(samples)
    es = np.array([float(e) for e, _ in pairs])
    ms = np.array([float(m) for _, m in pairs])
    res = _gap(_dil_schedule(ds, es, X, _dil_schedule(ds, ms, X, U)),
               _dil_schedule(ds, es * ms, X, U))
    scales = list(zip(es.tolist(), ms.tolist()))
    failures = [{"sample": i, "kind": "composition", "eps": e, "mu": m, "residual": r}
                for i, (row, lim) in enumerate(zip(res, (tol * sc).tolist()))
                for (e, m), r in zip(scales, row) if r > lim]
    return CheckReport(check="a2", passed=not failures, max_residual=max(map(max, res)),
                       tolerance=tol, failures=failures[:20],
                       table=[_table_row(e * m, r) for (e, m), r in zip(scales, res[0])],
                       notes="%d samples x %d scale pairs" % (len(samples), len(pairs)))


# ---------------------------------------------------------------------------
# A3 / A4: rescaled-distance limit and tangent operations


def _rescaled(ds, eps, x, pts):
    """(k, P, P) stack of the matrices (1/eps) d(dil(eps,x,p_i), dil(eps,x,p_j))
    of the (P, n) points pts along the schedule: one _dil_schedule call and
    one distances call."""
    return pairwise(ds.space, _dil_schedule(ds, eps, x, pts).swapaxes(0, 1)) / eps[:, None, None]


def _dx_sequences(ds, x, U, V, eps):
    """(R, k) stack of (1/eps) d(dil(eps,x,u_r), dil(eps,x,v_r)) along the
    schedule for the (R, n) points U and V, either of which may be one (n,)
    point: one _dil_schedule call and one distances call."""
    U, V = np.atleast_2d(U), np.atleast_2d(V)
    imgs = _dil_schedule(ds, eps, x, np.concatenate([U, V]))
    return distances(ds.space, imgs[:len(U)], imgs[len(U):]) / eps


def _in_chart(ds, eps, what, *stacks):
    """Raise DomainViolation at the first eps where a row of any (k, n) stack
    lies outside the chart box."""
    out = ~np.all([ds.space.contains(s) for s in stacks], axis=0)
    if out.any():
        raise DomainViolation("%s point left the chart at eps=%g" % (what, eps[np.argmax(out)]))


def _delta_points(ds, x, u, v, eps):
    """dil(1/eps, dil(eps,x,u), dil(eps,x,v)) along the schedule."""
    w1, w2 = _dil_schedule(ds, eps, x, [u, v])
    out = _dil_rows(ds, 1.0 / eps, w1, w2)
    _in_chart(ds, eps, "difference-operation", out, w1)
    return out


def _sigma_points(ds, x, u, v, eps):
    """dil(1/eps, x, dil(eps, dil(eps,x,u), v)) along the schedule."""
    q = _dil_rows(ds, eps, _dil_rows(ds, eps, x, u), v)
    out = _dil_rows(ds, 1.0 / eps, x, q)
    _in_chart(ds, eps, "sum-operation", out, q)
    return out


_SEQUENCES = {"dx": lambda ds, x, u, v, eps: _dx_sequences(ds, x, u, v, eps)[0],
              "delta": _delta_points, "sigma": _sigma_points}


class TangentData:
    """Tangent-space operations at x, extrapolated along eps on demand and
    memoised. limit(tag, u, v) is the LimitEstimate behind dx ("dx"), delta_op
    ("delta") and sigma_op ("sigma") at (u, v); limit_error and converged
    summarise the limits that estimate_dx or derive_sigma_inv checked."""

    def __init__(self, ds: DilatationStructure, x, eps):
        self.ds = ds
        self.eps = check_schedule(eps)
        self.center = as_point(x)
        self.limit_error = 0.0
        self.converged = True
        self.degenerate = False
        self._memo = {}

    def _memoised(self, tag, u, v, values) -> LimitEstimate:
        """The estimate for (tag, u, v), extrapolated from values() on a miss.
        The memo's key rule: a dx entry is stored under both orders (d^x is a
        distance), a delta or sigma entry under its ordered pair."""
        key = (tag, u.tobytes(), v.tobytes())
        if key not in self._memo:
            self._memo[key] = richardson_limit(self.eps, values())
            if tag == "dx":
                self._memo[(tag, v.tobytes(), u.tobytes())] = self._memo[key]
        return self._memo[key]

    def limit(self, tag, u, v) -> LimitEstimate:
        u, v = as_point(u), as_point(v)
        return self._memoised(tag, u, v,
                              lambda: _SEQUENCES[tag](self.ds, self.center, u, v, self.eps))

    def dx(self, u, v) -> float:
        return float(self.limit("dx", u, v).extrapolated)

    def delta_op(self, u, v) -> np.ndarray:
        return np.array(self.limit("delta", u, v).extrapolated, dtype=float)

    def sigma_op(self, u, v) -> np.ndarray:
        return np.array(self.limit("sigma", u, v).extrapolated, dtype=float)

    def inv_op(self, u) -> np.ndarray:
        return self.delta_op(u, self.center)

    def consistency_residual(self, u, v) -> float:
        """Chart gap of diff(u, add(u, v)) against v (group cancellation)."""
        s = self.sigma_op(u, v)
        return float(np.max(np.abs(self.delta_op(u, s) - as_point(v))))

    def dx_rows(self, U, V, seqs=None) -> list:
        """The d^x estimates of the pairs (U[r], V[r]) of two (R, n) stacks,
        each memoised: every pair's sequence comes from one _dx_sequences
        call, or from seqs, the (R, k) sequences already measured."""
        if seqs is None:
            seqs = _dx_sequences(self.ds, self.center, U, V, self.eps)
        return [self._memoised("dx", u, v, lambda s=s: s) for u, v, s in zip(U, V, seqs)]


def _ball_snapshots(td, pts, mus):
    """Two read-outs of the rescaled distances on the sample pts: the d^x
    matrix, extrapolated along td.eps, with its estimates in pair order, and
    the (len(mus), P, P) stack of (1/mu) d(dil(mu,x,p_i), dil(mu,x,p_j)).
    When the two schedules coincide, both come from one _rescaled stack."""
    ds, x = td.ds, td.center
    pts = np.asarray(pts, dtype=float)
    seqs = _rescaled(ds, td.eps, x, pts)
    i, j = np.triu_indices(len(pts), 1)
    ests = td.dx_rows(pts[i], pts[j], seqs[:, i, j].T)
    dxm = np.zeros(seqs.shape[1:])
    dxm[i, j] = dxm[j, i] = [float(est.extrapolated) for est in ests]
    snaps = seqs if np.array_equal(mus, td.eps) else _rescaled(ds, mus, x, pts)
    return dxm, snaps, ests


def estimate_dx(ds: DilatationStructure, x, sample: Sequence, eps_schedule):
    """Rescaled-limit distance d^x on all pairs from sample.

    Returns (TangentData, worst LimitEstimate). The TangentData's operations
    extrapolate fresh pairs on demand (results memoised); its degenerate flag
    is set when some pair collapses (dx below 1e-6 while the original
    distance exceeds 1e-2).
    """
    td = TangentData(ds, x, eps_schedule)
    pts = np.array([as_point(p) for p in sample])
    if len(pts) < 2:
        raise ValueError("need at least two sample points")
    dxm, _, ests = _ball_snapshots(td, pts, td.eps)
    worst = max(ests, key=lambda est: est.error)
    td.limit_error = float(worst.error)
    td.converged = all(est.converged for est in ests)
    td.degenerate = bool(np.any((dxm < 1e-6) & (pairwise(ds.space, pts) > 1e-2)))
    return td, worst


def estimate_delta(ds: DilatationStructure, x, u, v, eps_schedule) -> LimitEstimate:
    """Vector limit of the difference operation at x applied to (u, v)."""
    return TangentData(ds, x, eps_schedule).limit("delta", u, v)


def derive_sigma_inv(ds: DilatationStructure, x, eps_schedule) -> TangentData:
    """TangentData whose error bar covers one probe pair.

    The sum operation inverts the difference on the second slot; the
    constructor spot-checks diff(u, add(u, v)) = v on a probe pair and folds
    the residual into limit_error / converged.
    """
    td = TangentData(ds, x, eps_schedule)
    x = td.center
    # generic directions (axis-aligned probes can hide curvature terms
    # and make the folded error unrepresentative)
    r = ds.probe_radius
    rng = np.random.RandomState(11)
    d1 = rng.standard_normal(len(x))
    d2 = rng.standard_normal(len(x))
    d1 /= np.linalg.norm(d1)
    d2 /= np.linalg.norm(d2)
    u, v = x + 0.9 * r * d1, x - 0.75 * r * d2
    ests = [td.limit("delta", u, v), td.limit("sigma", u, v)]
    td.limit_error = max([float(est.error) for est in ests] + [
        td.consistency_residual(u, v),
        # neutral element and self-difference identities
        float(np.max(np.abs(td.sigma_op(x, v) - v))),
        float(np.max(np.abs(td.delta_op(u, u) - x)))])
    td.converged = all(est.converged for est in ests)
    return td


# ---------------------------------------------------------------------------
# Tangent-group structure (conical-group checks)


def check_conical_group(td: TangentData, ds: DilatationStructure, samples: Sequence,
                        mus: Sequence, tol_floor: float = 1e-9) -> CheckReport:
    """Group-like behaviour of the extrapolated operations:

      associativity   add(u, add(v, w)) = add(add(u, v), w)
      left-invariance d^x(add(w,u), add(w,v)) = d^x(u, v)
      automorphism    dil(mu, x, add(u,v)) = add(dil(mu,x,u), dil(mu,x,v))
      cone property   d^x(u, v) = (1/mu) d^x(dil(mu,x,u), dil(mu,x,v))

    samples: list of points near x (consecutive triples are used).
    Tolerance adapts to the tangent data's own limit error: ten times it,
    but at least tol_floor. Tangent data with unconverged limits certifies
    nothing: the report is then inconclusive (converged=False).
    """
    pts = [as_point(p) for p in samples]
    if len(pts) < 3:
        raise ValueError("need at least three sample points")
    if not td.converged:
        return CheckReport(check="conical-group", passed=False,
                           max_residual=float(td.limit_error), tolerance=tol_floor,
                           converged=False, notes="tangent limits unconverged")
    mus = np.asarray(mus, dtype=float)
    tol = max(tol_floor, 10.0 * td.limit_error)
    add = td.sigma_op
    triples = [pts[i:i + 3] for i in range(len(pts) - 2)]
    sums = [add(u, v) for u, v, _ in triples]
    # every triple's u, v and their sum dilated at every mu in one call
    stack = [p for (u, v, _), s in zip(triples, sums) for p in (u, v, s)]
    imgs = _dil_schedule(ds, mus, td.center, stack).reshape(len(triples), 3, mus.size, -1)
    r_assoc = [_gap(add(u, add(v, w)), add(s, w)) for (u, v, w), s in zip(triples, sums)]
    # d^x of u, v, of their left translates by w and of their images at every
    # mu, each set in one d^x batch
    dx = lambda U, V: np.array([float(est.extrapolated) for est in td.dx_rows(U, V)])
    U, V, W = (np.array(col) for col in zip(*triples))
    lim = (tol * (1.0 + np.max(np.abs(np.hstack([U, V, W])), axis=1))).tolist()
    d_uv = dx(U, V)
    r_left = np.abs(dx([add(w, u) for u, w in zip(U, W)], [add(w, v) for v, w in zip(V, W)])
                    - d_uv).tolist()
    # (triples, mus) residuals of the automorphism and of the cone property
    r_auto = [[_gap(s, add(a, b)) for a, b, s in zip(*im)] for im in imgs]
    A, B = (imgs[:, r].reshape(-1, imgs.shape[-1]) for r in (0, 1))
    r_cone = np.abs(d_uv[:, None] - dx(A, B).reshape(len(triples), -1) / mus).tolist()
    failures = []
    for t in range(len(triples)):
        found = [("associativity", {}, r_assoc[t]), ("left-invariance", {}, r_left[t])]
        for k, mu in enumerate(mus.tolist()):
            found += [("automorphism", {"mu": mu}, r_auto[t][k]),
                      ("cone-property", {"mu": mu}, r_cone[t][k])]
        failures += [dict(triple=t, kind=kind, **at, residual=r)
                     for kind, at, r in found if r > lim[t]]
    table = [_table_row(mu, max(a, c), error=float(td.limit_error))
             for mu, a, c in zip(mus.tolist(), r_auto[0], r_cone[0])]
    return CheckReport(check="conical-group", passed=not failures,
                       max_residual=max(map(max, [r_assoc, r_left] + r_auto + r_cone)),
                       tolerance=tol, converged=td.converged, failures=failures[:20],
                       table=table, notes="%d triples" % len(triples))


# ---------------------------------------------------------------------------
# Tangent-cone sup-estimate and profile-convergence theorem


def check_tangent_cone(ds: DilatationStructure, x, eps_schedule, count: int,
                       seed: int = 0) -> LimitEstimate:
    """A3's uniform gap: sup over pairs in B(x, eps) of |d(u,v) - d^x(u,v)| / eps.

    One sample p_i of B(x, eps[0]) is dilated by mu = eps / eps[0]: by A2 the
    images sample B(x, eps), and by the cone property d^x scales by mu on them.
    So the value at eps is max |M - D| / eps[0], with M = (1/mu) d(dil(mu,x,p_i),
    dil(mu,x,p_j)) and D = d^x(p_i, p_j) extrapolated once along a 12-scale
    halving schedule. converged: the values decay (limits.decays_to_zero) to a
    quarter of the first one, or to the worst d^x error over eps[0], which is
    all an exact cone can reach.
    """
    eps = check_schedule(eps_schedule)
    td = TangentData(ds, x, halving_schedule(0.5, 12))
    pts = sample_ball(ds.space, td.center, float(eps[0]), count, seed=seed)
    dxm, snaps, ests = _ball_snapshots(td, pts, eps / eps[0])
    dx_error = max((float(est.error) for est in ests), default=0.0)
    vals = np.max(np.abs(snaps - dxm), axis=(1, 2)) / eps[0]
    est = richardson_limit(eps, vals)
    # the quantity is a sup of nonnegative gaps: converged means trending to 0
    est.converged = decays_to_zero(vals, max(0.25 * vals[0], dx_error / eps[0], 1e-10))
    return est


def check_profile_theorem(ds: DilatationStructure, x, eps_schedule, mu_schedule,
                          count: int, seed: int = 0) -> CheckReport:
    """Compare rescaled-ball snapshots against the tangent-cone snapshot.

    On a fixed sample of the unit d^x-ball at x, _ball_snapshots gives the d^x
    matrix and, per mu, the (1/mu) d(dil(mu,x,u_i), dil(mu,x,u_j)) matrix; the
    pointed GH gap between them must decay to zero (limits.decays_to_zero)
    within the sample density. Raises SamplingExhausted when fewer than three
    sample points lie in the d^x-ball.
    """
    td = TangentData(ds, x, eps_schedule)
    mus = check_schedule(mu_schedule)
    x = td.center
    count = min(count, SIZE_LIMIT)
    raw = sample_ball(ds.space, x, ds.working_radius, max(24, 4 * count), seed=seed)
    # d^x(x, p) of every raw point from one dilation and one metric call; the
    # limits are taken until the sample is full
    pts = [x]
    for p, seq in zip(raw, _dx_sequences(ds, x, x, raw, td.eps)):
        if td.dx_rows([x], [p], [seq])[0].extrapolated <= ds.working_radius:
            pts.append(as_point(p))
        if len(pts) == count:
            break
    if len(pts) < 3:
        raise SamplingExhausted("tangent sample too thin for a snapshot comparison")
    dmat0, snaps, _ = _ball_snapshots(td, pts, mus)
    base_fs = FinitePointedSpace(dmat=dmat0, base=0, slack=1e-5)
    density = _sample_density(dmat0)

    gaps = [gh_pointed_exact(FinitePointedSpace(dmat=m, base=0, slack=1e-9), base_fs)
            for m in snaps]
    table = [_table_row(float(mu), g, error=float(density)) for mu, g in zip(mus, gaps)]
    passed = decays_to_zero(gaps, max(density, 1e-10))
    return CheckReport(check="profile-theorem", passed=passed,
                       max_residual=float(gaps[-1]), tolerance=float(density),
                       converged=passed, table=table,
                       notes="%d-point snapshots, density %.3g" % (len(pts), density))
