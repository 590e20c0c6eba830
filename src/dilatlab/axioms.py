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
import functools
import io
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import DomainViolation, SamplingExhausted
from .geometry import FinitePointedSpace, MetricSpaceHandle, distances, pairwise, sample_ball
from .gromov import SIZE_LIMIT, ProfileCurve, gh_pointed_exact, _sample_density
from .limits import LimitEstimate, _table_row, decay_failure, decays_to_zero, richardson_limit
from .util import as_point, as_points, check_schedule, halving_schedule


@dataclass(frozen=True)
class DilatationStructure:
    """Metric space plus dilatations.

    dil(eps, x, y) must accept any eps > 0 (eps > 1 gives the inverse maps),
    fix x, and be the identity at eps = 1. It broadcasts: eps is a float or
    a (k,) schedule, x and y are (..., n) stacks that broadcast against
    eps[:, None] ((P, 1, n) points give the (P, k, n) stack of every point
    at every scale), and each row of the result equals the scalar call
    dil(float(eps[s]), x_row, y_row) to the last bit. domain_radius
    is the declared bound A of the axioms' domains; working_radius is the
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

    @property
    def verdict(self) -> str:
        """"pass", "FAIL" (a definite failure) or "inconclusive" (a limit
        behind the check did not converge, so its residual certifies
        nothing either way)."""
        if self.converged is not None and not self.converged:
            return "inconclusive"
        return "pass" if self.passed else "FAIL"

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


def _dil_schedule(ds, eps, x, pts) -> np.ndarray:
    """(P, k, n) images dil(eps[s], x_is, y_is) of P points at k scales in one
    dil call. x is one base point (n,), one per point (P, n) or one per point
    and scale (P, k, n); pts is (P, n), every point at every scale, or
    (P, k, n), one point per scale. (P, n) stacks go in as (P, 1, n)."""
    x, pts = (a[:, None] if a.ndim == 2 else a
              for a in (np.asarray(x, dtype=float), np.asarray(pts, dtype=float)))
    return as_points(ds.dil(eps, x, pts))


def _scales(values, name) -> np.ndarray:
    """values as a float array, or a ValueError naming the argument unless
    they are nonempty, finite and > 0."""
    s = np.asarray(values, dtype=float)
    if s.size == 0 or not (np.all(s > 0.0) and np.all(np.isfinite(s))):
        raise ValueError("%s must be nonempty, finite and > 0" % name)
    return s


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
    Each failing (sample, kind) gives one failure record, the first 20 in
    sample order; a per-scale kind (fixed-point, invertibility,
    domain-witness) reports its worst scale eps and the number of scales
    that fail it.
    """
    eps = check_schedule(eps_schedule)
    X, Y, sc = _sample_stacks(samples)
    bump = 1e-6
    # one (P, 2, k + 1, n) stack for the identity at 1, the images along the
    # schedule and the continuity probe at eps[0]: y moved by bump along the
    # first axis, whose reference is the first image
    ys = np.stack([Y, Y + bump * np.eye(Y.shape[1])[0]], axis=1)[:, :, None]
    imgs = as_points(ds.dil(np.concatenate([[1.0], eps]), X[:, None, None], ys))
    y_eps = imgs[:, 0, 1:]
    fixed = _dil_schedule(ds, eps, X, X)
    back = _dil_schedule(ds, 1.0 / eps, X, y_eps)
    # d(x, y), then the decay d(x, dil(eps,x,y)) along the schedule
    dist = distances(ds.space, X[:, None], np.concatenate([Y[:, None], y_eps], axis=1))
    # domain witness: the expanded ball points stay inside B(x, A)
    d_back = distances(ds.space, X[:, None], back).tolist()

    r_id, r_cont = _gap(imgs[:, 0, 0], Y), _gap(imgs[:, 1, 1], y_eps[:, 0])
    r_fix, r_inv = _gap(fixed, X[:, None]), _gap(back, Y[:, None])
    # contraction trend: comparable to first order in eps, heading to 0
    floor = 1e-12 * sc
    d0, decay = dist[:, 0], dist[:, 1:]
    trend = (np.all(decay[:, 1:] <= decay[:, :-1] * 1.01 + floor[:, None], axis=1)
             & (decay[:, -1] <= np.maximum(50.0 * d0 * eps[-1] / eps[0], floor)))
    stalled, decay = ((d0 > floor) & ~trend).tolist(), decay.tolist()

    failures, eps_list, radius = [], eps.tolist(), ds.domain_radius * (1.0 + 1e-9)
    for i, lim in enumerate((tol * sc).tolist()):
        if r_id[i] > floor[i]:
            failures.append({"sample": i, "kind": "identity-at-1", "residual": r_id[i]})
        for kind, key, vals, bound in (("fixed-point", "residual", r_fix[i], lim),
                                       ("invertibility", "residual", r_inv[i], lim),
                                       ("domain-witness", "distance", d_back[i], radius)):
            bad = [s for s, v in enumerate(vals) if v > bound]
            if bad:
                s = max(bad, key=vals.__getitem__)
                failures.append({"sample": i, "kind": kind, "eps": eps_list[s], key: vals[s],
                                 "scales": len(bad)})
        if stalled[i]:
            failures.append({"sample": i, "kind": "contraction-trend", "decay": decay[i]})
        # continuity probe at a fixed small perturbation of y
        if r_cont[i] > 100.0 * bump * sc[i]:
            failures.append({"sample": i, "kind": "continuity-probe", "residual": r_cont[i]})

    table = [_table_row(e, decay[0][k], diff="" if k == 0 else decay[0][k] - decay[0][k - 1])
             for k, e in enumerate(eps_list)]
    return CheckReport(check="a0a1", passed=not failures,
                       max_residual=max(map(max, [r_id] + r_fix + r_inv)),
                       tolerance=tol, failures=failures[:20], table=table,
                       notes="%d samples, %d scales" % (len(samples), len(eps)))


def check_A2(ds: DilatationStructure, samples: Sequence, pairs: Sequence,
             tol: float = 1e-9) -> CheckReport:
    """Composition law dil(eps, x, dil(mu, x, u)) = dil(eps*mu, x, u).

    samples: list of (x, u); pairs: nonempty list of (eps, mu) scale pairs,
    each finite and > 0. Residuals are chart-coordinate gaps relative to the
    coordinate scale.
    """
    es, ms = np.array(_scales(pairs, "pairs").T)
    X, U, sc = _sample_stacks(samples)
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


def _sequences(ds, tag, x, U, V, eps) -> np.ndarray:
    """The finite-scale sequences behind tag at the R pairs (U[r], V[r]) of
    two (R, n) stacks (for "dx", U may be one (1, n) row paired with every
    row of V), with one dil call per role:

      "dx"     (R, k) rescaled distances (1/eps) d(dil(eps,x,u), dil(eps,x,v))
      "delta"  (R, k, n) points dil(1/eps, dil(eps,x,u), dil(eps,x,v))
      "sigma"  (R, k, n) points dil(1/eps, x, dil(eps, dil(eps,x,u), v))

    A delta or sigma batch raises DomainViolation for its first pair that
    leaves the chart, at that pair's first scale off it.
    """
    if tag == "sigma":
        base = _dil_schedule(ds, eps, _dil_schedule(ds, eps, x, U), V)
        out, what = _dil_schedule(ds, 1.0 / eps, x, base), "sum-operation"
    else:
        imgs = _dil_schedule(ds, eps, x, np.concatenate([U, V]))
        base, other = imgs[:len(U)], imgs[len(U):]
        if tag == "dx":
            return distances(ds.space, base, other) / eps
        out, what = _dil_schedule(ds, 1.0 / eps, base, other), "difference-operation"
    off = ~(ds.space.contains(out) & ds.space.contains(base))
    if off.any():
        r = np.argmax(off.any(axis=1))
        raise DomainViolation("%s point left the chart at eps=%g" % (what, eps[np.argmax(off[r])]))
    return out


# the 12-scale halving schedule along which the tangent-cone and profile
# checks extrapolate d^x; read-only, since every TangentData built on it
# shares it as its eps
DX_SCHEDULE = halving_schedule(0.5, 12)
DX_SCHEDULE.setflags(write=False)


class TangentData:
    """Tangent-space operations at x, extrapolated along eps on demand and
    memoised. limits(tag, U, V) gives the LimitEstimates behind dx ("dx"),
    delta_op ("delta") and sigma_op ("sigma") at a batch of pairs; limit and
    the operations read one pair. limit_error and converged summarise the
    limits that estimate_dx or derive_sigma_inv checked."""

    def __init__(self, ds: DilatationStructure, x, eps):
        self.ds = ds
        self.eps = check_schedule(eps)
        self.center = as_point(x)
        self.limit_error = 0.0
        self.converged = True
        self.collapsed = 0
        self._memo = {}

    def limits(self, tag, U, V, seqs=None) -> list:
        """The estimates of tag at the pairs (U[r], V[r]) of two (R, n)
        stacks, in order. The memo's key rule: a dx entry is stored under both
        orders (d^x is a distance), a delta or sigma entry under its ordered
        pair. The pairs the memo lacks are measured once, in one _sequences
        batch, or read from seqs, the sequences of all R pairs already
        measured."""
        U, V = as_points(U), as_points(V)
        keys = [(tag, u.tobytes(), v.tobytes()) for u, v in zip(U, V)]
        todo = {}  # missing key -> the row that measures it
        for r, key in enumerate(keys):
            if key not in self._memo and key not in todo:
                todo[key] = r
                if tag == "dx":
                    todo[(tag, key[2], key[1])] = r
        rows = list(dict.fromkeys(todo.values()))
        if rows:
            seqs = (_sequences(self.ds, tag, self.center, U[rows], V[rows], self.eps)
                    if seqs is None else np.asarray(seqs, dtype=float)[rows])
            ests = {r: richardson_limit(self.eps, s) for r, s in zip(rows, seqs)}
            self._memo.update((key, ests[r]) for key, r in todo.items())
        return [self._memo[key] for key in keys]

    def limit(self, tag, u, v) -> LimitEstimate:
        return self.limits(tag, [as_point(u)], [as_point(v)])[0]

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


def _ball_snapshots(td, pts, mus):
    """Two read-outs of the rescaled distances on the sample pts: the d^x
    matrix, extrapolated along td.eps, with its estimates in pair order, and
    the (len(mus), P, P) stack of (1/mu) d(dil(mu,x,p_i), dil(mu,x,p_j)).
    When mus is a head of td.eps, both come from one _rescaled stack."""
    ds, x = td.ds, td.center
    pts = np.asarray(pts, dtype=float)
    seqs = _rescaled(ds, td.eps, x, pts)
    i, j = np.triu_indices(len(pts), 1)
    ests = td.limits("dx", pts[i], pts[j], seqs[:, i, j].T)
    dxm = np.zeros(seqs.shape[1:])
    dxm[i, j] = dxm[j, i] = [float(est.extrapolated) for est in ests]
    head = np.array_equal(mus, td.eps[:len(mus)])
    snaps = seqs[:len(mus)] if head else _rescaled(ds, mus, x, pts)
    return dxm, snaps, ests


def estimate_dx(ds: DilatationStructure, x, sample: Sequence, eps_schedule):
    """Rescaled-limit distance d^x on all pairs from sample.

    Returns (TangentData, worst LimitEstimate). The TangentData's operations
    extrapolate fresh pairs on demand (results memoised); its collapsed count
    holds the pairs that collapse (dx below 1e-6 while the original distance
    exceeds 1e-2).
    """
    td = TangentData(ds, x, eps_schedule)
    pts = np.array([as_point(p) for p in sample])
    if len(pts) < 2:
        raise ValueError("need at least two sample points")
    dxm, _, ests = _ball_snapshots(td, pts, td.eps)
    worst = max(ests, key=lambda est: est.error)
    td.limit_error = float(worst.error)
    td.converged = all(est.converged for est in ests)
    td.collapsed = int(np.sum(np.triu((dxm < 1e-6) & (pairwise(ds.space, pts) > 1e-2))))
    return td, worst


def check_A3(ds: DilatationStructure, x, sample: Sequence, eps_schedule,
             tol: float = 1e-5) -> CheckReport:
    """A3: the rescaled distances on all pairs from sample converge to a
    distance d^x. The worst limit's error bar is held against tol; a limit
    that did not converge makes the report inconclusive, and pairs that
    collapse under d^x (estimate_dx's collapsed count) fail it with one
    "degenerate" record, since d^x is then no distance."""
    td, worst = estimate_dx(ds, x, sample, eps_schedule)
    failures = [{"kind": "degenerate", "pairs": td.collapsed}] if td.collapsed else []
    passed = bool(worst.converged and worst.error <= tol) and not failures
    return CheckReport(check="a3", passed=passed, max_residual=float(worst.error), tolerance=tol,
                       converged=bool(worst.converged), failures=failures,
                       table=worst.table_rows(), notes=worst.note)


@functools.cache
def _probe_directions(n: int) -> tuple:
    """derive_sigma_inv's two unit probe directions in dimension n, read-only.

    Generic directions: axis-aligned probes can hide curvature terms and make
    the folded error unrepresentative. They depend on n alone, so each
    dimension draws its pair from RandomState(11) once per process."""
    rng = np.random.RandomState(11)
    dirs = rng.standard_normal(n), rng.standard_normal(n)
    for d in dirs:
        d /= np.linalg.norm(d)
        d.setflags(write=False)
    return dirs


def derive_sigma_inv(ds: DilatationStructure, x, eps_schedule) -> TangentData:
    """TangentData whose error bar covers one probe pair.

    The sum operation inverts the difference on the second slot; the
    constructor spot-checks diff(u, add(u, v)) = v on a probe pair and folds
    the residual into limit_error / converged.
    """
    td = TangentData(ds, x, eps_schedule)
    x = td.center
    r = ds.probe_radius
    d1, d2 = _probe_directions(len(x))
    u, v = x + 0.9 * r * d1, x - 0.75 * r * d2
    d_uv, d_uu = td.limits("delta", [u, u], [v, u])
    s_uv, s_xv = td.limits("sigma", [u, x], [v, v])
    ests = [d_uv, s_uv]
    td.limit_error = max([float(est.error) for est in ests] + [
        td.consistency_residual(u, v),
        # neutral element and self-difference identities
        float(np.max(np.abs(s_xv.extrapolated - v))),
        float(np.max(np.abs(d_uu.extrapolated - x)))])
    td.converged = all(est.converged for est in ests)
    return td


def check_A4(td: TangentData, tol: float = 1e-5) -> CheckReport:
    """A4: the tangent sum and difference exist as limits. td comes from
    derive_sigma_inv, whose error bar covers them at its probe pair; a limit
    there that did not converge makes the report inconclusive."""
    return CheckReport(check="a4", passed=bool(td.converged and td.limit_error <= tol),
                       max_residual=float(td.limit_error), tolerance=tol,
                       converged=bool(td.converged),
                       notes="sum/difference limits with consistency probes")


# ---------------------------------------------------------------------------
# Tangent-group structure (conical-group checks)


def check_conical_group(td: TangentData, ds: DilatationStructure, samples: Sequence,
                        mus: Sequence, tol_floor: float = 1e-9) -> CheckReport:
    """Group-like behaviour of the extrapolated operations:

      associativity   add(u, add(v, w)) = add(add(u, v), w)
      left-invariance d^x(add(w,u), add(w,v)) = d^x(u, v)
      automorphism    dil(mu, x, add(u,v)) = add(dil(mu,x,u), dil(mu,x,v))
      cone property   d^x(u, v) = (1/mu) d^x(dil(mu,x,u), dil(mu,x,v))

    samples: list of points near x (consecutive triples are used); mus: the
    nonempty scales, each finite and > 0, of the last two laws.
    Tolerance adapts to the tangent data's own limit error: ten times it,
    but at least tol_floor. Tangent data with unconverged limits certifies
    nothing: the report is then inconclusive (converged=False).
    """
    pts = [as_point(p) for p in samples]
    if len(pts) < 3:
        raise ValueError("need at least three sample points")
    mus = _scales(mus, "mus")
    if not td.converged:
        return CheckReport(check="conical-group", passed=False,
                           max_residual=float(td.limit_error), tolerance=tol_floor,
                           converged=False, notes="tangent limits unconverged")
    tol = max(tol_floor, 10.0 * td.limit_error)
    triples = [pts[i:i + 3] for i in range(len(pts) - 2)]
    T, n = len(triples), len(td.center)
    U, V, W = (np.array(col) for col in zip(*triples))
    lim = (tol * (1.0 + np.max(np.abs(np.hstack([U, V, W])), axis=1))).tolist()
    cat = np.concatenate
    add = lambda A, B: np.array([est.extrapolated for est in td.limits("sigma", A, B)])
    # first sum batch: u + v, v + w, and the left translates w + u, w + v
    S, VW, WU, WV = np.split(add(cat([U, V, W, W]), cat([V, W, U, V])), 4)
    # every triple's u, v and their sum dilated at every mu in one call
    imgs = as_points(ds.dil(mus, td.center, np.stack([U, V, S], axis=1)[:, :, None]))
    A, B = (imgs[:, r].reshape(-1, n) for r in (0, 1))
    # second sum batch: u + (v + w), (u + v) + w and the sums of the images
    U_VW, S_W, AB = np.split(add(cat([U, S, A]), cat([VW, W, B])), [T, 2 * T])
    r_assoc = _gap(U_VW, S_W)
    # d^x of u, v, of their left translates by w and of their images at every
    # mu in one batch
    dx = np.array([float(est.extrapolated)
                   for est in td.limits("dx", cat([U, WU, A]), cat([V, WV, B]))])
    d_uv, d_left, d_img = np.split(dx, [T, 2 * T])
    r_left = np.abs(d_left - d_uv).tolist()
    # (triples, mus) residuals of the automorphism and of the cone property
    r_auto = _gap(imgs[:, 2], AB.reshape(T, -1, n))
    r_cone = np.abs(d_uv[:, None] - d_img.reshape(T, -1) / mus).tolist()
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
# Tangent-cone sup-estimate, profile-convergence theorem and profile continuity


def check_tangent_cone(ds: DilatationStructure, x, eps_schedule, count: int,
                       seed: int = 0) -> CheckReport:
    """A3's uniform gap: sup over pairs in B(x, eps) of |d(u,v) - d^x(u,v)| / eps.

    One sample p_i of B(x, eps[0]) is dilated by mu = eps / eps[0]: by A2 the
    images sample B(x, eps), and by the cone property d^x scales by mu on them.
    So the value at eps is max |M - D| / eps[0], with M = (1/mu) d(dil(mu,x,p_i),
    dil(mu,x,p_j)) and D = d^x(p_i, p_j) extrapolated once along DX_SCHEDULE.
    The report passes when the values decay (limits.decays_to_zero) to its
    tolerance: the largest of a quarter of the first value, 1e-10 and, when
    every d^x limit converged, the worst d^x error over eps[0], which is all
    an exact cone can reach. Otherwise it is inconclusive, and its notes say
    where (limits.decay_failure). max_residual is the last value.
    """
    eps = check_schedule(eps_schedule)
    td = TangentData(ds, x, DX_SCHEDULE)
    pts = sample_ball(ds.space, td.center, float(eps[0]), count, seed=seed)
    dxm, snaps, ests = _ball_snapshots(td, pts, eps / eps[0])
    dx_error = max((float(est.error) for est in ests), default=0.0) \
        if all(est.converged for est in ests) else 0.0
    vals = np.max(np.abs(snaps - dxm), axis=(1, 2)) / eps[0]
    est = richardson_limit(eps, vals)
    # the quantity is a sup of nonnegative gaps: converged means trending to 0
    gaps = vals.tolist()
    floors = {"a quarter of the first gap": 0.25 * gaps[0], "the floor 1e-10": 1e-10,
              "the worst d^x error over eps[0]": dx_error / float(eps[0])}
    tol = max(floors.values())
    notes = "%s; tolerance: %s" % (est.note, max(floors, key=floors.get))
    failure = decay_failure(gaps, tol)
    if failure:
        notes += ("; the gap rose above 1.1 x the previous one at eps=%g" % eps[failure[1]]
                  if failure[0] == "rise" else "; the last gap is above the tolerance")
    return CheckReport(check="tangent-cone", passed=not failure, max_residual=gaps[-1],
                       tolerance=tol, converged=not failure, table=est.table_rows(), notes=notes)


def check_profile_theorem(ds: DilatationStructure, x, mu_schedule, count: int,
                          seed: int = 0) -> CheckReport:
    """Compare rescaled-ball snapshots against the tangent-cone snapshot.

    On a fixed sample of the unit d^x-ball at x, _ball_snapshots gives the d^x
    matrix, extrapolated along DX_SCHEDULE, and, per mu, the
    (1/mu) d(dil(mu,x,u_i), dil(mu,x,u_j)) matrix; the pointed GH gap between
    them must decay to zero (limits.decays_to_zero) within the sample
    density. A d^x limit behind the sample that did not converge makes the
    report inconclusive (converged=False). Raises SamplingExhausted when fewer
    than three sample points lie in the d^x-ball.
    """
    td = TangentData(ds, x, DX_SCHEDULE)
    mus = check_schedule(mu_schedule)
    x = td.center
    count = min(count, SIZE_LIMIT)
    raw = sample_ball(ds.space, x, ds.working_radius, max(24, 4 * count), seed=seed)
    # d^x(x, p) of every raw point from one dilation and one metric call; the
    # limits are taken until the sample is full
    pts = [x]
    for p, seq in zip(raw, _sequences(ds, "dx", x, x[None], raw, td.eps)):
        if td.limits("dx", [x], [p], [seq])[0].extrapolated <= ds.working_radius:
            pts.append(as_point(p))
        if len(pts) == count:
            break
    if len(pts) < 3:
        raise SamplingExhausted("tangent sample too thin for a snapshot comparison")
    dmat0, snaps, ests = _ball_snapshots(td, pts, mus)
    base_fs = FinitePointedSpace(dmat=dmat0, base=0, slack=1e-5)
    density = _sample_density(dmat0)

    gaps = [gh_pointed_exact(FinitePointedSpace(dmat=m, base=0, slack=1e-9), base_fs)
            for m in snaps]
    table = [_table_row(float(mu), g, error=float(density)) for mu, g in zip(mus, gaps)]
    notes = "%d-point snapshots, density %.3g" % (len(pts), density)
    unconverged = sum(not est.converged for est in ests)
    if unconverged:
        notes += "; %d of %d d^x limits unconverged" % (unconverged, len(ests))
    passed = not unconverged and decays_to_zero(gaps, max(density, 1e-10))
    return CheckReport(check="profile-theorem", passed=passed,
                       max_residual=float(gaps[-1]), tolerance=float(density),
                       converged=passed, table=table, notes=notes)


def check_profile_continuity(curve: ProfileCurve) -> CheckReport:
    """Continuity at zero of a metric profile (gromov.metric_profile): the
    pointed GH gaps between successive snapshots decay to zero
    (limits.decays_to_zero) within 3 x the curve's sampling density, or the
    report is inconclusive. max_residual is the last gap; the table has one
    row per gap, at the scale of its first snapshot."""
    pts = curve.points
    if len(pts) < 2:
        raise ValueError("need at least two profile points")
    gaps = [gh_pointed_exact(a.space, b.space) for a, b in zip(pts, pts[1:])]
    tol = 3.0 * curve.density
    passed = decays_to_zero(gaps, tol)
    return CheckReport(check="profile-continuity", passed=passed, max_residual=float(gaps[-1]),
                       tolerance=tol, converged=passed,
                       table=[_table_row(p.eps, g) for p, g in zip(pts, gaps)],
                       notes="%d snapshots, density %.3g" % (len(pts), curve.density))
