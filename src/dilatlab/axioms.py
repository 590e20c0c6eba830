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
from .geometry import FinitePointedSpace, MetricSpaceHandle, sample_ball
from .gromov import SIZE_LIMIT, gh_pointed_exact, _sample_density
from .limits import LimitEstimate, decays_to_zero, richardson_limit
from .util import as_point, as_points, check_schedule, halving_schedule, scale_of


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
class TangentData:
    """Extrapolated tangent-space operations at a base point."""

    center: np.ndarray
    dx: Callable
    delta_op: Callable
    sigma_op: Callable
    inv_op: Callable
    limit_error: float = 0.0
    converged: bool = True
    degenerate: bool = False

    def consistency_residual(self, u, v) -> float:
        """Chart gap of diff(u, add(u, v)) against v (group cancellation)."""
        s = self.sigma_op(u, v)
        return float(np.max(np.abs(self.delta_op(u, s) - as_point(v))))


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
    """(P, k, n) images dil(eps[s], x, pts[i]) of every point at every scale."""
    pts = np.asarray(pts, dtype=float)
    k = eps.size
    return _dil_rows(ds, np.tile(eps, len(pts)), x,
                     np.repeat(pts, k, axis=0)).reshape(len(pts), k, -1)


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
    failures = []
    max_res = 0.0
    table = []
    bump = 1e-6

    for idx, (x, y) in enumerate(samples):
        x = as_point(x)
        y = as_point(y)
        sc = scale_of(x, y)
        dy = np.zeros_like(y)
        dy[0] = bump
        # one call for the identity at 1, the images along the schedule and
        # the continuity probe at eps[0] (whose reference is the first image)
        imgs = _dil_rows(ds, np.concatenate([[1.0], eps, eps[:1]]), x,
                         np.vstack([np.tile(y, (eps.size + 1, 1)), y + dy]))
        y_eps = imgs[1:-1]
        fixed = _dil_rows(ds, eps, x, x)
        back = _dil_rows(ds, 1.0 / eps, x, y_eps)

        r_id = float(np.max(np.abs(imgs[0] - y)))
        max_res = max(max_res, r_id)
        if r_id > 1e-12 * sc:
            failures.append({"sample": idx, "kind": "identity-at-1", "residual": r_id})

        decay = []
        for s, e in enumerate(eps):
            e = float(e)
            r_fix = float(np.max(np.abs(fixed[s] - x)))
            r_inv = float(np.max(np.abs(back[s] - y)))
            max_res = max(max_res, r_fix, r_inv)
            if r_fix > tol * sc:
                failures.append({"sample": idx, "kind": "fixed-point", "eps": e,
                                 "residual": r_fix})
            if r_inv > tol * sc:
                failures.append({"sample": idx, "kind": "invertibility", "eps": e,
                                 "residual": r_inv})
            decay.append(float(ds.space.distance(x, y_eps[s])))
            # domain witness: the expanded ball point stays inside B(x, A)
            d_back = float(ds.space.distance(x, back[s]))
            if d_back > ds.domain_radius * (1.0 + 1e-9):
                failures.append({"sample": idx, "kind": "domain-witness", "eps": e,
                                 "distance": d_back})

        # contraction trend: comparable to first order in eps, heading to 0
        d0 = float(ds.space.distance(x, y))
        floor = 1e-12 * sc
        ok_trend = all(decay[k + 1] <= decay[k] * 1.01 + floor for k in range(len(decay) - 1))
        ok_final = decay[-1] <= max(50.0 * d0 * eps[-1] / eps[0], floor)
        if d0 > floor and not (ok_trend and ok_final):
            failures.append({"sample": idx, "kind": "contraction-trend",
                             "decay": [float(t) for t in decay]})
        if idx == 0:
            for k, e in enumerate(eps):
                table.append({"eps": float(e), "value": decay[k],
                              "diff": "" if k == 0 else decay[k] - decay[k - 1],
                              "extrapolated": 0.0, "error": ""})

        # continuity probe at a fixed small perturbation of y
        r_cont = float(np.max(np.abs(imgs[-1] - y_eps[0])))
        if r_cont > 100.0 * bump * sc:
            failures.append({"sample": idx, "kind": "continuity-probe", "residual": r_cont})

    return CheckReport(check="a0a1", passed=not failures, max_residual=max_res,
                       tolerance=tol, failures=failures[:20], table=table,
                       notes="%d samples, %d scales" % (len(samples), len(eps)))


def check_A2(ds: DilatationStructure, samples: Sequence, pairs: Sequence,
             tol: float = 1e-9) -> CheckReport:
    """Composition law dil(eps, x, dil(mu, x, u)) = dil(eps*mu, x, u).

    samples: list of (x, u); pairs: list of (eps, mu) scale pairs. Residuals
    are chart-coordinate gaps relative to the coordinate scale.
    """
    failures = []
    max_res = 0.0
    table = []
    es = np.array([float(e) for e, _ in pairs])
    ms = np.array([float(m) for _, m in pairs])
    for idx, (x, u) in enumerate(samples):
        x = as_point(x)
        u = as_point(u)
        sc = scale_of(x, u)
        lhs = _dil_rows(ds, es, x, _dil_rows(ds, ms, x, u))
        rhs = _dil_rows(ds, es * ms, x, u)
        for j, (e, m) in enumerate(zip(es, ms)):
            e, m = float(e), float(m)
            r = float(np.max(np.abs(lhs[j] - rhs[j])))
            max_res = max(max_res, r)
            if r > tol * sc:
                failures.append({"sample": idx, "kind": "composition", "eps": e,
                                 "mu": m, "residual": r})
            if idx == 0:
                table.append({"eps": e * m, "value": r, "diff": "",
                              "extrapolated": 0.0, "error": ""})
    return CheckReport(check="a2", passed=not failures, max_residual=max_res,
                       tolerance=tol, failures=failures[:20], table=table,
                       notes="%d samples x %d scale pairs" % (len(samples), len(pairs)))


# ---------------------------------------------------------------------------
# A3 / A4: rescaled-distance limit and tangent operations


def _rescaled_distances(ds, a, b, eps) -> np.ndarray:
    """(1/eps) d(a_s, b_s) along the schedule, for image stacks a, b (k, n)."""
    return np.array([float(ds.space.distance(a[s], b[s])) / float(e)
                     for s, e in enumerate(eps)])


def _dx_sequence(ds, x, u, v, eps):
    imgs = _dil_schedule(ds, eps, x, [u, v])
    return _rescaled_distances(ds, imgs[0], imgs[1], eps)


def _delta_points(ds, x, u, v, eps):
    """dil(1/eps, dil(eps,x,u), dil(eps,x,v)) along the schedule."""
    w1, w2 = _dil_schedule(ds, eps, x, [u, v])
    out = _dil_rows(ds, 1.0 / eps, w1, w2)
    for s, e in enumerate(eps):
        if not ds.space.contains(out[s]) or not ds.space.contains(w1[s]):
            raise DomainViolation("difference-operation point left the chart at eps=%g"
                                  % float(e))
    return out


def _sigma_points(ds, x, u, v, eps):
    """dil(1/eps, x, dil(eps, dil(eps,x,u), v)) along the schedule."""
    q = _dil_rows(ds, eps, _dil_rows(ds, eps, x, u), v)
    out = _dil_rows(ds, 1.0 / eps, x, q)
    for s, e in enumerate(eps):
        if not ds.space.contains(out[s]) or not ds.space.contains(q[s]):
            raise DomainViolation("sum-operation point left the chart at eps=%g" % float(e))
    return out


_SEQUENCES = {"dx": _dx_sequence, "delta": _delta_points, "sigma": _sigma_points}


def _limit(cache, ds, x, eps, tag, u, v) -> LimitEstimate:
    """Memoised limit at x of d^x (tag "dx"), the difference ("delta") or the
    sum ("sigma") operation applied to (u, v). cache maps (tag, u bytes,
    v bytes) to the estimate; keys are ordered pairs."""
    u, v = as_point(u), as_point(v)
    key = (tag, u.tobytes(), v.tobytes())
    if key not in cache:
        cache[key] = richardson_limit(eps, _SEQUENCES[tag](ds, x, u, v, eps))
    return cache[key]


def _tangent_data(ds, x, eps, cache) -> TangentData:
    """TangentData whose operations extrapolate on demand through cache."""

    def delta_op(u, v):
        return np.array(_limit(cache, ds, x, eps, "delta", u, v).extrapolated, dtype=float)

    def sigma_op(u, v):
        return np.array(_limit(cache, ds, x, eps, "sigma", u, v).extrapolated, dtype=float)

    def dx(u, v):
        return float(_limit(cache, ds, x, eps, "dx", u, v).extrapolated)

    return TangentData(center=x, dx=dx, delta_op=delta_op, sigma_op=sigma_op,
                       inv_op=lambda u: delta_op(u, x))


def estimate_dx(ds: DilatationStructure, x, sample: Sequence, eps_schedule):
    """Rescaled-limit distance d^x on all pairs from sample.

    Returns (TangentData, worst LimitEstimate). The TangentData's operations
    extrapolate fresh pairs on demand (results cached); its degenerate flag
    is set when some pair collapses (dx below 1e-6 while the original
    distance exceeds 1e-2).
    """
    eps = check_schedule(eps_schedule)
    x = as_point(x)
    pts = [as_point(p) for p in sample]
    if len(pts) < 2:
        raise ValueError("need at least two sample points")
    cache = {}
    imgs = _dil_schedule(ds, eps, x, pts)
    worst = None
    degenerate = False
    converged = True
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            est = richardson_limit(eps, _rescaled_distances(ds, imgs[i], imgs[j], eps))
            cache[("dx", pts[i].tobytes(), pts[j].tobytes())] = est
            cache[("dx", pts[j].tobytes(), pts[i].tobytes())] = est
            if worst is None or est.error > worst.error:
                worst = est
            converged = converged and est.converged
            d0 = float(ds.space.distance(pts[i], pts[j]))
            if float(est.extrapolated) < 1e-6 and d0 > 1e-2:
                degenerate = True

    td = _tangent_data(ds, x, eps, cache)
    td.limit_error = float(worst.error)
    td.converged = converged
    td.degenerate = degenerate
    return td, worst


def estimate_delta(ds: DilatationStructure, x, u, v, eps_schedule) -> LimitEstimate:
    """Vector limit of the difference operation at x applied to (u, v)."""
    return _limit({}, ds, as_point(x), check_schedule(eps_schedule), "delta", u, v)


def derive_sigma_inv(ds: DilatationStructure, x, eps_schedule,
                     probe_pairs: Optional[Sequence] = None) -> TangentData:
    """TangentData with extrapolating closures for all tangent operations.

    The sum operation inverts the difference on the second slot; the
    constructor spot-checks diff(u, add(u, v)) = v on probe pairs and folds
    the residual into limit_error / converged.
    """
    eps = check_schedule(eps_schedule)
    x = as_point(x)
    cache = {}
    td = _tangent_data(ds, x, eps, cache)

    if probe_pairs is None:
        # generic directions (axis-aligned probes can hide curvature terms
        # and make the folded error unrepresentative)
        r = ds.probe_radius
        rng = np.random.RandomState(11)
        d1 = rng.standard_normal(len(x))
        d2 = rng.standard_normal(len(x))
        d1 /= np.linalg.norm(d1)
        d2 /= np.linalg.norm(d2)
        probe_pairs = [(x + 0.9 * r * d1, x - 0.75 * r * d2)]
    err = 0.0
    ok = True
    for (u, v) in probe_pairs:
        for tag in ("delta", "sigma"):
            est = _limit(cache, ds, x, eps, tag, u, v)
            err = max(err, float(est.error))
            ok = ok and est.converged
        err = max(err, td.consistency_residual(u, v))
        # neutral element and self-difference identities
        err = max(err, float(np.max(np.abs(td.sigma_op(x, v) - as_point(v)))))
        err = max(err, float(np.max(np.abs(td.delta_op(u, u) - x))))
    td.limit_error = err
    td.converged = ok
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
    but at least tol_floor.
    """
    if not td.converged:
        raise ValueError("tangent data has unconverged limits; refusing to certify")
    x = td.center
    pts = [as_point(p) for p in samples]
    if len(pts) < 3:
        raise ValueError("need at least three sample points")
    mus = np.asarray(mus, dtype=float)
    tol = max(tol_floor, 10.0 * td.limit_error)
    failures = []
    max_res = 0.0
    table = []

    triples = [(pts[i], pts[i + 1], pts[i + 2]) for i in range(len(pts) - 2)]
    for idx, (u, v, w) in enumerate(triples):
        sc = scale_of(u, v, w)
        r_assoc = float(np.max(np.abs(td.sigma_op(u, td.sigma_op(v, w))
                                      - td.sigma_op(td.sigma_op(u, v), w))))
        r_left = abs(td.dx(td.sigma_op(w, u), td.sigma_op(w, v)) - td.dx(u, v))
        max_res = max(max_res, r_assoc, r_left)
        if r_assoc > tol * sc:
            failures.append({"triple": idx, "kind": "associativity", "residual": r_assoc})
        if r_left > tol * sc:
            failures.append({"triple": idx, "kind": "left-invariance", "residual": r_left})

        # u, v and their sum dilated at every mu in one schedule
        imgs = _dil_schedule(ds, mus, x, [u, v, td.sigma_op(u, v)])
        for k, mu in enumerate(mus):
            mu = float(mu)
            du, dv, dsum = imgs[:, k]
            r_auto = float(np.max(np.abs(dsum - td.sigma_op(du, dv))))
            r_cone = abs(td.dx(u, v) - td.dx(du, dv) / mu)
            max_res = max(max_res, r_auto, r_cone)
            if r_auto > tol * sc:
                failures.append({"triple": idx, "kind": "automorphism", "mu": mu,
                                 "residual": r_auto})
            if r_cone > tol * sc:
                failures.append({"triple": idx, "kind": "cone-property", "mu": mu,
                                 "residual": r_cone})
            if idx == 0:
                table.append({"eps": mu, "value": max(r_auto, r_cone), "diff": "",
                              "extrapolated": 0.0, "error": float(td.limit_error)})

    return CheckReport(check="conical-group", passed=not failures, max_residual=max_res,
                       tolerance=tol, converged=td.converged, failures=failures[:20],
                       table=table, notes="%d triples" % len(triples))


# ---------------------------------------------------------------------------
# Tangent-cone sup-estimate and profile-convergence theorem


def check_tangent_cone(ds: DilatationStructure, x, eps_schedule, count: int,
                       seed: int = 0) -> LimitEstimate:
    """sup over sampled pairs in B(x, eps) of |d(u,v) - d^x(u,v)| / eps.

    The values should decrease to 0 when d^x is the tangent-cone distance at
    x; d^x is extrapolated along a 12-scale halving schedule. converged
    means the values decay (limits.decays_to_zero) to a quarter of the first
    one.
    """
    eps = check_schedule(eps_schedule)
    x = as_point(x)
    dx = derive_sigma_inv(ds, x, halving_schedule(0.5, 12), probe_pairs=[]).dx
    sup_vals = []
    for e in eps:
        e = float(e)
        pts = sample_ball(ds.space, x, e, count, seed=seed)
        worst = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                gap = abs(float(ds.space.distance(pts[i], pts[j])) - dx(pts[i], pts[j]))
                worst = max(worst, gap / e)
        sup_vals.append(worst)
    est = richardson_limit(eps, np.array(sup_vals))
    # the quantity is a sup of nonnegative gaps: converged means trending to 0
    est.converged = decays_to_zero(sup_vals, max(0.25 * sup_vals[0], 1e-10))
    return est


def check_profile_theorem(ds: DilatationStructure, x, eps_schedule, mu_schedule,
                          count: int, seed: int = 0) -> CheckReport:
    """Compare rescaled-ball snapshots against the tangent-cone snapshot.

    Builds the d^x matrix on a fixed sample of the unit d^x-ball at x, then
    for each mu the (1/mu) d(dil(mu,x,u_i), dil(mu,x,u_j)) matrix, and checks
    that the pointed GH gap between them decays to zero
    (limits.decays_to_zero) with the sample density as tolerance. Raises
    SamplingExhausted when fewer than three sample points lie in the d^x-ball.
    """
    eps = check_schedule(eps_schedule)
    mus = check_schedule(mu_schedule)
    x = as_point(x)
    count = min(count, SIZE_LIMIT)

    td = derive_sigma_inv(ds, x, eps, probe_pairs=[])
    raw = sample_ball(ds.space, x, ds.working_radius, max(24, 4 * count), seed=seed)
    pts = [x]
    for p in raw:
        if td.dx(x, p) <= ds.working_radius:
            pts.append(as_point(p))
        if len(pts) == count:
            break
    if len(pts) < 3:
        raise SamplingExhausted("tangent sample too thin for a snapshot comparison")
    n = len(pts)
    dmat0 = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat0[i, j] = dmat0[j, i] = td.dx(pts[i], pts[j])
    base_fs = FinitePointedSpace(dmat=dmat0, base=0, slack=1e-5)
    density = _sample_density(dmat0)

    gaps = []
    table = []
    snaps = _dil_schedule(ds, mus, x, pts)
    for s, mu in enumerate(mus):
        mu = float(mu)
        imgs = snaps[:, s]
        m = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = float(ds.space.distance(imgs[i], imgs[j])) / mu
        fs = FinitePointedSpace(dmat=m, base=0, slack=1e-9)
        g = gh_pointed_exact(fs, base_fs)
        gaps.append(g)
        table.append({"eps": mu, "value": g, "diff": "", "extrapolated": 0.0,
                      "error": float(density)})

    passed = decays_to_zero(gaps, max(density, 1e-10))
    return CheckReport(check="profile-theorem", passed=passed,
                       max_residual=float(gaps[-1]), tolerance=float(density),
                       converged=passed, table=table,
                       notes="%d-point snapshots, density %.3g" % (n, density))
