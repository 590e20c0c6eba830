"""Metric-space primitives: chart-based handles, ball sampling, finite
pointed spaces and the snowflake transform.

Everything lives in a single coordinate chart (an axis-aligned box in R^n);
the distance attached to a handle maps stacks of point pairs to their
distances, so handles can carry Euclidean, diffeomorphism-pulled, snowflaked
or Carnot-Caratheodory metrics without the samplers caring.
"""

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SamplingExhausted, TriangleViolation
from .util import as_point, halton, in_chart, symmetric_box

# Rejection sampling gives up after this many candidates per requested point.
CANDIDATE_BUDGET = 200


@dataclass(frozen=True)
class MetricSpaceHandle:
    """A metric on an open chart box.

    distance   symmetric d(P, Q) >= 0 on point stacks: broadcastable (..., n)
               stacks P and Q map to the (...) array of the distances of
               their rows, each equal to the distance of that pair alone
    chart_box  (dim, 2) array of per-axis [lo, hi] bounds
    ball_box   optional hint: (center, radius) -> per-axis halfwidths of a
               box guaranteed to contain the metric ball, for metrics whose
               balls are very anisotropic in chart coordinates
    """

    dim: int
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    chart_box: np.ndarray
    ball_box: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        box = np.asarray(self.chart_box, dtype=float)
        if box.shape != (self.dim, 2) or np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("chart_box must be (dim, 2) with lo < hi rows")
        object.__setattr__(self, "chart_box", box)

    def contains(self, p: np.ndarray):
        """Whether p lies in the closed chart box (util.in_chart on every
        coordinate): a bool for one (n,) point, a boolean array for a (..., n)
        stack."""
        inside = np.all(in_chart(self.chart_box, p), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside


def box_handle(dim: int, distance, ball_box=None) -> MetricSpaceHandle:
    """Handle on the symmetric box [-3, 3]^dim."""
    return MetricSpaceHandle(dim=dim, distance=distance,
                             chart_box=symmetric_box(dim, 3.0), ball_box=ball_box)


def euclidean_distance(P, Q) -> np.ndarray:
    """|P - Q| over the last axis of broadcastable (..., n) stacks. Each row
    gets the bits of np.linalg.norm on that row alone, which
    np.linalg.norm(..., axis=-1) does not always give."""
    d = np.asarray(P, dtype=float) - np.asarray(Q, dtype=float)
    return np.sqrt(np.vecdot(d, d))


def euclidean_handle(dim: int) -> MetricSpaceHandle:
    return box_handle(dim, euclidean_distance, ball_box=lambda c, r: np.full(dim, r))


@dataclass(frozen=True)
class FinitePointedSpace:
    """Finite metric space with a marked base point.

    dmat    (n, n) symmetric distance matrix, zero diagonal
    base    index of the marked point
    labels  opaque per-point labels (defaults to 0..n-1)
    slack   relative triangle-inequality slack; the tight default suits
            matrices sampled from true metrics, matrices assembled from
            extrapolated limit values carry their extrapolation error here
    """

    dmat: np.ndarray
    base: int
    labels: tuple = field(default=None)
    slack: float = 1e-12

    def __post_init__(self):
        m = np.asarray(self.dmat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dmat must be square")
        n = m.shape[0]
        if not (0 <= self.base < n):
            raise ValueError("base index out of range")
        if np.any(np.diag(m) != 0.0):
            raise ValueError("dmat diagonal must be exactly zero")
        if not np.array_equal(m, m.T):
            raise ValueError("dmat must be exactly symmetric")
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise ValueError("dmat entries must be finite and nonnegative")
        scale = float(m.max()) if n else 0.0
        slack = self.slack * max(1.0, scale)
        # d(i,k) <= d(i,j) + d(j,k) for every triple, up to float slack
        if n:
            lhs = m[:, None, :]
            rhs = m[:, :, None] + m[None, :, :]
            if np.any(lhs > rhs + slack):
                raise TriangleViolation("triangle inequality violated beyond slack")
        object.__setattr__(self, "dmat", m)
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(range(n)))
        elif len(self.labels) != n:
            raise ValueError("labels length must match dmat")
        else:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def size(self) -> int:
        return self.dmat.shape[0]

    @property
    def radius(self) -> float:
        """Max distance from the base point."""
        return float(self.dmat[self.base].max()) if self.size else 0.0

    def to_jsonable(self) -> dict:
        return {
            "dmat": [[float(v) for v in row] for row in self.dmat],
            "base": int(self.base),
            "labels": list(self.labels),
        }


def sample_ball(space: MetricSpaceHandle, center, radius: float, count: int,
                seed: int = 0) -> np.ndarray:
    """Low-discrepancy sample of count points from the closed metric ball.

    Halton candidates are drawn from the ball's bounding box (clipped to the
    chart), 256 at a time, and filtered by the actual metric, one metric
    call per batch of as many candidates as points are still missing; the
    budget is 200x count candidates, after which SamplingExhausted is
    raised. Deterministic for a fixed seed (the seed fast-forwards the
    Halton stream).
    """
    center = as_point(center)
    if center.size != space.dim:
        raise ValueError("center dimension mismatch")
    if not radius > 0.0:  # NaN included
        raise ValueError("radius must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")

    if space.ball_box is not None:
        half = np.asarray(space.ball_box(center, radius), dtype=float)
    else:
        half = np.full(space.dim, radius, dtype=float)
    lo = np.maximum(center - half, space.chart_box[:, 0])
    hi = np.minimum(center + half, space.chart_box[:, 1])
    if np.any(lo >= hi):
        raise SamplingExhausted("ball box does not intersect the chart interior")

    budget = CANDIDATE_BUDGET * count
    slack = radius * (1.0 + 1e-12)
    accepted, cands, drawn = [], [], 0
    while drawn < budget and len(accepted) < count:
        if len(cands) == 0:
            u = halton(space.dim, 1 + int(seed) + drawn, min(256, budget - drawn))
            cands = lo + u * (hi - lo)
        # measure exactly the points still missing, so no candidate after the
        # one that completes the sample is measured
        pts, cands = cands[:count - len(accepted)], cands[count - len(accepted):]
        drawn += len(pts)
        accepted += list(pts[distances(space, center, pts) <= slack])
    if len(accepted) < count:
        raise SamplingExhausted(
            "accepted %d/%d points after %d candidates" % (len(accepted), count, drawn))
    return np.array(accepted)


def distances(space: MetricSpaceHandle, P, Q) -> np.ndarray:
    """Distances d(P[..., r, :], Q[..., r, :]) of two broadcastable (..., n)
    stacks in one metric call: (k,) for two (k, n) stacks, where either side
    may be a single (n,) point; (P, k) for (P, 1, n) against (P, k, n).
    Raises ValueError when the metric does not return that shape, as a
    metric written for one pair does."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    shape = np.broadcast_shapes(P.shape, Q.shape)[:-1]
    d = np.asarray(space.distance(P, Q), dtype=float)
    if d.shape != shape:
        raise ValueError("distance(P, Q) must map (..., n) point stacks to the (...) array "
                         "of their distances: got shape %r for stacks %r and %r"
                         % (d.shape, P.shape, Q.shape))
    return d


def pairwise(space: MetricSpaceHandle, pts) -> np.ndarray:
    """(..., P, P) distance matrices of the (..., P, n) point stacks: one
    distances call over the unordered pairs, mirrored, so each matrix is
    exactly symmetric with a zero diagonal."""
    pts = np.asarray(pts, dtype=float)
    i, j = np.triu_indices(pts.shape[-2], 1)
    m = np.zeros(pts.shape[:-1] + pts.shape[-2:-1])
    m[..., i, j] = m[..., j, i] = distances(space, pts[..., i, :], pts[..., j, :])
    return m


def restrict(space: MetricSpaceHandle, pts: Sequence, base) -> FinitePointedSpace:
    """Finite pointed snapshot of the handle's metric on given points.

    base must be (bitwise) one of pts; distances are evaluated once per
    unordered pair and mirrored, so the matrix is exactly symmetric.
    """
    arr = np.array([as_point(p) for p in pts], dtype=float)
    base = as_point(base)
    base_idx = None
    for i, p in enumerate(arr):
        if np.array_equal(p, base):
            base_idx = i
            break
    if base_idx is None:
        raise ValueError("base point is not among the given points")
    return FinitePointedSpace(dmat=pairwise(space, arr), base=base_idx)


def rescale(fs: FinitePointedSpace, factor: float) -> FinitePointedSpace:
    """Multiply every distance by factor > 0. factor=1 is a bitwise no-op."""
    if not (factor > 0.0):
        raise ValueError("factor must be positive")
    return replace(fs, dmat=fs.dmat * float(factor))


def snowflake_distance(space: MetricSpaceHandle, a: float) -> MetricSpaceHandle:
    """Handle with distance d^a for 0 < a <= 1 (same chart).

    Concavity of t^a keeps the triangle inequality; a=1 returns a handle whose
    distance values are unchanged. A ball of radius r in d^a is the ball of
    radius r^(1/a) in d, which is what the sampling hint encodes.
    """
    if not (0.0 < a <= 1.0):
        raise ValueError("snowflake exponent must lie in (0, 1]")
    base_d = space.distance

    def d(p, q):
        # Python's float power on each value: numpy's array power can differ
        # from it in the last bit
        base = np.asarray(base_d(p, q), dtype=float)
        return np.array([v ** a for v in base.ravel().tolist()]).reshape(base.shape)

    if space.ball_box is not None:
        base_hint = space.ball_box
        hint = lambda c, r: np.asarray(base_hint(c, r ** (1.0 / a)), dtype=float)
    else:
        dim = space.dim
        hint = lambda c, r: np.full(dim, r ** (1.0 / a))
    return replace(space, distance=d, ball_box=hint)
