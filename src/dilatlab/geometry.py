"""Metric-space primitives: chart-based handles, ball sampling, finite
pointed spaces and the snowflake transform.

Everything lives in a single coordinate chart (an axis-aligned box in R^n);
the distance attached to a handle is an arbitrary callable, so handles can
carry Euclidean, diffeomorphism-pulled, snowflaked or Carnot-Caratheodory
metrics without the samplers caring.
"""

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.stats import qmc

from .errors import SamplingExhausted
from .util import as_point

# Rejection sampling gives up after this many candidates per requested point.
CANDIDATE_BUDGET = 200


@dataclass(frozen=True)
class MetricSpaceHandle:
    """A metric on an open chart box.

    distance   symmetric callable d(p, q) -> float >= 0
    chart_box  (dim, 2) array of per-axis [lo, hi] bounds
    ball_box   optional hint: (center, radius) -> per-axis halfwidths of a
               box guaranteed to contain the metric ball, for metrics whose
               balls are very anisotropic in chart coordinates
    """

    dim: int
    distance: Callable[[np.ndarray, np.ndarray], float]
    chart_box: np.ndarray
    ball_box: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        box = np.asarray(self.chart_box, dtype=float)
        if box.shape != (self.dim, 2) or np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("chart_box must be (dim, 2) with lo < hi rows")
        object.__setattr__(self, "chart_box", box)

    def contains(self, p: np.ndarray) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= self.chart_box[:, 0]) and np.all(p <= self.chart_box[:, 1]))


def box_handle(dim: int, distance, halfwidth: float = 3.0, name: str = "",
               ball_box=None) -> MetricSpaceHandle:
    """Handle on the symmetric box [-halfwidth, halfwidth]^dim."""
    box = np.stack([np.full(dim, -halfwidth), np.full(dim, halfwidth)], axis=1)
    return MetricSpaceHandle(dim=dim, distance=distance, chart_box=box,
                             ball_box=ball_box, name=name)


def euclidean_handle(dim: int) -> MetricSpaceHandle:
    d = lambda p, q: float(np.linalg.norm(np.asarray(p) - np.asarray(q)))
    return box_handle(dim, d, name="euclidean%d" % dim,
                      ball_box=lambda c, r: np.full(dim, r))


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
                raise ValueError("triangle inequality violated beyond slack")
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
    chart) and filtered by the actual metric; the budget is 200x count
    candidates, after which SamplingExhausted is raised. Deterministic for a
    fixed seed (the seed fast-forwards the Halton stream).
    """
    center = as_point(center)
    if center.size != space.dim:
        raise ValueError("center dimension mismatch")
    if radius <= 0.0:
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
    engine = qmc.Halton(d=space.dim, scramble=False)
    engine.fast_forward(1 + int(seed))

    slack = radius * (1.0 + 1e-12)
    accepted = []
    drawn = 0
    while drawn < budget and len(accepted) < count:
        chunk = min(256, budget - drawn)
        u = engine.random(chunk)
        drawn += chunk
        pts = lo + u * (hi - lo)
        for p in pts:
            if space.distance(center, p) <= slack:
                accepted.append(p)
                if len(accepted) == count:
                    break
    if len(accepted) < count:
        raise SamplingExhausted(
            "accepted %d/%d points after %d candidates" % (len(accepted), count, drawn))
    return np.array(accepted)


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
    n = len(arr)
    m = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(space.distance(arr[i], arr[j]))
            m[i, j] = d
            m[j, i] = d
    return FinitePointedSpace(dmat=m, base=base_idx)


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
    d = lambda p, q: float(base_d(p, q)) ** a

    if space.ball_box is not None:
        base_hint = space.ball_box
        hint = lambda c, r: np.asarray(base_hint(c, r ** (1.0 / a)), dtype=float)
    else:
        dim = space.dim
        hint = lambda c, r: np.full(dim, r ** (1.0 / a))
    return replace(space, distance=d, ball_box=hint,
                   name=(space.name + "^%g" % a) if space.name else "snowflake-%g" % a)
