"""Small shared helpers: point coercion, scale schedules, chart boxes and the
Halton stream."""

from typing import Iterable

import numpy as np


def as_point(x) -> np.ndarray:
    """Coerce to a finite 1-D float vector."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ValueError("point must be a 1-D coordinate vector, got shape %r" % (p.shape,))
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates: %r" % (p,))
    return p


def as_points(x) -> np.ndarray:
    """Coerce to a finite float array of points, shape (..., n)."""
    p = np.asarray(x, dtype=float)
    if p.ndim < 1:
        raise ValueError("points need a coordinate axis, got a scalar")
    if not np.all(np.isfinite(p)):
        raise ValueError("points have non-finite coordinates")
    return p


def symmetric_box(n: int, half: float) -> np.ndarray:
    """(n, 2) chart box [-half, half]^n, one [lo, hi] row per axis."""
    half = float(half)
    return np.stack([np.full(n, -half), np.full(n, half)], axis=1)


def halton(dim: int, start: int, count: int) -> np.ndarray:
    """(count, dim) points of the unscrambled Halton sequence from index start.

    scipy.stats loads on the first draw, not with the package.
    """
    from scipy.stats import qmc

    engine = qmc.Halton(d=dim, scramble=False)
    engine.fast_forward(start)
    return engine.random(count)


def halving_schedule(start: float = 0.5, count: int = 12) -> np.ndarray:
    """Strictly decreasing schedule start, start/2, ..., start/2**(count-1)."""
    if not (0.0 < start <= 1.0):
        raise ValueError("schedule must start in (0, 1], got %r" % start)
    if count < 2:
        raise ValueError("schedule needs at least 2 entries")
    return start * 0.5 ** np.arange(count, dtype=float)


def check_schedule(eps_schedule: Iterable[float]) -> np.ndarray:
    """Validate a scale schedule: strictly decreasing, inside (0, 1]."""
    eps = np.asarray(list(eps_schedule), dtype=float)
    if eps.ndim != 1 or eps.size < 2:
        raise ValueError("schedule must hold at least 2 scales")
    if np.any(eps <= 0.0) or np.any(eps > 1.0):
        raise ValueError("schedule entries must lie in (0, 1]")
    if np.any(np.diff(eps) >= 0.0):
        raise ValueError("schedule must be strictly decreasing")
    return eps
