"""Small shared helpers: point coercion, scale schedules, chart boxes and the
Halton stream.

The Halton stream is computed here in numpy, so drawing from it loads no
scipy module.
"""

from typing import Sequence, Tuple

import numpy as np


def as_point(x) -> np.ndarray:
    """Coerce to a finite 1-D float vector."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ValueError("point must be a 1-D coordinate vector, got shape %r" % (p.shape,))
    if not np.isfinite(p).all():
        raise ValueError("point has non-finite coordinates: %r" % (p,))
    return p


def as_points(x) -> np.ndarray:
    """Coerce to a finite float array of points, shape (..., n)."""
    p = np.asarray(x, dtype=float)
    if p.ndim < 1:
        raise ValueError("points need a coordinate axis, got a scalar")
    if not np.isfinite(p).all():
        raise ValueError("points have non-finite coordinates")
    return p


def symmetric_box(n: int, half: float) -> np.ndarray:
    """(n, 2) chart box [-half, half]^n, one [lo, hi] row per axis."""
    half = float(half)
    return np.stack([np.full(n, -half), np.full(n, half)], axis=1)


def in_chart(box, P) -> np.ndarray:
    """The chart-box rule, elementwise on (..., n) coordinates P: a
    coordinate is in the chart when it is finite and, given an (n, 2) box,
    lo <= p <= hi on its axis. Row tests reduce over the last axis."""
    P = np.asarray(P, dtype=float)
    if box is None:
        return np.isfinite(P)
    return np.isfinite(P) & (P >= box[:, 0]) & (P <= box[:, 1])


def _first_primes(count: int) -> Tuple[int, ...]:
    """The first count primes, 2, 3, 5, ...: the Halton bases of count axes."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return tuple(primes)


def halton(dim: int, start: int, count: int) -> np.ndarray:
    """(count, dim) points of the unscrambled Halton stream from index start.

    Point i is the radical inverse of index start + i in the first dim prime
    bases, computed from the index alone: no point before start is made. The
    digits are summed least significant first, acc += digit * f with f from
    1 / base down by one division per digit, the same arithmetic as scipy's
    unscrambled van der Corput, so the stream is bitwise equal to
    scipy.stats.qmc.Halton(d=dim, scramble=False) fast-forwarded to start.
    """
    if start < 0 or count < 0:
        raise ValueError("halton needs start >= 0 and count >= 0, got %r, %r"
                         % (start, count))
    index = np.arange(start, start + count, dtype=np.int64)
    out = np.zeros((count, dim))
    for axis, base in enumerate(_first_primes(dim)):
        q = index
        f = 1.0 / base
        acc = out[:, axis]
        # one pass per base-`base` digit of the largest index; an index with
        # fewer digits adds 0.0, which leaves its sum's bits unchanged
        top = start + count - 1
        while top > 0:
            acc += (q % base) * f
            q = q // base
            f /= base
            top //= base
    return out


def halving_schedule(start: float = 0.5, count: int = 12) -> np.ndarray:
    """Strictly decreasing schedule start, start/2, ..., start/2**(count-1)."""
    if not (0.0 < start <= 1.0):
        raise ValueError("schedule must start in (0, 1], got %r" % start)
    if count < 2:
        raise ValueError("schedule needs at least 2 entries")
    return start * 0.5 ** np.arange(count, dtype=float)


def check_schedule(eps_schedule: Sequence[float]) -> np.ndarray:
    """Validate a scale schedule: strictly decreasing, inside (0, 1].

    A 1-D float ndarray, as every TangentData.eps and halving_schedule is, is
    checked and returned as it is, not copied: the result aliases its input.
    """
    eps = np.asarray(eps_schedule, dtype=float)
    if eps.ndim != 1 or eps.size < 2:
        raise ValueError("schedule must hold at least 2 scales")
    # on Python floats, which cost less than numpy's dispatch on a dozen
    # entries; the entry test is false for a NaN, which no ordering test catches
    es = eps.tolist()
    if not all(0.0 < t <= 1.0 for t in es):
        raise ValueError("schedule entries must lie in (0, 1]")
    if not all(a > b for a, b in zip(es, es[1:])):
        raise ValueError("schedule must be strictly decreasing")
    return eps
