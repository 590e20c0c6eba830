"""Scale-limit estimation along decreasing schedules.

All tangent-space quantities in this package arise as limits of a function of
a scale parameter eps -> 0 evaluated along a finite schedule. This module
owns the bookkeeping: successive-difference convergence verdicts, first-order
Richardson extrapolation when the data supports it, and an honest fallback
(last value, last difference as the error) when it does not.

Where numpy stops: the sequences are measured in numpy, one batched dil and
metric call per schedule (axioms._sequences), and richardson_limit takes one
of them as an ndarray. A sequence holds a dozen scalars or small vectors, on
which each numpy call costs more in dispatch than in arithmetic, so the
verdict reads them once with tolist() and works on Python floats: the same
IEEE operations in the same order, hence the same bits, with numpy's NaN
rules kept by hand (a NaN wins a max and an argmin). Only the limit goes back
into an ndarray.
"""

import math
from dataclasses import dataclass

import numpy as np

from .util import check_schedule

# Diffs at or below this relative floor count as "exactly constant".
NOISE_FLOOR = 5e-13
# A diff ratio is treated as first-order if it sits within these multiples of
# the schedule's own step-ratio prediction.
RATIO_BAND = (0.7, 1.4)
# Converged means diffs kept shrinking at least this fast near the end ...
DECAY_FACTOR = 1.2
# ... over this many trailing steps (where diffs are above the noise floor).
TREND_STEPS = 4


@dataclass
class LimitEstimate:
    """Outcome of a limit along a schedule.

    values holds one scalar or one vector per scale; extrapolated matches its
    shape. error is an a-posteriori bound: |last - extrapolated| plus the last
    successive difference.
    """

    eps: np.ndarray
    values: np.ndarray
    extrapolated: np.ndarray
    error: float
    converged: bool
    note: str = ""

    def table_rows(self) -> list:
        """Rows for the fixed report table, one per scale (see _table_row)."""
        v = self.values.reshape(len(self.eps), -1)
        ex = np.ravel(self.extrapolated)
        cell = lambda t: float(t[0]) if t.size == 1 else [float(c) for c in t]
        return [_table_row(float(e), cell(v[k]),
                           diff=float(np.max(np.abs(v[k] - v[k - 1]))) if k else "",
                           extrapolated=cell(ex), error=float(self.error))
                for k, e in enumerate(self.eps)]


def _table_row(eps, value, diff="", extrapolated=0.0, error="") -> dict:
    """One row of the report table (eps, value, diff, extrapolated, error); a
    check with no successive difference or error bar leaves those cells empty."""
    return {"eps": eps, "value": value, "diff": diff, "extrapolated": extrapolated,
            "error": error}


def richardson_limit(eps_schedule, values) -> LimitEstimate:
    """Estimate the eps -> 0 limit of values sampled along eps_schedule.

    The verdict is based on successive max-norm differences: converged when
    they keep decreasing by at least DECAY_FACTOR over the trailing steps and
    the final difference is below tol = 1e-6 relative to the value scale, or
    when all differences sit at the float noise floor.

    Extrapolation: if the trailing difference ratios match the first-order
    prediction (eps[k+2]-eps[k+1]) / (eps[k+1]-eps[k]) within RATIO_BAND, the
    general two-point first-order formula

        R = (v[k+1] * eps[k] - v[k] * eps[k+1]) / (eps[k] - eps[k+1])

    is applied to the last pair; the error is then the gap to the previous
    pair's extrapolant, and agreement within tol counts as converged even
    when the raw differences are still above tol. Otherwise the last value
    is returned as the estimate. Its error bound is the largest distance from
    it to a value at or after the smallest successive difference: the last
    difference when the differences shrink to the end, and the spread of the
    noisy tail when they grow again after their minimum.
    """
    eps = check_schedule(eps_schedule)
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != eps.size:
        raise ValueError("one value (scalar or vector) per scheduled eps required")
    if eps.size < 3:
        raise ValueError("need at least 3 scales for a verdict")

    # a dozen scales of at most a few coordinates: Python floats from here on
    es = eps.tolist()
    rows = vals.reshape(eps.size, -1).tolist()
    last = rows[-1]
    # max(1.0, nan) is 1.0: a sequence holding a NaN is judged at scale 1
    scale = max(1.0, _top([abs(t) for row in rows for t in row]))
    tol = 1e-6 * scale
    floor = NOISE_FLOOR * scale

    # successive max-norm differences, one coordinate at a time
    steps = [[abs(b - a) for a, b in zip(c, c[1:])] for c in zip(*rows)]
    diffs = steps[0] if len(steps) == 1 else list(map(max, *steps))
    if len(steps) > 1 and math.isnan(sum(map(sum, steps))):
        # numpy's max is NaN at a step where any coordinate is; Python's may skip it
        diffs = [_top(ts) for ts in zip(*steps)]

    # Exactly-constant sequences (modulo float noise) are converged limits.
    if _top(diffs) <= floor:
        return LimitEstimate(eps=eps, values=vals, extrapolated=_shaped(last, vals),
                             error=max(diffs[-1], floor), converged=True, note="constant")

    # Trend verdict on the trailing differences above the noise floor.
    live = [d for d in diffs if d > floor]
    tail = live[-TREND_STEPS:] if len(live) >= 2 else live
    decaying = all(a >= DECAY_FACTOR * b for a, b in zip(tail, tail[1:]))
    # A sequence that moved less than tol over the last three halvings has
    # settled even if the sub-tol jitter is not monotone (e.g. measurement
    # noise above the float floor).
    settled = len(diffs) >= 3 and all(d <= tol for d in diffs[-3:])
    converged = ((decaying and diffs[-1] < tol) or settled) if len(live) >= 2 else settled

    # First-order check against the schedule's own step ratios, on the last
    # three ratios; a ratio after a step at the noise floor is unknown (NaN).
    n = len(diffs) - 1
    ok = []
    for k in range(n - min(3, n), n):
        r = diffs[k + 1] / diffs[k] if diffs[k] > floor else math.nan
        p = (es[k + 1] - es[k + 2]) / (es[k] - es[k + 1])
        ok.append(math.isfinite(r) and RATIO_BAND[0] * p <= r <= RATIO_BAND[1] * p)
    first_order = bool(ok) and all(ok)

    if first_order:
        e0, e1 = es[-2], es[-1]
        extrap = [(b * e0 - a * e1) / (e0 - e1) for a, b in zip(rows[-2], last)]
        # extrapolation removes the first-order term, so its accuracy is
        # judged by agreement with the extrapolant of the previous pair
        # (a conservative multiple of the next-order residual)
        p0, p1 = es[-3], es[-2]
        extrap_prev = [(b * p0 - a * p1) / (p0 - p1) for a, b in zip(rows[-3], rows[-2])]
        err = _top([abs(a - b) for a, b in zip(extrap, extrap_prev)]) + floor
        converged = converged or err <= tol
        note = "richardson"
    else:
        extrap = last
        # the last difference, or, when the sequence got noisier after its
        # quietest step (a floor that grows as eps shrinks), the spread from
        # that step to the last value: the last difference alone can miss
        # noise the last two values share
        quiet = _argmin(diffs)
        err = _top([abs(t - s) for row in rows[quiet:] for t, s in zip(row, last)])
        note = "fallback-last"

    return LimitEstimate(eps=eps, values=vals, extrapolated=_shaped(extrap, vals),
                         error=err, converged=converged, note=note)


def _top(xs: list) -> float:
    """max of nonnegative floats, NaN when any is NaN (numpy's max rule;
    Python's max skips a NaN that is not first)."""
    s = sum(xs)  # NaN exactly when some entry is: nonnegative terms never give inf - inf
    return max(xs) if s == s else s


def _argmin(xs: list) -> int:
    """Index of the first minimum, or of the first NaN (numpy's argmin rule)."""
    for i, t in enumerate(xs):
        if t != t:
            return i
    return xs.index(min(xs))


def _shaped(coords: list, vals: np.ndarray) -> np.ndarray:
    """A fresh float array of one value's shape, vals.shape[1:]."""
    return np.array(coords).reshape(vals.shape[1:])


def decays_to_zero(values, tol: float) -> bool:
    """Verdict on a sequence of nonnegative gaps that should shrink to zero:
    each value is at most max(1.1 x previous, tol) and the last is at most
    tol. The 10% slack absorbs sampling jitter between scales; values below
    tol may move freely."""
    return decay_failure(values, tol) is None


def decay_failure(values, tol: float):
    """Where values fail decays_to_zero(values, tol): ("rise", k) at the first
    value k above max(1.1 x values[k - 1], tol), else ("last", k) at a last
    value k above tol, else None."""
    v, tol = [float(t) for t in values], float(tol)
    rise = [k for k in range(1, len(v)) if not v[k] <= max(1.1 * v[k - 1], tol)]
    return ("rise", rise[0]) if rise else None if v[-1] <= tol else ("last", len(v) - 1)
