"""Scale-limit estimation along decreasing schedules.

All tangent-space quantities in this package arise as limits of a function of
a scale parameter eps -> 0 evaluated along a finite schedule. This module
owns the bookkeeping: successive-difference convergence verdicts, first-order
Richardson extrapolation when the data supports it, and an honest fallback
(last value, last difference as the error) when it does not.
"""

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

    @property
    def diffs(self) -> np.ndarray:
        v = np.atleast_2d(self.values.reshape(len(self.eps), -1))
        return np.max(np.abs(np.diff(v, axis=0)), axis=1)

    def table_rows(self) -> list:
        """Rows for the fixed report table (eps, value, diff, extrapolated, error)."""
        v = self.values.reshape(len(self.eps), -1)
        ex = np.ravel(self.extrapolated)
        rows = []
        for k, e in enumerate(self.eps):
            diff = float(np.max(np.abs(v[k] - v[k - 1]))) if k else ""
            rows.append({
                "eps": float(e),
                "value": float(v[k][0]) if v.shape[1] == 1 else [float(t) for t in v[k]],
                "diff": diff,
                "extrapolated": float(ex[0]) if ex.size == 1 else [float(t) for t in ex],
                "error": float(self.error),
            })
        return rows


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
    is returned as the estimate with the last difference as its error bound.
    """
    eps = check_schedule(eps_schedule)
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != eps.size:
        raise ValueError("one value (scalar or vector) per scheduled eps required")
    if eps.size < 3:
        raise ValueError("need at least 3 scales for a verdict")

    flat = vals.reshape(eps.size, -1)
    scale = max(1.0, float(np.max(np.abs(flat))))
    tol = 1e-6 * scale
    floor = NOISE_FLOOR * scale

    diffs = np.max(np.abs(np.diff(flat, axis=0)), axis=1)
    last = flat[-1]

    # Exactly-constant sequences (modulo float noise) are converged limits.
    if np.all(diffs <= floor):
        return LimitEstimate(eps=eps, values=vals, extrapolated=last.reshape(vals.shape[1:]),
                             error=float(max(diffs[-1], floor)), converged=True,
                             note="constant")

    # Trend verdict on the trailing differences above the noise floor.
    live = diffs[diffs > floor]
    tail = live[-TREND_STEPS:] if live.size >= 2 else live
    decaying = all(tail[i] >= DECAY_FACTOR * tail[i + 1] for i in range(len(tail) - 1))
    # A sequence that moved less than tol over the last three halvings has
    # settled even if the sub-tol jitter is not monotone (e.g. measurement
    # noise above the float floor).
    settled = bool(diffs.size >= 3 and np.all(diffs[-3:] <= tol))
    converged = bool((decaying and diffs[-1] < tol) or settled) \
        if live.size >= 2 else settled

    # First-order check against the schedule's own step ratios.
    step = np.abs(np.diff(eps))
    predicted = step[1:] / step[:-1]
    observed = np.divide(diffs[1:], diffs[:-1],
                         out=np.full(diffs.size - 1, np.nan), where=diffs[:-1] > floor)
    tail_n = min(3, observed.size)
    ok = []
    for k in range(observed.size - tail_n, observed.size):
        r, p = observed[k], predicted[k]
        ok.append(np.isfinite(r) and RATIO_BAND[0] * p <= r <= RATIO_BAND[1] * p)
    first_order = bool(ok) and all(ok)

    if first_order:
        e0, e1 = eps[-2], eps[-1]
        extrap = (flat[-1] * e0 - flat[-2] * e1) / (e0 - e1)
        # extrapolation removes the first-order term, so its accuracy is
        # judged by agreement with the extrapolant of the previous pair
        # (a conservative multiple of the next-order residual)
        p0, p1 = eps[-3], eps[-2]
        extrap_prev = (flat[-2] * p0 - flat[-3] * p1) / (p0 - p1)
        err = float(np.max(np.abs(extrap - extrap_prev)) + floor)
        converged = bool(converged or err <= tol)
        note = "richardson"
    else:
        extrap = last.copy()
        err = float(diffs[-1])
        note = "fallback-last"

    return LimitEstimate(eps=eps, values=vals,
                         extrapolated=extrap.reshape(vals.shape[1:]),
                         error=err, converged=converged, note=note)


def decays_to_zero(values, tol: float) -> bool:
    """Verdict on a sequence of nonnegative gaps that should shrink to zero:
    each value is at most max(1.1 x previous, tol) and the last is at most
    tol. The 10% slack absorbs sampling jitter between scales; values below
    tol may move freely."""
    v = [float(t) for t in values]
    return all(b <= max(1.1 * a, tol) for a, b in zip(v, v[1:])) and v[-1] <= tol
