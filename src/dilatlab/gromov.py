"""Pointed Gromov-Hausdorff distance for small finite spaces, plus metric
profiles (rescaled ball snapshots along a scale schedule).

The exact distance is half the minimal distortion over correspondences that
contain the base pair. Any correspondence contains a sub-correspondence of
the form graph(f) + partners for the B-points f misses, with no larger
distortion, so the exact minimum is found by branching over those maps with
an incremental distortion prune. Sizes are capped at SIZE_LIMIT: the search is
exponential and meant for tangent-cone-sized snapshots, not point clouds.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SizeLimitExceeded
from .geometry import FinitePointedSpace, MetricSpaceHandle, restrict, rescale, sample_ball
from .limits import decays_to_zero
from .util import as_point, check_schedule

SIZE_LIMIT = 7


@dataclass(frozen=True)
class Correspondence:
    """A relation between two finite pointed spaces, as index pairs."""

    pairs: tuple

    def covers(self, nA: int, nB: int) -> bool:
        sa = {i for i, _ in self.pairs}
        sb = {j for _, j in self.pairs}
        return sa == set(range(nA)) and sb == set(range(nB))


def distortion(corr: Correspondence, A: FinitePointedSpace, B: FinitePointedSpace) -> float:
    """max |dA(i,k) - dB(j,l)| over pairs (i,j), (k,l) of the relation."""
    ia = np.array([p[0] for p in corr.pairs], dtype=int)
    jb = np.array([p[1] for p in corr.pairs], dtype=int)
    return float(np.max(np.abs(A.dmat[np.ix_(ia, ia)] - B.dmat[np.ix_(jb, jb)])))


def _greedy_upper_bound(A, B) -> float:
    """Distortion of a rank-matched correspondence (sorted by base distance)."""
    nA, nB = A.size, B.size
    ordA = np.argsort(A.dmat[A.base], kind="stable")
    ordB = np.argsort(B.dmat[B.base], kind="stable")
    pairs = set()
    for t in range(max(nA, nB)):
        pairs.add((int(ordA[min(t, nA - 1)]), int(ordB[min(t, nB - 1)])))
    corr = Correspondence(pairs=tuple(sorted(pairs)))
    return distortion(corr, A, B)


def gh_pointed_exact(A: FinitePointedSpace, B: FinitePointedSpace) -> float:
    """Exact pointed Gromov-Hausdorff distance between finite spaces.

    Raises SizeLimitExceeded above SIZE_LIMIT points. The base pair is forced into
    every correspondence considered.
    """
    nA, nB = A.size, B.size
    if nA > SIZE_LIMIT or nB > SIZE_LIMIT:
        raise SizeLimitExceeded("sizes (%d, %d) above exact-search limit %d"
                                % (nA, nB, SIZE_LIMIT))
    dA, dB = A.dmat, B.dmat
    bA, bB = A.base, B.base

    best = [_greedy_upper_bound(A, B) + 1e-30]

    # Branch order: large-eccentricity points first (stronger pruning).
    eccA = dA.max(axis=1)
    slotsA = [int(i) for i in np.argsort(-eccA, kind="stable") if i != bA]
    eccB = dB.max(axis=1)

    ia = [bA]
    jb = [bB]

    def descend_B(slotsB, t, cur):
        if t == len(slotsB):
            best[0] = cur
            return
        j = slotsB[t]
        incs = np.max(np.abs(dA[:, ia] - dB[j, jb][None, :]), axis=1)
        for i in np.argsort(incs, kind="stable"):
            nxt = max(cur, float(incs[i]))
            if nxt >= best[0]:
                break
            ia.append(int(i))
            jb.append(j)
            descend_B(slotsB, t + 1, nxt)
            ia.pop()
            jb.pop()

    def descend_A(t, cur):
        if t == len(slotsA):
            covered = set(jb)
            rest = [j for j in range(nB) if j not in covered]
            rest.sort(key=lambda j: -eccB[j])
            descend_B(rest, 0, cur)
            return
        i = slotsA[t]
        incs = np.max(np.abs(dA[i, ia][None, :] - dB[:, jb]), axis=1)
        for j in np.argsort(incs, kind="stable"):
            nxt = max(cur, float(incs[j]))
            if nxt >= best[0]:
                break
            ia.append(i)
            jb.append(int(j))
            descend_A(t + 1, nxt)
            ia.pop()
            jb.pop()

    descend_A(0, float(np.abs(dA[bA, bA] - dB[bB, bB])))  # = 0.0, seeds the base pair
    return 0.5 * best[0]


def _directed_value_gap(va: np.ndarray, vb: np.ndarray) -> float:
    """sup over a of min over b of |a - b|, both arrays sorted."""
    idx = np.searchsorted(vb, va)
    lo = np.clip(idx - 1, 0, vb.size - 1)
    hi = np.clip(idx, 0, vb.size - 1)
    return float(np.max(np.minimum(np.abs(va - vb[lo]), np.abs(va - vb[hi]))))


def gh_lower_bound(A: FinitePointedSpace, B: FinitePointedSpace) -> float:
    """Cheap lower bound for the pointed GH distance, any sizes.

    Uses half the larger of (i) the base-radius gap and (ii) the Hausdorff
    distance between the sets of realized distance values: a correspondence of
    distortion D matches every distance value of one space to a value of the
    other within D, and base radii within D.
    """
    va = np.unique(A.dmat)
    vb = np.unique(B.dmat)
    h = max(_directed_value_gap(va, vb), _directed_value_gap(vb, va))
    return 0.5 * max(abs(A.radius - B.radius), h)


def approx_isometry_check(A: FinitePointedSpace, B: FinitePointedSpace, b: float) -> bool:
    """True iff some base-preserving correspondence has distortion <= b.

    Equivalent to gh_pointed_exact(A, B) <= b/2, so a True verdict certifies
    the GH distance is at most b.
    """
    if b < 0.0:
        raise ValueError("bound must be nonnegative")
    return gh_pointed_exact(A, B) <= 0.5 * b + 1e-15


# ---------------------------------------------------------------------------
# Metric profiles


@dataclass(frozen=True)
class ProfilePoint:
    """Rescaled snapshot of the ball B(x, eps): distances divided by eps."""

    eps: float
    space: FinitePointedSpace
    density: float  # max over points of nearest-neighbour distance (rescaled)


@dataclass(frozen=True)
class ProfileCurve:
    points: tuple

    @property
    def density(self) -> float:
        return max(p.density for p in self.points)

    def to_jsonable(self) -> dict:
        return {
            "points": [
                {"eps": p.eps, "density": p.density, "space": p.space.to_jsonable()}
                for p in self.points
            ],
            "density": self.density,
        }


@dataclass(frozen=True)
class LimitVerdict:
    converged: bool
    residual: float
    gaps: tuple


def _sample_density(dmat: np.ndarray) -> float:
    if dmat.shape[0] < 2:
        return 0.0
    m = dmat + np.diag(np.full(dmat.shape[0], np.inf))
    return float(np.max(np.min(m, axis=1)))


def metric_profile(space: MetricSpaceHandle, x, eps_schedule, count: int,
                   seed: int = 0) -> ProfileCurve:
    """Profile curve of the space at x: for each eps, count points of
    B(x, eps) (x included, marked as base) with distances rescaled by 1/eps.
    """
    eps = check_schedule(eps_schedule)
    x = as_point(x)
    if count < 2:
        raise ValueError("count must be >= 2 (base point plus samples)")
    pts_out = []
    for e in eps:
        ball = sample_ball(space, x, float(e), count - 1, seed=seed)
        fs = restrict(space, [x] + [p for p in ball], x)
        scaled = rescale(fs, 1.0 / float(e))
        pts_out.append(ProfilePoint(eps=float(e), space=scaled,
                                    density=_sample_density(scaled.dmat)))
    return ProfileCurve(points=tuple(pts_out))


def profile_continuity_at_zero(curve: ProfileCurve, tol: float) -> LimitVerdict:
    """Converged iff the successive GH gaps decay to zero in the sense of
    limits.decays_to_zero (10% slack, final gap at most tol). A constant
    curve converges trivially; a curve alternating between non-isometric
    snapshots does not (final gap stays up).
    """
    pts = curve.points
    if len(pts) < 2:
        raise ValueError("need at least two profile points")
    gaps = [gh_pointed_exact(pts[k].space, pts[k + 1].space) for k in range(len(pts) - 1)]
    return LimitVerdict(converged=decays_to_zero(gaps, tol), residual=float(gaps[-1]),
                        gaps=tuple(gaps))
