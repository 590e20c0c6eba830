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

import numpy as np

from .errors import SizeLimitExceeded
from .geometry import FinitePointedSpace, MetricSpaceHandle, restrict, rescale, sample_ball
from .util import as_point, check_schedule

SIZE_LIMIT = 7


def distortion(pairs, A: FinitePointedSpace, B: FinitePointedSpace) -> float:
    """max |dA(i,k) - dB(j,l)| over the index pairs (i,j), (k,l) of a
    relation between A and B."""
    return _distortion(pairs, A.dmat.tolist(), B.dmat.tolist())


def _distortion(pairs, dA: list, dB: list) -> float:
    """distortion on the distance matrices as lists of rows."""
    return max(abs(dA[i][k] - dB[j][l]) for i, j in pairs for k, l in pairs)


def _greedy_upper_bound(dA: list, bA: int, dB: list, bB: int) -> float:
    """Distortion of a rank-matched correspondence (sorted by base distance)."""
    nA, nB = len(dA), len(dB)
    ordA = sorted(range(nA), key=dA[bA].__getitem__)  # stable: ties keep index order
    ordB = sorted(range(nB), key=dB[bB].__getitem__)
    pairs = sorted({(ordA[min(t, nA - 1)], ordB[min(t, nB - 1)]) for t in range(max(nA, nB))})
    return _distortion(pairs, dA, dB)


def gh_pointed_exact(A: FinitePointedSpace, B: FinitePointedSpace) -> float:
    """Exact pointed Gromov-Hausdorff distance between finite spaces.

    Raises SizeLimitExceeded above SIZE_LIMIT points. The base pair is forced into
    every correspondence considered.
    """
    if max(A.size, B.size) > SIZE_LIMIT:
        raise SizeLimitExceeded("sizes (%d, %d) above exact-search limit %d"
                                % (A.size, B.size, SIZE_LIMIT))
    # at most 7 x 7 distances: the search runs on Python floats, not numpy
    dm = (A.dmat.tolist(), B.dmat.tolist())
    cols = ([A.base], [B.base])  # the pairs so far, as A and B index columns
    best = [_greedy_upper_bound(dm[0], A.base, dm[1], B.base) + 1e-30]

    # One slot per branching point, large eccentricity first (stronger
    # pruning): each non-base A point takes a B partner, then each B point
    # those pairs miss takes an A partner. Which B points are missed depends
    # on the branch, so the B slots are set each time the A slots run out.
    # Ties keep index order: sorted is stable, also with reverse=True.
    order = [sorted(range(len(d)), key=[max(row) for row in d].__getitem__, reverse=True)
             for d in dm]
    slots = [(0, i) for i in order[0] if i != A.base]
    nA_slots = len(slots)

    def descend(t, cur):
        if t == nA_slots:
            slots[t:] = [(1, j) for j in order[1] if j not in cols[1]]
        if t == len(slots):
            best[0] = cur
            return
        s, p = slots[t]
        # the new pair's distortion against every pair so far, per partner q
        row = [dm[s][p][c] for c in cols[s]]
        incs = [max([abs(a - b[c]) for a, c in zip(row, cols[1 - s])]) for b in dm[1 - s]]
        for q in sorted(range(len(incs)), key=incs.__getitem__):
            nxt = max(cur, incs[q])
            if nxt >= best[0]:
                break
            cols[s].append(p)
            cols[1 - s].append(q)
            descend(t + 1, nxt)
            cols[s].pop()
            cols[1 - s].pop()

    descend(0, 0.0)  # the base pair's distortion |dA(bA, bA) - dB(bB, bB)| is 0
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
