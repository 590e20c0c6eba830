"""Pointed Gromov-Hausdorff gap: exact solver vs a brute-force oracle."""

import itertools

import numpy as np
import pytest

from dilatlab.errors import SizeLimitExceeded
from dilatlab.geometry import FinitePointedSpace, euclidean_handle, restrict, rescale
from dilatlab.axioms import check_profile_continuity
from dilatlab.gromov import distortion, gh_lower_bound, gh_pointed_exact, metric_profile

np.random.seed(1)


# === brute-force oracle =====================================================
# Enumerates every correspondence containing the base pair on spaces of at
# most 3 points and minimizes the distortion directly. Written independently
# of the solver's search order.

def oracle_gh(A: FinitePointedSpace, B: FinitePointedSpace) -> float:
    nA, nB = A.size, B.size
    assert nA <= 3 and nB <= 3
    base_pair = (A.base, B.base)
    cells = [(i, j) for i in range(nA) for j in range(nB) if (i, j) != base_pair]
    best = np.inf
    for r in range(len(cells) + 1):
        for subset in itertools.combinations(cells, r):
            pairs = set(subset) | {base_pair}
            if set(i for i, _ in pairs) != set(range(nA)):
                continue
            if set(j for _, j in pairs) != set(range(nB)):
                continue
            dis = max(abs(A.dmat[i1, i2] - B.dmat[j1, j2])
                      for (i1, j1) in pairs for (i2, j2) in pairs)
            best = min(best, dis)
    return best / 2.0


def random_space(n, scale, rng):
    pts = scale * rng.standard_normal((n, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return FinitePointedSpace(dmat=d, base=0)


def two_pt(a):
    return FinitePointedSpace(dmat=np.array([[0.0, a], [a, 0.0]]), base=0)


def test_hand_cases():
    assert gh_pointed_exact(two_pt(1.0), two_pt(1.0)) == 0.0
    assert gh_pointed_exact(two_pt(1.0), two_pt(3.0)) == pytest.approx(1.0)
    single = FinitePointedSpace(dmat=np.zeros((1, 1)), base=0)
    assert gh_pointed_exact(single, two_pt(2.0)) == pytest.approx(1.0)
    # symmetric
    assert (gh_pointed_exact(two_pt(1.0), two_pt(3.0))
            == gh_pointed_exact(two_pt(3.0), two_pt(1.0)))


def test_matches_bruteforce_oracle():
    rng = np.random.RandomState(7)
    for trial in range(40):
        A = random_space(rng.randint(1, 4), 1.0, rng)
        B = random_space(rng.randint(1, 4), rng.uniform(0.5, 2.0), rng)
        got = gh_pointed_exact(A, B)
        want = oracle_gh(A, B)
        assert got == pytest.approx(want, abs=1e-12), (A.dmat, B.dmat)


# === second oracle: a map each way ==========================================
# Every covering relation that holds the base pair contains graph(f) and the
# transpose of graph(g) for some base-preserving maps f: A -> B, g: B -> A
# (pick one partner per point), and distortion only grows with the relation,
# so the least distortion over those unions is exact. At most 4^3 * 4^3 =
# 4096 unions per pair of spaces of up to 4 points.

def oracle_maps(A: FinitePointedSpace, B: FinitePointedSpace) -> float:
    restA = [i for i in range(A.size) if i != A.base]
    restB = [j for j in range(B.size) if j != B.base]
    best = np.inf
    for f in itertools.product(range(B.size), repeat=len(restA)):
        for g in itertools.product(range(A.size), repeat=len(restB)):
            pairs = {(A.base, B.base)} | set(zip(restA, f)) | set(zip(g, restB))
            best = min(best, distortion(sorted(pairs), A, B))
    return best / 2.0


def l1_int_space(n, rng):
    # small-integer points under l1: few distinct distances, many ties
    pts = rng.randint(0, 3, size=(n, 2)).astype(float)
    return FinitePointedSpace(dmat=np.abs(pts[:, None] - pts[None]).sum(axis=2),
                              base=rng.randint(n))


def euclidean_space(n, rng):
    pts = rng.uniform(0.3, 3.0) * rng.standard_normal((n, rng.randint(1, 4)))
    return FinitePointedSpace(dmat=np.linalg.norm(pts[:, None] - pts[None], axis=2),
                              base=rng.randint(n))


@pytest.mark.parametrize("make", [euclidean_space, l1_int_space])
def test_equals_the_map_pair_oracle_up_to_size_4(make):
    rng = np.random.RandomState(29)
    sizes = list(itertools.product(range(1, 5), repeat=2))
    for nA, nB in sizes + [sizes[k] for k in rng.randint(len(sizes), size=64)]:
        A, B = make(nA, rng), make(nB, rng)
        assert gh_pointed_exact(A, B) == oracle_maps(A, B), (A.dmat, A.base, B.dmat, B.base)


def test_lower_bound_is_lower():
    rng = np.random.RandomState(11)
    for trial in range(30):
        A = random_space(rng.randint(2, 5), 1.0, rng)
        B = random_space(rng.randint(2, 5), rng.uniform(0.5, 2.0), rng)
        exact = gh_pointed_exact(A, B)
        lb = gh_lower_bound(A, B)
        assert lb <= exact + 1e-12


def test_identical_spaces_zero_gap():
    rng = np.random.RandomState(3)
    A = random_space(5, 1.0, rng)
    assert gh_pointed_exact(A, A) == 0.0


def test_rescale_shrinks_gap_linearly():
    A = two_pt(1.0)
    B = two_pt(2.0)
    g = gh_pointed_exact(A, B)
    g2 = gh_pointed_exact(rescale(A, 0.5), rescale(B, 0.5))
    assert g2 == pytest.approx(0.5 * g)


def test_size_limit():
    rng = np.random.RandomState(5)
    big = random_space(8, 1.0, rng)
    with pytest.raises(SizeLimitExceeded):
        gh_pointed_exact(big, big)


def test_distortion_and_correspondence():
    A, B = two_pt(1.0), two_pt(3.0)
    assert distortion(((0, 0), (1, 1)), A, B) == pytest.approx(2.0)


def test_metric_profile_euclidean_flat():
    h = euclidean_handle(2)
    x = np.zeros(2)
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    curve = metric_profile(h, x, eps, count=5, seed=2)
    assert len(curve.points) == 4
    # homogeneous space: rescaled snapshots are isometric copies
    report = check_profile_continuity(curve)
    assert report.converged
    assert max(row["value"] for row in report.table) <= 1e-10


def test_restricted_profile_has_base_first():
    h = euclidean_handle(2)
    eps = np.array([0.5, 0.25, 0.125])
    curve = metric_profile(h, np.array([0.3, -0.2]), eps, count=4, seed=0)
    for pt in curve.points:
        assert pt.space.base == 0
        assert pt.space.dmat.shape[0] == 4
