"""Finite pointed spaces, ball sampling, and metric transforms."""

import numpy as np
import pytest

from dilatlab.carnot import warped_heisenberg_structure
from dilatlab.cli import MAX_SEED
from dilatlab.errors import DilatlabError, SamplingExhausted, TriangleViolation
from dilatlab.geometry import (CANDIDATE_BUDGET, FinitePointedSpace, MetricSpaceHandle,
                               box_handle, distances, euclidean_handle, pairwise, rescale,
                               restrict, sample_ball, snowflake_distance)
from dilatlab.structures import build_structure, structure_names
from dilatlab.util import halton, symmetric_box

np.random.seed(0)


def test_finite_space_validation():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    fs = FinitePointedSpace(dmat=d, base=0)
    assert fs.size == 2
    assert fs.radius == 1.0

    with pytest.raises(ValueError):
        FinitePointedSpace(dmat=np.array([[0.0, 1.0], [1.2, 0.0]]), base=0)
    with pytest.raises(ValueError):
        FinitePointedSpace(dmat=np.array([[0.1, 1.0], [1.0, 0.0]]), base=0)
    with pytest.raises(ValueError):
        FinitePointedSpace(dmat=d, base=5)
    # triangle violation: d(0,2) > d(0,1) + d(1,2), typed and still a ValueError
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(TriangleViolation) as info:
        FinitePointedSpace(dmat=bad, base=0)
    assert isinstance(info.value, ValueError) and isinstance(info.value, DilatlabError)


def test_radius_is_from_base():
    d = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 4.0], [3.0, 4.0, 0.0]])
    assert FinitePointedSpace(dmat=d, base=0).radius == 3.0
    assert FinitePointedSpace(dmat=d, base=1).radius == 4.0


def test_jsonable_roundtrip():
    d = np.array([[0.0, 1.5], [1.5, 0.0]])
    doc = FinitePointedSpace(dmat=d, base=1, labels=["p", "q"]).to_jsonable()
    assert doc["base"] == 1
    assert doc["dmat"][0][1] == 1.5
    assert doc["labels"] == ["p", "q"]


def test_sample_ball_euclidean():
    h = euclidean_handle(3)
    c = np.array([0.2, -0.1, 0.5])
    pts = sample_ball(h, c, 0.7, 40, seed=1)
    assert pts.shape == (40, 3)
    r = np.linalg.norm(pts - c, axis=1)
    assert np.all(r <= 0.7 * (1 + 1e-9))
    # deterministic for a fixed seed
    again = sample_ball(h, c, 0.7, 40, seed=1)
    assert np.array_equal(pts, again)
    other = sample_ball(h, c, 0.7, 40, seed=2)
    assert not np.array_equal(pts, other)


def test_sample_ball_refuses_a_nan_radius_before_measuring():
    measured = []

    def dist(p, q):
        measured.append(1)
        return np.sqrt(np.sum((p - q) ** 2, axis=-1))

    h = MetricSpaceHandle(2, dist, symmetric_box(2, 1.0))
    with pytest.raises(ValueError, match="radius must be positive"):
        sample_ball(h, np.zeros(2), float("nan"), 3)
    assert not measured
    # an infinite radius samples the whole chart
    pts = sample_ball(h, np.zeros(2), float("inf"), 3)
    assert pts.shape == (3, 2) and np.all(np.abs(pts) <= 1.0)


def test_sample_ball_exhaustion():
    # metric that no candidate can satisfy
    h = MetricSpaceHandle(2, lambda a, b: 10.0 + np.sqrt(np.sum((a - b) ** 2, axis=-1)),
                          symmetric_box(2, 1.0))
    with pytest.raises(SamplingExhausted):
        sample_ball(h, np.zeros(2), 0.5, 4, seed=0)


def test_restrict_and_rescale():
    h = euclidean_handle(2)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    fs = restrict(h, pts, pts[0])
    assert fs.base == 0
    assert fs.dmat[0, 1] == pytest.approx(1.0)
    assert fs.dmat[1, 2] == pytest.approx(np.hypot(1.0, 2.0))
    doubled = rescale(fs, 2.0)
    assert doubled.dmat[0, 2] == pytest.approx(4.0)
    assert doubled.base == 0


def test_pairwise_calls_each_unordered_pair_once():
    calls = []

    def dist(p, q):
        # not symmetric, so a mirrored entry shows which order was measured
        calls.append((p.copy(), q.copy()))
        return 1.0 + p[..., 0] - 0.5 * q[..., 0]

    pts = np.arange(5.0)[:, None]
    m = pairwise(MetricSpaceHandle(1, dist, symmetric_box(1, 10.0)), pts)
    # one metric call over the 5 * 4 / 2 unordered pairs, each once, i < j
    assert len(calls) == 1
    p, q = calls[0]
    assert sorted(zip(p[:, 0], q[:, 0])) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    assert m[1, 3] == dist(pts[1], pts[3])


def test_pairwise_takes_a_stack_of_point_sets():
    h = euclidean_handle(2)
    sets = np.random.RandomState(4).uniform(-1.0, 1.0, (3, 4, 2))
    stacked = pairwise(h, sets)
    assert stacked.shape == (3, 4, 4)
    for s in range(3):
        assert np.array_equal(stacked[s], pairwise(h, sets[s]))


def test_distances_broadcasts_one_point():
    h = euclidean_handle(2)
    stack = np.array([[3.0, 4.0], [0.0, 1.0], [1.0, 1.0]])
    want = np.array([5.0, 1.0, np.sqrt(2.0)])
    assert np.array_equal(distances(h, np.zeros(2), stack), want)
    assert np.array_equal(distances(h, stack, np.zeros(2)), want)
    assert np.array_equal(distances(h, stack, stack), np.zeros(3))


def test_snowflake_distance_values():
    h = euclidean_handle(2)
    s = snowflake_distance(h, 0.5)
    a, b = np.zeros(2), np.array([4.0, 0.0])
    assert s.distance(a, b) == pytest.approx(2.0)
    # snowflake ball hint still produces in-ball samples
    pts = sample_ball(s, a, 1.0, 25, seed=3)
    d = np.array([s.distance(a, p) for p in pts])
    assert np.all(d <= 1.0 + 1e-12)


def test_handle_contains():
    h = MetricSpaceHandle(2, euclidean_handle(2).distance, symmetric_box(2, 1.0))
    assert h.contains(np.array([0.5, -0.5]))
    assert not h.contains(np.array([1.5, 0.0]))


def test_halton_from_an_index_continues_the_stream():
    # scipy is the reference here only; fast_forward makes every skipped
    # point, so the starts stay small
    from scipy.stats import qmc

    for dim in range(1, 7):
        for start in (0, 1, 8, 301):
            eng = qmc.Halton(d=dim, scramble=False)
            eng.fast_forward(start)
            stream = eng.random(3 * 256)
            chunks = [halton(dim, start + 256 * c, 256) for c in range(3)]
            assert np.array_equal(np.concatenate(chunks), stream)


def _radical_inverse(index: int, base: int) -> float:
    """Scalar reference: the base-`base` digits of index mirrored about the
    radix point, summed least significant first."""
    acc, f = 0.0, 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        acc += digit * f
        f /= base
    return acc


FIRST_15_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def test_halton_matches_a_scalar_radical_inverse():
    # 15 axes, more than the CLI draws, and a start near the largest index a
    # sample_ball draw can reach from the CLI's highest seed
    count = 32
    for dim, start, n in ((15, 0, 40), (15, 977, 40),
                          (2, 1 + MAX_SEED + CANDIDATE_BUDGET * count - 40, 40)):
        got = halton(dim, start, n)
        want = [[_radical_inverse(start + i, b) for b in FIRST_15_PRIMES[:dim]]
                for i in range(n)]
        assert got.shape == (n, dim)
        assert np.array_equal(got, np.array(want))
    assert halton(3, 5, 0).shape == (0, 3)
    with pytest.raises(ValueError):
        halton(2, -1, 4)


@pytest.mark.parametrize("name", structure_names() + ["heisenberg-warped"])
def test_stacked_metric_equals_its_per_pair_calls(name):
    # the metric contract: a stacked call gives each row the bits of the call
    # on that pair alone, for one point against a stack and for stacks of
    # stacks (the Euclidean, shear, tanh and conjugate Riemannian metrics,
    # the snowflakes, and the batched gauge under Heisenberg and its warp)
    warped = name == "heisenberg-warped"
    space = (warped_heisenberg_structure() if warped else build_structure(name)).space
    rng = np.random.RandomState(7)
    p = rng.uniform(-0.5, 0.5, space.dim)
    Q = rng.uniform(-0.5, 0.5, (6, space.dim))
    P3 = rng.uniform(-0.5, 0.5, (3, 1, space.dim))
    Q3 = rng.uniform(-0.5, 0.5, (3, 6, space.dim))
    one = lambda a, b: float(space.distance(a, b))  # noqa: E731
    got = np.asarray(space.distance(p, Q))
    assert got.tobytes() == np.array([one(p, q) for q in Q]).tobytes()
    got = np.asarray(space.distance(P3, Q3))
    want = np.array([[one(a[0], b) for b in B] for a, B in zip(P3, Q3)])
    assert got.tobytes() == want.tobytes()
    if name.startswith(("euclidean", "complex")):
        # np.linalg.norm on each 1-D difference, the one-pair Euclidean metric
        want = np.array([[np.linalg.norm(a[0] - b) for b in B] for a, B in zip(P3, Q3)])
        assert got.tobytes() == want.tobytes()


def test_distances_rejects_a_metric_written_for_one_pair():
    h = box_handle(2, lambda p, q: float(np.linalg.norm(p - q)))
    with pytest.raises(ValueError, match="distance"):
        distances(h, np.zeros(2), np.ones((3, 2)))


def test_sample_ball_measures_no_candidate_after_the_completing_one():
    measured = []

    def dist(p, q):
        d = np.sqrt(np.sum((p - q) ** 2, axis=-1))
        measured.append(d.size)
        return d

    h = MetricSpaceHandle(2, dist, symmetric_box(2, 1.0))
    center, radius, count, seed = np.array([0.6, -0.2]), 0.5, 9, 4
    pts = sample_ball(h, center, radius, count, seed=seed)
    rows = sum(measured)
    # reference: one candidate at a time along the Halton stream
    lo, hi = np.maximum(center - radius, -1.0), np.minimum(center + radius, 1.0)
    ref, examined = [], 0
    for c in lo + halton(2, 1 + seed, 200 * count) * (hi - lo):
        examined += 1
        if dist(center, c) <= radius * (1.0 + 1e-12):
            ref.append(c)
            if len(ref) == count:
                break
    assert pts.tobytes() == np.array(ref).tobytes()
    assert rows == examined
