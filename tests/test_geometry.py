"""Finite pointed spaces, ball sampling, and metric transforms."""

import numpy as np
import pytest

from dilatlab.errors import SamplingExhausted
from dilatlab.geometry import (FinitePointedSpace, box_handle, distances,
                               euclidean_handle, pairwise, rescale, restrict,
                               sample_ball, snowflake_distance)
from dilatlab.util import halton

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
    # triangle violation: d(0,2) > d(0,1) + d(1,2)
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        FinitePointedSpace(dmat=bad, base=0)


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


def test_sample_ball_exhaustion():
    # metric that no candidate can satisfy
    h = box_handle(2, lambda a, b: 10.0 + np.linalg.norm(a - b), halfwidth=1.0)
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
        # not symmetric, so a mirrored entry shows which order was called
        calls.append((p, q))
        return 1.0 + p - 0.5 * q

    m = pairwise(dist, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert len(calls) == 5 * 4 // 2
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    assert m[1, 3] == dist(1.0, 3.0)


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
    h = box_handle(2, lambda a, b: float(np.linalg.norm(a - b)), halfwidth=1.0)
    assert h.contains(np.array([0.5, -0.5]))
    assert not h.contains(np.array([1.5, 0.0]))


def test_halton_from_an_index_continues_the_stream():
    from scipy.stats import qmc

    for dim in (2, 3, 4):
        for start in (1, 8, 301):
            eng = qmc.Halton(d=dim, scramble=False)
            eng.fast_forward(start)
            stream = eng.random(3 * 256)
            chunks = [halton(dim, start + 256 * c, 256) for c in range(3)]
            assert np.array_equal(np.concatenate(chunks), stream)
