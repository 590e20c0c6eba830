"""Property-based tests: verdicts that must hold on every drawn input."""

import contextlib
import functools
import io
import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dilatlab.axioms import (TangentData, check_conical_group, check_tangent_cone,
                             derive_sigma_inv, estimate_dx)
from dilatlab.cli import CHECK_NAMES, main
from dilatlab.errors import DilatlabError
from dilatlab.geometry import FinitePointedSpace, euclidean_handle, pairwise, rescale
from dilatlab.gromov import gh_lower_bound, gh_pointed_exact
from dilatlab.structures import build_structure, complex_dilatation, euclidean, structure_names
from dilatlab.util import halving_schedule
from dilatlab.vectorfields import Frame, frame_from_manifest

# euclidean(2), or the spiralling plane structure at a drawn theta: both have
# the Euclidean metric as tangent cone at every point, with exact cones
flat_planes = st.one_of(st.just(euclidean(2)),
                        st.floats(-2.0, 2.0).map(complex_dilatation))
coords = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(ds=flat_planes, x=st.tuples(coords, coords), count=st.integers(1, 5),
       seed=st.integers(0, 50))
def test_tangent_cone_is_flat_on_exact_cones(ds, x, count, seed):
    rep = check_tangent_cone(ds, np.array(x), halving_schedule(0.5, 8), count=count,
                             seed=seed)
    assert rep.converged
    assert all(row["value"] <= 1e-11 for row in rep.table)


@functools.lru_cache(maxsize=None)
def _flat(name):
    return build_structure(name)


FLAT_NAMES = [n for n in structure_names() if n != "heisenberg"]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(name=st.sampled_from(FLAT_NAMES), data=st.data(), count=st.integers(2, 4))
def test_tangent_data_memo_matches_fresh_limits(name, data, count):
    # every limit a constructor seeds equals the one a fresh TangentData
    # extrapolates for the same pair, bit for bit; d^x in either order
    ds = _flat(name)
    n = ds.space.dim
    point = st.tuples(*[st.floats(-0.3, 0.3)] * n).map(np.array)
    x = data.draw(point)
    pts = [data.draw(point) for _ in range(count)]
    eps = halving_schedule(0.5, 6)
    td, _ = estimate_dx(ds, x, pts, eps)
    for i in range(count):
        for j in range(i + 1, count):
            want = TangentData(ds, x, eps).dx(pts[i], pts[j])
            assert td.dx(pts[i], pts[j]) == want
            assert td.dx(pts[j], pts[i]) == want
    td = derive_sigma_inv(ds, x, eps)
    assert {tag for tag, _, _ in td._memo} == {"delta", "sigma"}
    _assert_memo_is_fresh(td)
    # the conical check's sum and d^x batches, whatever the tangent verdict
    td.converged = True
    check_conical_group(td, ds, pts + [x], mus=(0.5, 0.25))
    assert {tag for tag, _, _ in td._memo} == {"delta", "sigma", "dx"}
    _assert_memo_is_fresh(td)


def test_tangent_data_memo_matches_fresh_limits_on_heisenberg():
    from dilatlab.carnot import heisenberg_structure

    ds = heisenberg_structure()
    x = np.array([0.05, -0.1, 0.02])
    rng = np.random.RandomState(5)
    pts = [x + rng.uniform(-0.08, 0.08, 3) for _ in range(4)]
    td = derive_sigma_inv(ds, x, halving_schedule(0.125, 8))
    assert td.converged
    check_conical_group(td, ds, pts, mus=(0.5, 0.25))
    _assert_memo_is_fresh(td)


def _assert_memo_is_fresh(td):
    """Every memo entry equals the limit a fresh TangentData extrapolates for
    that pair alone, bit for bit."""
    for tag, u, v in list(td._memo):
        got = td._memo[(tag, u, v)]
        want = TangentData(td.ds, td.center, td.eps).limit(tag, np.frombuffer(u),
                                                           np.frombuffer(v))
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.extrapolated, want.extrapolated)
        assert (got.error, got.converged, got.note) == (want.error, want.converged, want.note)


def _verify(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=10, derandomize=True, deadline=None)
@given(name=st.sampled_from(FLAT_NAMES), data=st.data(), seed=st.integers(0, 1000),
       checks=st.lists(st.sampled_from(CHECK_NAMES), min_size=1, unique=True))
def test_same_seed_gives_a_byte_identical_verify_run(name, data, seed, checks):
    n = _flat(name).space.dim
    x = data.draw(st.tuples(*[st.floats(-0.5, 0.5)] * n))
    argv = ["verify", "--structure", name, "--point=" + ",".join(map(repr, x)),
            "--seed", str(seed), "--checks", ",".join(checks)]
    assert _verify(argv) == _verify(argv)


def _pointed(pts, base):
    return FinitePointedSpace(dmat=pairwise(euclidean_handle(2), pts),
                              base=base % len(pts))


point_sets = st.lists(st.tuples(coords, coords).map(np.array), min_size=1, max_size=6)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(a=point_sets, b=point_sets, base_a=st.integers(0, 5), base_b=st.integers(0, 5),
       factor=st.floats(1e-3, 1e3))
def test_gh_pointed_exact_symmetric_equivariant_and_above_lower_bound(a, b, base_a, base_b,
                                                                       factor):
    A, B = _pointed(a, base_a), _pointed(b, base_b)
    gh = gh_pointed_exact(A, B)
    assert gh_pointed_exact(B, A) == gh
    scaled = gh_pointed_exact(rescale(A, factor), rescale(B, factor))
    assert abs(scaled - factor * gh) <= 1e-12 * factor * gh
    assert gh_lower_bound(A, B) <= gh


# JSON values that no manifest entry takes where it wants a count, an
# exponent, a coefficient or a list
BAD_JSON = st.sampled_from([None, "1", "", True, False, float("nan"), float("inf"), -1,
                            -0.5, 0.5, [], [[1]], {}])


@st.composite
def manifests(draw):
    """Small manifest documents: dim 1 to 3, at most 2 generators (or 3
    explicit fields), exponents 0 to 2; about one count in ten is off by
    one and one entry in twenty a bad JSON value."""
    dim = draw(st.integers(1, 3))
    # uniform draws for where the faults go; hypothesis leans towards 0
    faults = random.Random(draw(st.integers(0, 2**32 - 1)))

    def pick(valid):
        return draw(BAD_JSON) if faults.random() < 0.05 else draw(valid)

    def vector(entry):  # dim entries, or one more or one fewer
        k = dim if faults.random() < 0.9 else dim + faults.choice((-1, 1))
        return [entry() for _ in range(k)]

    def term():
        return pick(st.builds(lambda c: [c, vector(lambda: pick(st.integers(0, 2)))],
                              st.integers(-2, 2) | st.floats(-2.0, 2.0)))

    def field():
        return vector(lambda: [term() for _ in range(faults.randrange(3))])

    doc = {"schema": pick(st.just(1)),
           "dim": pick(st.just(dim) if faults.random() < 0.9
                       else st.integers(1, 3) | st.just(10**6))}
    if draw(st.booleans()):
        doc["chart_halfwidth"] = pick(st.floats(0.1, 3.0))
    if draw(st.booleans()):
        doc["generators"] = pick(st.builds(lambda k: [field() for _ in range(k)],
                                           st.sampled_from((0, 1, 2, 2))))
        if draw(st.booleans()):
            doc["probes"] = [vector(lambda: pick(st.floats(-1.0, 1.0)))
                             for _ in range(faults.randrange(3))]
    else:
        doc["fields"] = [field() for _ in range(1 + faults.randrange(3))]
        k = len(doc["fields"]) if faults.random() < 0.9 else faults.randrange(4)
        doc["degrees"] = [pick(st.just(d)) for d in sorted(faults.randint(1, 3) for _ in range(k))]
    return doc


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=manifests())
def test_the_manifest_parser_returns_a_frame_or_names_the_fault(doc):
    # the CLI exits 64 on a ValueError and 2 on a DilatlabError; any other
    # exception, or a frame whose field count is not dim, is a parser fault
    try:
        frame = frame_from_manifest(doc)
    except (ValueError, DilatlabError):
        return
    assert isinstance(frame, Frame) and frame.n == doc["dim"]
