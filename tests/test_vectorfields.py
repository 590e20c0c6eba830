"""Vector fields, adapted frames, the exponential chart, and manifests."""

import json
import os

import numpy as np
import pytest

from dilatlab import vectorfields
from dilatlab.heisenberg_group import heisenberg, heisenberg_inverse, warped_heisenberg
from dilatlab.errors import ChartEscape, NoConvergence, NonRegular, NotBracketGenerating
from dilatlab.vectorfields import (Frame, VectorField, build_adapted_frame,
                                   chart_inverse, compose_rows, flow_exp,
                                   frame_from_manifest, lie_bracket,
                                   polynomial_field)

np.random.seed(4)


def heis_generators():
    X1 = polynomial_field([[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]], name="X1")
    X2 = polynomial_field([[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]], name="X2")
    return X1, X2


def rotation_frame():
    """X1 = (-y, x) turns the plane about the origin and X2 = (1, 0); the
    chart box [-2, 2] x [-1, 1] holds (1.5, 0) but not its circle."""
    X1 = polynomial_field([[[-1.0, [0, 1]]], [[1.0, [1, 0]]]], name="X1")
    X2 = polynomial_field([[[1.0, [0, 0]]], []], name="X2")
    return Frame(fields=(X1, X2), degrees=(1, 1), chart_box=[[-2.0, 2.0], [-1.0, 1.0]])


def test_flow_exp_tests_the_chart_box_at_every_step():
    # a full turn ends where it starts, inside the box, but the circle of
    # radius 1.5 leaves the box on the way
    frame = rotation_frame()
    with pytest.raises(ChartEscape):
        flow_exp(frame, [2.0 * np.pi, 0.0], [1.5, 0.0], steps=64)
    end = flow_exp(frame, [2.0 * np.pi, 0.0], [0.5, 0.0], steps=64)
    assert np.allclose(end, [0.5, 0.0], atol=1e-5)


def test_a_flow_that_overflows_leaves_the_chart():
    # two coefficients of 1e160 overflow the one RK4 step to NaN on each
    # manifest frame, where 1e100 stays finite and leaves the box: both raise
    # ChartEscape, and no overflow warning escapes. Without a box a coordinate
    # still has to be finite.
    for name in ("contact-curved", "engel", "martinet"):
        with open(os.path.join(os.path.dirname(__file__), "manifests", name + ".json")) as f:
            frame = frame_from_manifest(json.load(f))
        boxless = Frame(fields=frame.fields, degrees=frame.degrees)
        for big, frames in ((1e160, (frame, boxless)), (1e100, (frame,))):
            a = np.zeros(frame.n)
            a[:2] = big
            for fr in frames:
                with pytest.raises(ChartEscape):
                    flow_exp(fr, a, np.zeros(frame.n), steps=1)


def test_fewer_than_one_flow_step_is_refused():
    # rk4_flow's step length 1 / steps divided by zero at steps=0
    frame, _ = heisenberg()
    a, x = np.array([0.1, 0.2, 0.0]), np.zeros(3)
    for steps in (0, -1):
        with pytest.raises(ValueError, match="steps"):
            flow_exp(frame, a, x, steps=steps)
        with pytest.raises(ValueError, match="steps"):
            chart_inverse(frame, x, a, steps=steps)
        with pytest.raises(ValueError, match="steps"):
            compose_rows(frame, a[None], a[None], x, steps=steps)


def test_polynomial_field_values_and_jacobian():
    # f(x) = (x0*x1, 3 + x2^2, -x0)
    f = polynomial_field([
        [[1.0, [1, 1, 0]]],
        [[3.0, [0, 0, 0]], [1.0, [0, 0, 2]]],
        [[-1.0, [1, 0, 0]]],
    ])
    p = np.array([0.5, -2.0, 1.5])
    assert np.allclose(f(p), [-1.0, 5.25, -0.5])
    J = f.jac(p)
    J_fd = VectorField(func=f.func).jac(p)  # forces the finite-difference path
    assert np.allclose(J, J_fd, atol=1e-6)
    want = np.array([[-2.0, 0.5, 0.0], [0.0, 0.0, 3.0], [-1.0, 0.0, 0.0]])
    assert np.allclose(J, want, atol=1e-12)


def test_polynomial_field_batched():
    f = polynomial_field([[[2.0, [0, 1]]], [[1.0, [1, 0]]]])
    pts = np.array([[1.0, 2.0], [3.0, -1.0]])
    out = f(pts)
    assert out.shape == (2, 2)
    assert np.allclose(out, [[4.0, 1.0], [-2.0, 3.0]])


def test_jacobian_batched_matches_single_points():
    # analytic (polynomial, constant Heisenberg) and finite-difference
    # (bracket, warped pushforward) Jacobians, on (k, n) and (k, 4, n) batches
    f = polynomial_field([
        [[1.0, [1, 1, 0]], [2.0, [0, 0, 3]]],
        [[3.0, [0, 0, 0]], [1.0, [0, 2, 1]]],
        [[-1.0, [1, 0, 0]]],
    ], name="poly")
    X1, X2 = heis_generators()
    heis, _ = heisenberg()
    warped, _, _ = warped_heisenberg()
    rng = np.random.RandomState(9)
    for field in (f, heis.fields[0], lie_bracket(X1, X2), warped.fields[1]):
        for shape in ((5, 3), (5, 4, 3)):
            P = rng.uniform(-0.5, 0.5, size=shape)
            J = field.jac(P)
            assert J.shape == shape + (3,)
            want = np.array([field.jac(p) for p in P.reshape(-1, 3)])
            assert np.allclose(J.reshape(-1, 3, 3), want, rtol=0.0, atol=1e-12), field.name


def test_lie_bracket_hand_formula():
    X1, X2 = heis_generators()
    B = lie_bracket(X1, X2)
    rng = np.random.RandomState(7)
    for _ in range(5):
        p = rng.standard_normal(3)
        # [X1, X2] = (0, 0, 1) everywhere for these fields
        assert np.allclose(B(p), [0.0, 0.0, 1.0], atol=1e-7)


def test_build_adapted_frame_heisenberg():
    X1, X2 = heis_generators()
    probes = [np.zeros(3), np.array([0.3, -0.2, 0.1]), np.array([-0.5, 0.4, 0.0])]
    fr = build_adapted_frame([X1, X2], probes)
    assert fr.degrees == (1, 1, 2)
    assert fr.m == 2
    assert fr.step == 2
    assert fr.layer_dims == (2, 3)


def test_build_adapted_frame_r2_step_one():
    E1 = polynomial_field([[[1.0, [0, 0]]], []])
    E2 = polynomial_field([[], [[1.0, [0, 0]]]])
    fr = build_adapted_frame([E1, E2], [np.zeros(2)])
    assert fr.degrees == (1, 1)
    assert fr.step == 1


def test_not_bracket_generating():
    E1 = polynomial_field([[[1.0, [0, 0]]], []])
    with pytest.raises(NotBracketGenerating):
        build_adapted_frame([E1], [np.zeros(2), np.array([0.5, 0.5])])


def test_non_regular_detected():
    # X1 = d/dx1, X2 = x1 d/dx2: the bracket [X1, X2] = d/dx2 enlarges the
    # span at x1 = 0 but not where X2 itself already points along d/dx2
    X1 = polynomial_field([[[1.0, [0, 0]]], []], name="X1")
    X2 = polynomial_field([[], [[1.0, [1, 0]]]], name="X2")
    with pytest.raises((NonRegular, ValueError)):
        build_adapted_frame([X1, X2], [np.array([1.0, 0.0]), np.array([0.0, 0.0])])


def test_dependent_generators_rejected():
    E1 = polynomial_field([[[1.0, [0, 0]]], []])
    E1b = polynomial_field([[[2.0, [0, 0]]], []])
    with pytest.raises(ValueError):
        build_adapted_frame([E1, E1b], [np.zeros(2)])


def test_frame_degree_validation():
    X1, X2 = heis_generators()
    with pytest.raises(ValueError):
        Frame(fields=(X1, X2), degrees=(2, 1))
    with pytest.raises(ValueError):
        Frame(fields=(X1, X2), degrees=(1,))
    with pytest.raises(ValueError):
        Frame(fields=(X1, X2), degrees=(0, 1))


def test_flow_exp_rotation_closed_form():
    # X = (-x2, x1): exp(t X) is rotation by angle t
    rot = polynomial_field([[[-1.0, [0, 1]]], [[1.0, [1, 0]]]], name="rot")
    fr = Frame(fields=(rot, polynomial_field([[], [[1.0, [0, 0]]]])), degrees=(1, 1))
    x = np.array([1.0, 0.0])
    t = 0.7
    got = flow_exp(fr, np.array([t, 0.0]), x, steps=256)
    want = np.array([np.cos(t), np.sin(t)])
    assert np.allclose(got, want, atol=1e-10)


def test_chart_inverse_roundtrip():
    X1, X2 = heis_generators()
    probes = [np.zeros(3), np.array([0.3, -0.2, 0.1])]
    fr = build_adapted_frame([X1, X2], probes)
    rng = np.random.RandomState(8)
    x = np.array([0.1, -0.2, 0.05])
    for _ in range(4):
        a = rng.uniform(-0.3, 0.3, size=3)
        y = flow_exp(fr, a, x, steps=64)
        back = chart_inverse(fr, x, y, steps=64)
        assert np.allclose(back, a, atol=1e-10)


def test_chart_inverse_batched_matches_single_rows():
    # a (k, n) stack is solved row for row to the same bits as one solve per
    # row; one row whose Newton iterate leaves the injectivity ball fails the
    # whole call
    rng = np.random.RandomState(14)
    for frame, steps in ((heisenberg()[0], 32), (warped_heisenberg()[0], 64)):
        W = rng.uniform(-0.2, 0.2, (5, 3))
        A = rng.uniform(-0.3, 0.3, (5, 3))
        Z = flow_exp(frame, A, W, steps=steps)
        got = chart_inverse(frame, W, Z, steps=steps)
        want = np.array([chart_inverse(frame, w, z, steps=steps) for w, z in zip(W, Z)])
        assert np.array_equal(got, want), frame.name
        assert np.allclose(got, A, atol=1e-9)
        A[2] = [0.9, -0.6, 0.5]  # well outside the default radius 0.5
        Z = flow_exp(frame, A, W, steps=steps)
        with pytest.raises(NoConvergence):
            chart_inverse(frame, W, Z, steps=steps)


def test_chart_inverse_names_the_row_that_leaves_the_injectivity_ball():
    frame = heisenberg()[0]
    W = np.array([[0.1, 0.0, 0.0], [0.0, -0.2, 0.05]])
    A = np.array([[0.1, 0.1, 0.1], [0.9, -0.6, 0.5]])  # |A[1]| = 1.19 > 1.5 * 0.5
    with pytest.raises(NoConvergence, match=r"\|a\| = 1\.19\d* above 1\.5 x "
                       r"injectivity_radius = 0\.75 for w = \(0\.0, -0\.2, 0\.05\)"):
        chart_inverse(frame, W, flow_exp(frame, A, W, steps=1), steps=1)


def test_heisenberg_chart_inverse_takes_one_flow(monkeypatch):
    # the one-step Heisenberg flow is x . a, affine in a, so the exact first
    # Newton step B(w)^-1 (z - w) is the solution: every row meets its
    # threshold at the first check (one update), and a chart_inverse call
    # runs one flow. From a = 0 with a difference Jacobian these rows took
    # one or two updates, and each call two or three flows.
    frame, law = heisenberg()
    rng = np.random.RandomState(0)
    W = rng.uniform(-0.3, 0.3, (400, 3))
    Z = law(W, rng.uniform(-0.3, 0.3, (400, 3)))
    y, res, iters = vectorfields._newton_chart(frame, W, Z, 2.0, 1)
    assert np.all(iters == 1)
    assert np.all(res < 1e-13 * (1.0 + np.max(np.abs(Z), axis=1)))
    want = law(heisenberg_inverse(W), Z)
    scale = 1.0 + np.maximum(np.abs(W), np.abs(Z)).max(axis=-1, keepdims=True)
    assert np.all(np.abs(y - want) <= 4.0 * np.finfo(float).eps * scale)
    flows = []
    real = vectorfields.flow_exp
    monkeypatch.setattr(vectorfields, "flow_exp",
                        lambda *a, **kw: flows.append(1) or real(*a, **kw))
    for w, z in zip(W[:5], Z[:5]):
        chart_inverse(frame, w, z, injectivity_radius=2.0, steps=1)
    assert len(flows) == 5


def test_chart_inverse_names_the_point_where_the_frame_degenerates():
    # Martinet: X3 = [X1, X2] = 2x d/dz vanishes on x = 0, so the frame
    # matrix there is singular and the chart has no inverse
    with open(os.path.join(os.path.dirname(__file__), "manifests", "martinet.json")) as f:
        frame = frame_from_manifest(json.load(f))
    w = np.array([[0.3, 0.0, 0.0], [0.0, 0.1, 0.0]])
    with pytest.raises(NonRegular, match=r"linearly dependent at w = \(0\.0, 0\.1, 0\.0\)"):
        chart_inverse(frame, w, w + 0.01, steps=8)
    a = chart_inverse(frame, w[0], w[0] + 0.01, steps=8)  # a regular point
    assert np.allclose(flow_exp(frame, a, w[0], steps=8), w[0] + 0.01, atol=1e-11)


def test_compose_commuting_constant_fields():
    # exp(P) carries exp(b)(x) to exp(a)(x); constant fields commute, so
    # the solution is P = a - b exactly
    E1 = polynomial_field([[[1.0, [0, 0]]], []])
    E2 = polynomial_field([[], [[1.0, [0, 0]]]])
    fr = Frame(fields=(E1, E2), degrees=(1, 1))
    a = np.array([0.2, -0.1])
    b = np.array([-0.05, 0.3])
    P, res, _ = compose_rows(fr, a[None], b[None], np.zeros(2), steps=32)
    assert np.allclose(P[0], a - b, atol=1e-11)
    assert res[0] < 1e-12


def test_manifest_roundtrip(tmp_path):
    doc = {
        "schema": 1,
        "name": "heis",
        "dim": 3,
        "chart_halfwidth": 2.0,
        "generators": [
            [[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]],
            [[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]],
        ],
    }
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(doc))
    fr = frame_from_manifest(json.loads(path.read_text()))
    assert fr.degrees == (1, 1, 2)
    p = np.array([0.2, 0.3, -0.1])
    assert np.allclose(fr.fields[0](p), [1.0, 0.0, -0.15])


def test_manifest_probes_choose_the_brackets():
    # X2 = d/dy + x^2 d/dz: [X1, X2] = 2x d/dz vanishes on x = 0, so the
    # manifest's probes decide whether its layers are regular
    doc = {
        "schema": 1,
        "name": "martinet",
        "dim": 3,
        "chart_halfwidth": 1.0,
        "generators": [
            [[[1.0, [0, 0, 0]]], [], []],
            [[], [[1.0, [0, 0, 0]]], [[1.0, [2, 0, 0]]]],
        ],
    }
    fr = frame_from_manifest(dict(doc, probes=[[0.3, 0.0, 0.0], [-0.2, 0.1, 0.4]]))
    assert fr.degrees == (1, 1, 2)
    assert np.allclose(fr.fields[2](np.array([0.3, 0.0, 0.0])), [0.0, 0.0, 0.6])
    with pytest.raises(NonRegular):
        frame_from_manifest(dict(doc, probes=[[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]))


def test_manifest_explicit_fields_and_degrees():
    doc = {
        "schema": 1,
        "name": "flat",
        "dim": 2,
        "chart_halfwidth": 1.0,
        "fields": [
            [[[1.0, [0, 0]]], []],
            [[], [[1.0, [0, 0]]]],
        ],
        "degrees": [1, 1],
    }
    fr = frame_from_manifest(doc)
    assert fr.degrees == (1, 1)


def test_manifest_errors_name_the_field():
    doc = {
        "schema": 1,
        "name": "bad",
        "dim": 2,
        "chart_halfwidth": 1.0,
        "generators": [
            [[[1.0, [0]]], []],  # exponent tuple has wrong length
            [[], [[1.0, [0, 0]]]],
        ],
    }
    with pytest.raises(ValueError, match="field"):
        frame_from_manifest(doc)


def test_manifest_rejects_unknown_schema():
    with pytest.raises(ValueError):
        frame_from_manifest({"schema": 99, "name": "x", "dim": 2,
                             "chart_halfwidth": 1.0, "generators": []})


def test_manifest_rejects_fractional_exponents_and_booleans():
    gens = [[[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]],
            [[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]]]
    base = {"schema": 1, "name": "heis", "dim": 3, "generators": gens}
    bad_terms = ([1.0, [0.5, 0, 0]], [1.0, [True, 0, 0]], [True, [1, 0, 0]],
                 [1.0, [-1, 0, 0]])
    for term in bad_terms:
        with pytest.raises(ValueError, match="term"):
            polynomial_field([[term], [], []])
        doc = dict(base, generators=[[[term], [], []], gens[1]])
        with pytest.raises(ValueError, match="generators"):
            frame_from_manifest(doc)
    assert polynomial_field([[[1.0, [2.0, 0, 0]]], [], []])(np.array([3.0, 0, 0]))[0] == 9.0
    fields = [[[[1.0, [0, 0]]], []], [[], [[1.0, [0, 0]]]]]
    for doc in (dict(base, schema=True), dict(base, dim=True), dict(base, dim=3.0),
                {"schema": 1, "dim": 2, "fields": fields, "degrees": [True, True]}):
        with pytest.raises(ValueError, match="schema|dim|degrees"):
            frame_from_manifest(doc)


def test_manifest_terms_must_be_coefficient_exponent_pairs():
    # a JSON object as a term once raised KeyError, and a number as the
    # exponents TypeError: each is a malformed term, named as such
    for term in ({}, {"1": 2}, 3.0, "ab", [1.0], [1.0, 5], [1.0, [0, 0, 0], 2]):
        with pytest.raises(ValueError, match="term"):
            polynomial_field([[term], [], []])


def test_manifest_fields_list_one_field_per_axis():
    # an explicit frame spans R^dim with dim fields: two fields on a line
    # were once taken as a frame of two fields in one dimension
    one = [[1.0, [0]]]
    with pytest.raises(ValueError, match="'fields' must list 1 fields"):
        frame_from_manifest({"schema": 1, "dim": 1, "fields": [[one], [[]]], "degrees": [2, 3]})


def test_a_huge_manifest_dim_allocates_nothing_before_the_fields_are_checked():
    # the chart box and the default probes hold dim entries each: they are
    # built only once the fields have dim components, so a wrong dim is
    # named at once, on either path
    import tracemalloc

    gens = [[[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]],
            [[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]]]
    docs = ({"schema": 1, "dim": 10**6, "generators": gens},
            {"schema": 1, "dim": 10**6, "fields": gens, "degrees": [1, 1]})
    for doc, key in zip(docs, ("generators", "fields")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="'%s' entry 0 must have 1000000 components"
                               % key):
                frame_from_manifest(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


# === Frame.combined ===

def _stacked(frame, a, z):
    """sum_i a_i X_i(z), one field at a time: the reference for combined."""
    a, z = np.asarray(a, dtype=float), np.asarray(z, dtype=float)
    vals = np.stack([f(z) for f in frame.fields[:a.shape[-1]]], axis=0)
    return np.einsum("...f,f...n->...n", a, vals)


def _frames_under_test():
    """heisenberg, warped, a fields manifest, a generators manifest, and an
    adapted frame of non-polynomial fields (the stacked default path)."""
    rich = [[[0.3, [2, 1, 0]], [1.0, [0, 0, 0]], [-0.7, [0, 0, 1]]],
            [[1.0, [0, 0, 0]], [0.25, [1, 0, 2]]],
            [[-0.5, [0, 1, 0]], [1.5, [1, 1, 1]], [0.1, [3, 0, 0]]]]
    fields_doc = {"schema": 1, "name": "fields", "dim": 3, "degrees": [1, 1, 2],
                  "fields": [rich,
                             [[[0.2, [0, 1, 0]]], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]],
                             [[], [[0.4, [0, 0, 1]]], [[1.0, [0, 0, 0]], [0.3, [2, 0, 0]]]]]}
    gens_doc = {"schema": 1, "name": "gens", "dim": 3,
                "generators": [[[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]], [0.3, [2, 0, 0]]]],
                               [[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]]]}
    S1 = VectorField(func=lambda p: np.stack(
        [np.ones_like(p[..., 0]), 0.0 * p[..., 0], -0.5 * p[..., 1] + 0.1 * np.sin(p[..., 0])],
        axis=-1), name="S1")
    S2 = VectorField(func=lambda p: np.stack(
        [0.0 * p[..., 0], np.ones_like(p[..., 0]), 0.5 * p[..., 0]], axis=-1), name="S2")
    adapted = build_adapted_frame([S1, S2], [np.zeros(3), np.array([0.3, -0.2, 0.1])])
    assert adapted.closed_form is None
    return [heisenberg()[0], warped_heisenberg()[0], frame_from_manifest(fields_doc),
            frame_from_manifest(gens_doc), adapted]


def test_frame_combined_matches_stacked_fields():
    rng = np.random.RandomState(21)
    for frame in _frames_under_test():
        for shape in ((3,), (5, 3), (5, 4, 3)):
            for k in (1, 2, 3):
                a = rng.uniform(-1.0, 1.0, shape[:-1] + (k,))
                z = rng.uniform(-0.6, 0.6, shape)
                got = frame.combined(a, z)
                want = _stacked(frame, a, z)
                assert got.shape == shape
                if frame.name == "heisenberg":
                    assert np.array_equal(got, want)
                scale = np.max(np.abs(want), axis=-1, keepdims=True)
                assert np.all(np.abs(got - want) <= 1e-14 * scale), (frame.name, shape, k)
        # one coefficient row broadcast against a stack of points
        a = rng.uniform(-1.0, 1.0, 2)
        z = rng.uniform(-0.6, 0.6, (4, 3))
        assert np.allclose(frame.combined(a, z), _stacked(frame, np.tile(a, (4, 1)), z),
                           rtol=1e-14, atol=1e-15)


def test_frame_combined_rows_are_batch_independent():
    # dil's row-for-row contract rests on this: a point gets the same bits
    # alone as inside any batch
    rng = np.random.RandomState(22)
    for frame in _frames_under_test():
        A = rng.uniform(-1.0, 1.0, (6, 3))
        Z = rng.uniform(-0.6, 0.6, (6, 3))
        got = frame.combined(A, Z)
        for r in range(6):
            assert np.array_equal(got[r], frame.combined(A[r], Z[r])), frame.name


def test_affine_coords_read_the_horizontal_tables_only():
    # a degree-2 field may read the coordinate it moves: the mask, and the
    # sum over the two horizontal fields, look at those fields only, so
    # that sum takes the same bits whatever x3 holds
    heis = [[[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]],
            [[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]]]
    doc = {"schema": 1, "name": "cubic-x3", "dim": 3, "degrees": [1, 1, 2],
           "fields": heis + [[[], [], [[1.0, [0, 0, 0]], [2.0, [0, 0, 3]]]]]}
    frame = frame_from_manifest(doc)
    assert frame.affine_coords == (0, 1)
    a, z = np.array([0.7, -0.4]), np.array([0.3, -0.2, 0.0])
    want = frame.combined(a, z)
    for x3 in (-1.5, 1e300, np.inf, np.nan):
        with np.errstate(all="ignore"):
            got = frame.combined(a, np.array([0.3, -0.2, x3]))
        assert got.tobytes() == want.tobytes(), x3
    # no tables, or no horizontal field: no mask
    assert warped_heisenberg()[0].affine_coords is None
    assert Frame(fields=frame.fields[2:], degrees=(2,)).affine_coords is None


def test_polynomial_bracket_matches_generic_formula():
    X = polynomial_field([[[1.0, [0, 0, 0]], [0.3, [1, 2, 0]]], [[0.7, [0, 0, 1]]],
                          [[-0.5, [0, 1, 0]], [0.2, [2, 0, 1]]]], name="X")
    Y = polynomial_field([[[0.4, [0, 1, 1]]], [[1.0, [0, 0, 0]], [-0.6, [3, 0, 0]]],
                          [[0.5, [1, 0, 0]]]], name="Y")
    B = lie_bracket(X, Y)
    BB = lie_bracket(X, B)  # bracket of a bracket stays polynomial
    assert B.table is not None and BB.table is not None
    P = np.random.RandomState(23).uniform(-0.8, 0.8, (7, 3))
    for br, U, V in ((B, X, Y), (BB, X, B)):
        want = (np.einsum("...ij,...j->...i", V.jac(P), U(P))
                - np.einsum("...ij,...j->...i", U.jac(P), V(P)))
        got = br(P)
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-14 * scale), br.name
