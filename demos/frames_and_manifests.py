"""Vector-field frames: brackets, flows, charts, and JSON manifests.

A frame of polynomial vector fields with assigned degrees is the input for
all sub-Riemannian computations. This script builds the standard rank-2
frame on R^3, checks its bracket structure, flows along it, inverts the
exponential chart, and round-trips the frame through its JSON manifest.
"""

import json

import numpy as np

from dilatlab import (build_adapted_frame, chart_inverse, flow_exp,
                      frame_from_manifest, heisenberg, lie_bracket,
                      polynomial_field)
from dilatlab.vectorfields import compose_rows


def make_generators():
    # X1 = d/dx - (y/2) d/dt, X2 = d/dy + (x/2) d/dt as monomial tables:
    # each component is a list of [coeff, exponents] terms
    X1 = polynomial_field([[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]], name="X1")
    X2 = polynomial_field([[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]], name="X2")
    return X1, X2


def example_bracket():
    X1, X2 = make_generators()
    B = lie_bracket(X1, X2)
    p = np.array([0.4, -0.2, 0.1])
    print("[X1, X2](p) =", B(p), " (constant vertical field)")


def example_adapted_frame():
    X1, X2 = make_generators()
    probes = [np.zeros(3), np.array([0.3, -0.2, 0.1])]
    frame = build_adapted_frame([X1, X2], probes)
    print("adapted frame: degrees %s, layer sizes %s, nilpotency step %d"
          % (tuple(frame.degrees), tuple(frame.layer_dims), frame.step))


def example_flow_and_chart():
    X1, X2 = make_generators()
    frame = build_adapted_frame([X1, X2], [np.zeros(3)])
    x = np.array([0.1, -0.2, 0.05])
    a = np.array([0.3, 0.2, -0.1])

    y = flow_exp(frame, a, x)
    print("exp_x(a) =", np.round(y, 9))

    # chart_inverse recovers the coefficients by Newton iteration on the flow
    b = chart_inverse(frame, x, y)
    print("chart_inverse round trip gap %.1e" % np.max(np.abs(b - a)))


def example_composition():
    # compose_rows solves exp(P)(exp_x(b)) = exp_x(a) for each row of its
    # coefficient stacks; on the Heisenberg frame the answer is the group
    # element b^-1 . a
    frame, law = heisenberg()
    x = np.array([0.05, 0.1, -0.02])
    a = np.array([0.2, -0.1, 0.1])
    b = np.array([-0.1, 0.15, 0.05])
    P, res, iters = compose_rows(frame, a[None], b[None], x)
    inv_b = np.array([-b[0], -b[1], -b[2]])
    want = law(inv_b, a)
    print("P          %s" % np.round(P[0], 9))
    print("b^-1 . a   %s" % np.round(want, 9))
    print("flow residual %.1e after %d Newton steps" % (res[0], iters[0]))


def example_manifest_roundtrip():
    doc = {
        "schema": 1,
        "name": "heisenberg-demo",
        "dim": 3,
        "generators": [
            [[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]],
            [[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]],
        ],
    }
    text = json.dumps(doc)
    frame = frame_from_manifest(json.loads(text))
    print("manifest '%s' -> frame with degrees %s"
          % (doc["name"], tuple(frame.degrees)))

    bad = dict(doc, generators=[doc["generators"][0]])
    try:
        frame_from_manifest(bad)
    except Exception as exc:
        print("degenerate manifest rejected: %s" % exc)


if __name__ == "__main__":
    example_bracket()
    print()
    example_adapted_frame()
    print()
    example_flow_and_chart()
    print()
    example_composition()
    print()
    example_manifest_roundtrip()
