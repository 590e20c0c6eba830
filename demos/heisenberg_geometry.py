"""Heisenberg group: group law, gauge, and the horizontal-path distance.

The Heisenberg group on R^3 multiplies as
    (u . v)_3 = u_3 + v_3 + (u_1 v_2 - u_2 v_1) / 2
with the first two coordinates adding. Only two directions are directly
available to admissible paths; reaching the third costs the square root of
the displacement, which is what the gauge and the shooting distance
both measure.
"""

import math

import numpy as np

from dilatlab import (cc_distance, heisenberg, heisenberg_cc,
                      heisenberg_dilate, heisenberg_gauge,
                      heisenberg_group_law, heisenberg_inverse,
                      heisenberg_structure, vertical_cc_oracle)
from dilatlab.carnot import LIGHT_CC


def example_group_law():
    u = np.array([0.3, -0.1, 0.2])
    v = np.array([-0.2, 0.4, 0.1])
    w = heisenberg_group_law(u, v)
    print("u . v =", np.round(w, 9))
    back = heisenberg_group_law(heisenberg_inverse(u), w)
    print("u^-1 . (u . v) =", np.round(back, 9), " (recovers v)")


def example_gauge_homogeneity():
    # the gauge is 1-homogeneous under the graded dilation
    # (x, y, t) -> (s x, s y, s^2 t)
    w = np.array([0.2, 0.1, 0.05])
    g = heisenberg_gauge(w)
    print("gauge(w) = %.9f" % g)
    for s in (0.5, 0.25):
        gs = heisenberg_gauge(heisenberg_dilate(s, w))
        print("  gauge(dilate(%.2f, w)) = %.9f  ratio %.6f" % (s, gs, gs / g))


def example_vertical_cost():
    # moving purely vertically by t costs 2 sqrt(pi t): the optimal
    # admissible path is a full circle enclosing area t
    for t in (0.01, 0.04):
        g = heisenberg_cc(np.zeros(3), np.array([0.0, 0.0, t]))
        print("t %.2f  distance %.6f   2 sqrt(pi t) %.6f   oracle %.6f"
              % (t, g, 2.0 * math.sqrt(math.pi * t), vertical_cc_oracle(t)))


def example_shooting_distance():
    # cc_distance knows nothing about the group: it shoots normal geodesics
    # of the frame, polishes the shortest into a piecewise-constant path,
    # and should land on the closed form (LIGHT_CC's 32 segments sit up to
    # 1.6e-3 above it on the vertical target; the default config has 64)
    frame, _ = heisenberg()
    x = np.zeros(3)
    straight = np.array([0.3, 0.0, 0.0])
    vertical = np.array([0.0, 0.0, 0.02])
    d1, path1 = cc_distance(frame, x, straight, config=LIGHT_CC,
                            return_info=True)
    d2, path2 = cc_distance(frame, x, vertical, config=LIGHT_CC,
                            return_info=True)
    print("straight target: solved %.6f  exact %.6f" % (d1, 0.3))
    print("vertical target: solved %.6f  exact %.6f"
          % (d2, vertical_cc_oracle(0.02)))
    print("path resolutions: %d and %d control segments"
          % (path1.controls.shape[0], path2.controls.shape[0]))


def example_graded_dilatation():
    # the dilatation structure on the group contracts the two horizontal
    # coordinates by eps and the vertical one by eps^2
    ds = heisenberg_structure()
    y = np.array([0.2, 0.1, 0.05])
    m = ds.dil(0.5, np.zeros(3), y)
    print("dil(0.5, 0, %s) = %s" % (y, np.round(m, 9)))
    print("  horizontal ratio %.3f, vertical ratio %.3f"
          % (m[0] / y[0], m[2] / y[2]))


if __name__ == "__main__":
    example_group_law()
    print()
    example_gauge_homogeneity()
    print()
    example_vertical_cost()
    print()
    example_shooting_distance()
    print()
    example_graded_dilatation()
