"""Pointed Gromov-Hausdorff gaps, metric profiles, and tangent cones.

Small pointed metric spaces can be compared exactly (minimum distortion
over base-preserving correspondences). Sampling a ball at shrinking radius
and rescaling by 1/eps produces the metric profile of a space at a point;
its continuity at eps = 0 is the statement that the space has a metric
tangent at that point.
"""

import numpy as np

from dilatlab import (FinitePointedSpace, build_structure, check_profile_continuity,
                      check_tangent_cone, euclidean, gh_lower_bound, gh_pointed_exact,
                      halving_schedule, metric_profile, rescale, restrict,
                      snowflake_structure)


def two_point(d):
    return FinitePointedSpace(np.array([[0.0, d], [d, 0.0]]), base=0)


def example_exact_gaps():
    one = FinitePointedSpace(np.zeros((1, 1)), base=0)
    print("gh(point, point)              %.3f" % gh_pointed_exact(one, one))
    print("gh(point, two points at 1.2)  %.3f" % gh_pointed_exact(one, two_point(1.2)))
    print("gh(two at 0.8, two at 0.3)    %.3f"
          % gh_pointed_exact(two_point(0.8), two_point(0.3)))
    print("lower bound for the last pair %.3f"
          % gh_lower_bound(two_point(0.8), two_point(0.3)))
    # a b-isometry (a base-preserving correspondence of distortion <= b)
    # exists iff gh <= b/2; distortion is twice the gap, so b must clear
    # 2*gh = 0.5 here
    for b in (0.55, 0.30):
        print("approx isometry at b=%.2f     %s"
              % (b, gh_pointed_exact(two_point(0.8), two_point(0.3)) <= 0.5 * b))


def example_rescale_equivariance():
    # gh(cA, cB) = c gh(A, B); with power-of-2 factors this is bitwise exact
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((3, 2))
    A = restrict(euclidean(2).space, list(pts), pts[0])
    B = two_point(0.7)
    g = gh_pointed_exact(A, B)
    for c in (0.5, 2.0):
        gc = gh_pointed_exact(rescale(A, c), rescale(B, c))
        print("factor %.1f:  gh %.12f   c*gh %.12f   equal %s"
              % (c, gc, c * g, gc == c * g))


def example_metric_profile():
    # the profile of Euclidean space is flat: every rescaled ball is the
    # unit ball, so consecutive snapshots have zero GH gap
    space = euclidean(2).space
    curve = metric_profile(space, np.zeros(2), halving_schedule(0.5, 6),
                           count=6, seed=2)
    rep = check_profile_continuity(curve)
    print("euclidean profile: residual %.2e, density %.3f, converged %s"
          % (rep.max_residual, curve.density, rep.converged))

    snow = snowflake_structure(euclidean(2), 0.5)
    curve = metric_profile(snow.space, np.zeros(2), halving_schedule(0.5, 6),
                           count=6, seed=2)
    rep = check_profile_continuity(curve)
    print("snowflake profile: residual %.2e, density %.3f, converged %s"
          % (rep.max_residual, curve.density, rep.converged))


def example_tangent_cone_decay():
    # sup over pairs in B(x, eps) of |d(u,v) - d^x(u,v)| / eps measures how
    # fast the space looks like its tangent cone; for a deformed metric the
    # gap decays linearly, for Euclidean space it is identically zero
    flat = check_tangent_cone(euclidean(2), np.zeros(2),
                              halving_schedule(0.5, 8), count=10, seed=3)
    print("euclidean rescaling gaps: max %.1e" % max(row["value"] for row in flat.table))

    ds = build_structure("riemannian-shear")
    rep = check_tangent_cone(ds, np.array([0.2, -0.1]),
                             halving_schedule(0.5, 8), count=10, seed=3)
    print("deformed rescaling gaps: first %.2e  last %.2e  converged %s"
          % (rep.table[0]["value"], rep.table[-1]["value"], rep.converged))


if __name__ == "__main__":
    example_exact_gaps()
    print()
    example_rescale_equivariance()
    print()
    example_metric_profile()
    print()
    example_tangent_cone_decay()
