"""Dilatations that spin while they shrink.

dil(eps, x, y) = x + eps R(theta log eps) (y - x) rotates by an angle that
keeps changing as eps goes to zero. The limit operations are the same as in
the Euclidean case (the rotating term is first order and dies with eps),
but finite-scale difference operations remember theta. This is the standard
example of structures that share a tangent space yet are distinguishable at
every positive scale.
"""

import numpy as np

from dilatlab import (TangentData, check_A0_A1, check_A2, complex_dilatation,
                      halving_schedule)


def example_dilatation_formula():
    ds = complex_dilatation(1.0)
    x = np.array([0.1, 0.2])
    y = np.array([0.7, -0.1])
    eps = 0.25
    ang = 1.0 * np.log(eps)
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    print("dil(%.2f, x, y) = %s" % (eps, np.round(ds.dil(eps, x, y), 9)))
    print("x + eps R (y-x) = %s" % np.round(x + eps * (R @ (y - x)), 9))


def example_axioms_hold():
    ds = complex_dilatation(0.5)
    rng = np.random.default_rng(5)
    pairs = [(0.5 * rng.standard_normal(2), 0.5 * rng.standard_normal(2))
             for _ in range(15)]
    pairs = [(x, x + 0.5 * (y - x)) for x, y in pairs]
    r1 = check_A0_A1(ds, pairs, halving_schedule(0.5, 8))
    r2 = check_A2(ds, pairs, [(0.5, 0.5), (0.7, 0.2)])
    print("theta = 0.5 axiom checks: A0/A1 %s, A2 %s (worst %.1e)"
          % (r1.passed, r2.passed, max(r1.max_residual, r2.max_residual)))


def example_limit_is_euclidean():
    # the sum operation extrapolates to u + v - x for every theta; the
    # rotating first-order term needs a deep schedule and a short first leg
    # (the eps-coefficient of the residual is proportional to |u - x|)
    x = np.array([0.05, -0.1])
    u = x + np.array([0.02, 0.015])
    v = x + np.array([0.3, -0.2])
    sched = halving_schedule(0.5, 23)
    for theta in (0.5, 1.0):
        ds = complex_dilatation(theta)
        got = TangentData(ds, x, sched).sigma_op(u, v)
        print("theta %.1f  add(u,v) %s  expected %s  gap %.1e"
              % (theta, np.round(got, 8), np.round(u + v - x, 8),
                 np.max(np.abs(got - (u + v - x)))))


def example_finite_scale_separation():
    # at a fixed scale the composed dilatations depend on theta: the probe
    # dil(2, w, dil(1/2, x, v)) with w = dil(1/2, x, u) evaluates the
    # approximate difference operation at eps = 1/2
    x = np.array([0.0, 0.0])
    u = np.array([0.4, 0.1])
    v = np.array([-0.2, 0.3])
    probes = {}
    for theta in (0.5, 1.0):
        ds = complex_dilatation(theta)
        w = ds.dil(0.5, x, u)
        probes[theta] = ds.dil(2.0, w, ds.dil(0.5, x, v))
        print("theta %.1f  finite-scale difference probe %s"
              % (theta, np.round(probes[theta], 6)))
    sep = np.linalg.norm(probes[0.5] - probes[1.0])
    print("probe separation %.4f (same tangent ops, different structures)" % sep)


if __name__ == "__main__":
    example_dilatation_formula()
    print()
    example_axioms_hold()
    print()
    example_limit_is_euclidean()
    print()
    example_finite_scale_separation()
