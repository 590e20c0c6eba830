"""Concrete dilatation structures: Euclidean, diffeomorphism-deformed
Riemannian, snowflake transforms, and rotation-twisted (complex-exponent)
dilatations, plus a name registry the CLI draws from.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .axioms import DilatationStructure, broadcasting
from .geometry import box_handle, euclidean_handle, snowflake_distance
from .util import as_point, as_points


@broadcasting
def _affine_dil(eps, x, y):
    """The affine dilatations of the chart, dil(eps, x, y) = x + eps (y - x)."""
    x = as_points(x)
    y = as_points(y)
    return x + np.asarray(eps, dtype=float)[..., None] * (y - x)


def euclidean(n: int) -> DilatationStructure:
    """R^n with dil(eps, x, y) = x + eps (y - x)."""
    return DilatationStructure(space=euclidean_handle(n), dil=_affine_dil,
                               name="euclidean%d" % n)


@dataclass(frozen=True)
class DiffeoPair:
    """A diffeomorphism of the chart with its inverse and Jacobian.

    phi and phi_inv map (..., n) stacks of points; dphi takes one point.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    phi_inv: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def validate(self, probes) -> float:
        """Round-trip (relative 1e-10) and finite-difference Jacobian (1e-6)
        check; returns worst gap."""
        worst = 0.0
        for p in probes:
            p = as_point(p)
            rt = float(np.max(np.abs(self.phi_inv(self.phi(p)) - p)))
            if rt > 1e-10 * (1.0 + np.max(np.abs(p))):
                raise ValueError("phi_inv(phi(p)) misses p by %g at %r" % (rt, p))
            J = np.asarray(self.dphi(p), dtype=float)
            h = 1e-6
            n = p.size
            J_fd = np.zeros((n, n))
            for k in range(n):
                dp = np.zeros(n)
                dp[k] = h
                J_fd[:, k] = (np.asarray(self.phi(p + dp)) - np.asarray(self.phi(p - dp))) / (2 * h)
            gap = float(np.max(np.abs(J - J_fd)))
            if gap > 1e-6:
                raise ValueError("Jacobian disagrees with finite differences by %g" % gap)
            worst = max(worst, rt, gap)
        return worst


def shear_quadratic() -> DiffeoPair:
    """phi(x1, x2) = (x1, x2 + x1^2); triangular, exact inverse."""
    return DiffeoPair(
        phi=lambda p: np.stack([p[..., 0], p[..., 1] + p[..., 0] ** 2], axis=-1),
        phi_inv=lambda p: np.stack([p[..., 0], p[..., 1] - p[..., 0] ** 2], axis=-1),
        dphi=lambda p: np.array([[1.0, 0.0], [2.0 * p[0], 1.0]]),
        name="shear-quadratic")


def tanh_shear() -> DiffeoPair:
    """phi(x1, x2) = (x1 + 0.3 tanh(x2), x2); bounded shear, exact inverse."""
    return DiffeoPair(
        phi=lambda p: np.stack([p[..., 0] + 0.3 * np.tanh(p[..., 1]), p[..., 1]], axis=-1),
        phi_inv=lambda p: np.stack([p[..., 0] - 0.3 * np.tanh(p[..., 1]), p[..., 1]],
                                   axis=-1),
        dphi=lambda p: np.array([[1.0, 0.3 / np.cosh(p[1]) ** 2], [0.0, 1.0]]),
        name="tanh-shear")


def identity_diffeo(n: int) -> DiffeoPair:
    eye = np.eye(n)
    return DiffeoPair(phi=lambda p: np.array(p, dtype=float),
                      phi_inv=lambda p: np.array(p, dtype=float),
                      dphi=lambda p: eye, name="identity%d" % n)


def riemannian_diffeo(dp: DiffeoPair, variant: int = 1, dim: int = 2) -> DilatationStructure:
    """Deformed structures built from a diffeomorphism phi of the chart.

    variant 1: distance d(x,y) = |phi(x) - phi(y)| with the affine
               dilatations of the chart. The tangent-space distance comes out
               as d^x(u,v) = |Dphi(x) (v - u)|.
    variant 2: Euclidean distance with conjugated dilatations
               dil(eps, x, y) = phi^{-1}(phi(x) + eps (phi(y) - phi(x))).
    """
    if variant == 1:
        d = lambda p, q: float(np.linalg.norm(np.asarray(dp.phi(as_point(p)))
                                              - np.asarray(dp.phi(as_point(q)))))
        dil = _affine_dil

        def hint(c, r):
            J = np.asarray(dp.dphi(as_point(c)), dtype=float)
            smin = float(np.linalg.svd(J, compute_uv=False)[-1])
            return np.full(len(c), 1.5 * r / smin)

        space = box_handle(dim, d, name="riemannian-v1:" + dp.name,
                           ball_box=hint)
    elif variant == 2:
        d = lambda p, q: float(np.linalg.norm(as_point(p) - as_point(q)))

        @broadcasting
        def dil(eps, x, y):
            fx = np.asarray(dp.phi(as_points(x)), dtype=float)
            fy = np.asarray(dp.phi(as_points(y)), dtype=float)
            eps = np.asarray(eps, dtype=float)[..., None]
            return as_points(dp.phi_inv(fx + eps * (fy - fx)))

        space = box_handle(dim, d, name="riemannian-v2:" + dp.name,
                           ball_box=lambda c, r: np.full(len(c), r))
    else:
        raise ValueError("variant must be 1 or 2")

    return DilatationStructure(space=space, dil=dil,
                               name="riemannian-v%d-%s" % (variant, dp.name))


def snowflake_structure(base: DilatationStructure, a: float) -> DilatationStructure:
    """Snowflake transform: distance d^a with dil_a(eps, .) = dil(eps^(1/a), .).

    The composition law survives exactly ((eps mu)^(1/a) = eps^(1/a) mu^(1/a))
    and the rescaled-limit distance of the transform is (d^x)^a. dil
    broadcasts exactly when the base dil does.
    """
    if not (0.0 < a <= 1.0):
        raise ValueError("exponent must lie in (0, 1]")
    space = snowflake_distance(base.space, a)
    inv_a = 1.0 / a
    base_dil = base.dil

    def dil(eps, x, y):
        # Python's float power on each scale: numpy's array power can differ
        # from it in the last bit
        if np.ndim(eps) == 0:
            return base_dil(float(eps) ** inv_a, x, y)
        return base_dil(np.array([float(e) ** inv_a for e in eps]), x, y)

    if getattr(base_dil, "broadcasts", False):
        dil = broadcasting(dil)

    return DilatationStructure(space=space, dil=dil,
                               name="snowflake-%g-of-%s" % (a, base.name),
                               domain_radius=base.domain_radius,
                               working_radius=min(1.0, base.working_radius ** a))


def complex_dilatation(theta: float) -> DilatationStructure:
    """Plane structure whose dilatations spin while they shrink:

        dil(eps, x, y) = x + eps R(theta ln eps) (y - x)

    with R a rotation matrix. theta = 0 is the Euclidean structure; the
    rescaled-limit distance is Euclidean for every theta, but the finite-scale
    difference operation carries the rotation and distinguishes theta values.
    """

    def mat(eps) -> np.ndarray:
        """eps R(theta ln eps), stacked: (...) -> (..., 2, 2)."""
        eps = np.asarray(eps, dtype=float)
        s = theta * np.log(eps)
        c, sn = np.cos(s), np.sin(s)
        rot = np.stack([np.stack([c, -sn], axis=-1), np.stack([sn, c], axis=-1)], axis=-2)
        return eps[..., None, None] * rot

    @broadcasting
    def dil(eps, x, y):
        x = as_points(x)
        y = as_points(y)
        return x + (mat(eps) @ (y - x)[..., None])[..., 0]

    return DilatationStructure(space=euclidean_handle(2), dil=dil,
                               name="complex-%g" % theta)


# ---------------------------------------------------------------------------
# Registry

def _heisenberg_factory():
    from .carnot import heisenberg_structure
    return heisenberg_structure()


_REGISTRY = {
    "euclidean2": lambda: euclidean(2),
    "euclidean3": lambda: euclidean(3),
    "riemannian-shear": lambda: riemannian_diffeo(shear_quadratic(), variant=1),
    "riemannian-shear-conjugate": lambda: riemannian_diffeo(shear_quadratic(), variant=2),
    "riemannian-tanh": lambda: riemannian_diffeo(tanh_shear(), variant=1),
    "snowflake-0.5": lambda: snowflake_structure(euclidean(2), 0.5),
    "snowflake-0.3": lambda: snowflake_structure(euclidean(2), 0.3),
    "snowflake-0.9": lambda: snowflake_structure(euclidean(2), 0.9),
    "complex-1.0": lambda: complex_dilatation(1.0),
    "complex-0.5": lambda: complex_dilatation(0.5),
    "heisenberg": _heisenberg_factory,
}


def structure_names() -> list:
    return sorted(_REGISTRY)


def build_structure(name: str) -> DilatationStructure:
    if name not in _REGISTRY:
        raise KeyError("unknown structure %r; known: %s" % (name, ", ".join(structure_names())))
    return _REGISTRY[name]()


def register_structure(name: str, factory: Callable[[], DilatationStructure]) -> None:
    _REGISTRY[name] = factory
