"""The Heisenberg group, the worked example with closed forms.

The left-invariant frame, the group law with its inverse and dilatation,
and three oracles that use no optimizer: the exact gauge distance on point
stacks (a batched Newton solve for the angle of the connecting circular
arc), a 1-D arc-radius minimization for purely vertical targets, and the
chart box of a CC ball. A warped copy (pushforward under a trigonometric
triangular diffeomorphism) keeps the closed-form metric while its flows are
no longer integrated exactly by RK4. The CC solver in carnot (cc_distance)
is checked against these oracles, so nothing here imports it; only the vertical
oracle uses scipy (minimize_scalar, imported when it is called).
"""

import math

import numpy as np

from .structures import DiffeoPair
from .util import as_point, as_points, symmetric_box
from .vectorfields import Frame, VectorField, polynomial_field


def heisenberg_group_law(u, v) -> np.ndarray:
    """(u * v) with the area cocycle in the third slot."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = u + v
    w3 = u[..., 2] + v[..., 2] + 0.5 * (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    out = np.array(w)
    out[..., 2] = w3
    return out


def heisenberg_inverse(u) -> np.ndarray:
    return -np.asarray(u, dtype=float)


def heisenberg_dilate(eps: float, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return u * np.array([eps, eps, eps * eps])


def heisenberg():
    """Left-invariant Heisenberg frame and the group-law oracle.

    Returns (Frame, group_law). The frame fields are the polynomial fields
    X1 = (1, 0, -x2/2), X2 = (0, 1, x1/2), X3 = (0, 0, 1) with degrees
    (1, 1, 2); X3 = [X1, X2]. The chart box is [-2, 2]^3.
    """
    half = np.array([-0.5, 0.5])

    def combined(a, z):
        # X1, X2, then X3: the order the stacked fields sum in, to the same bits
        k = a.shape[-1]
        if k == 1:
            a = np.concatenate([a, np.zeros_like(a)], axis=-1)
        v = a[..., :2] * (z[..., 1::-1] * half)  # a0 (-z1 / 2), a1 (z0 / 2)
        c2 = v[..., 0] + v[..., 1]
        if k > 2:
            c2 = c2 + a[..., 2]
        out = np.empty(c2.shape + (3,))
        out[..., :2] = a[..., :2]
        out[..., 2] = c2
        return out

    one = [[1.0, [0, 0, 0]]]
    X1 = polynomial_field([one, [], [[-0.5, [0, 1, 0]]]], name="X1")
    X2 = polynomial_field([[], one, [[0.5, [1, 0, 0]]]], name="X2")
    X3 = polynomial_field([[], [], one], name="X3")
    frame = Frame(fields=(X1, X2, X3), degrees=(1, 1, 2), chart_box=symmetric_box(3, 2.0),
                  name="heisenberg", closed_form=combined)
    return frame, heisenberg_group_law


# the arc angle's bracket; from the arc ratio of its top on, the path is the full circle
_LO, _HI = 1e-9, 2.0 * math.pi - 1e-9
_CIRCLE_RATIO = (_HI - math.sin(_HI)) / (8.0 * math.sin(0.5 * _HI) ** 2)


def _arc_angle(ratio: np.ndarray) -> np.ndarray:
    """Angles theta in [_LO, _HI] of arc ratio (theta - sin theta) / (8 sin^2(theta/2))
    = ratio: Newton on its log in v = log(theta / (2 pi - theta)), where the slope
    lies in [0.88, 2], from the asymptotes 12 ratio and 2 pi - sqrt(pi / ratio). A
    row stops once its step in v is 4e-16 or no smaller than its last (the rounding
    floor), so it gets the bits of its one-row solve."""
    tau = 2.0 * math.pi
    start = np.where(ratio < 0.25, 12.0 * ratio, tau - np.sqrt(math.pi / ratio))
    theta, log_ratio = np.clip(start, _LO, _HI), np.log(ratio)
    last, rows = np.full(ratio.shape, np.inf), np.arange(ratio.size)
    while rows.size:
        th = theta[rows]
        s, c, num = np.sin(0.5 * th), np.cos(0.5 * th), th - np.sin(th)
        dv = ((np.log(num / (8.0 * s * s)) - log_ratio[rows]) * tau
              / ((2.0 * s * s / num - c / s) * th * (tau - th)))
        theta[rows] = np.clip(tau / (1.0 + (tau - th) / th * np.exp(dv)), _LO, _HI)
        keep = (np.abs(dv) > 4e-16) & (np.abs(dv) < last[rows])
        last[rows] = np.abs(dv)
        rows = rows[keep]
    return theta


def _geodesic_arc(rho, t):
    """Central angle and length of the minimizing path over horizontal chord
    rho >= 0 and vertical coordinate t >= 0 (arrays of one shape).

    The path projects to a circular arc; the central angle theta has arc
    ratio t / rho^2 (see _arc_angle), and the length is
    rho theta / (2 sin(theta/2)). Masks pick the straight segment (angle 0,
    length rho) at t = 0 or a ratio below 1e-8, and the full circle (angle
    2 pi, length 2 sqrt(pi t)) at rho = 0 or _CIRCLE_RATIO.
    """
    with np.errstate(all="ignore"):  # rho = 0 rows take the masks, not the ratio
        ratio = t / (rho * rho)
    circle = (t >= 1e-300) & ((rho < 1e-300) | (ratio >= _CIRCLE_RATIO))
    arc = (t >= 1e-300) & ~circle & (ratio >= 1e-8)
    theta = np.where(circle, 2.0 * np.pi, 0.0)
    length = np.where(circle, 2.0 * np.sqrt(np.pi * t), rho)
    theta[arc] = _arc_angle(ratio[arc])
    length[arc] = rho[arc] * theta[arc] / (2.0 * np.sin(0.5 * theta[arc]))
    return theta, length


def heisenberg_gauge(W):
    """Exact CC distance from the origin (unit horizontal frame): a float for
    one point, for a (..., 3) stack the (...) array of its rows' gauges: the
    length of _geodesic_arc over the horizontal chord and |vertical|."""
    W = as_points(W)
    _, out = _geodesic_arc(np.hypot(W[..., 0], W[..., 1]), np.abs(W[..., 2]))
    return float(out) if out.ndim == 0 else out


def heisenberg_cc(P, Q):
    """Exact CC distance, the gauge of the group difference, on one pair or stacks."""
    return heisenberg_gauge(heisenberg_group_law(heisenberg_inverse(as_points(P)),
                                                 as_points(Q)))


def vertical_cc_oracle(t: float) -> float:
    """Length of the closed horizontal loop reaching (0, 0, t).

    Among circles through the origin, the loop of radius r encloses area
    pi r^2 and has length 2 pi r; the feasible radius is found by 1-D
    minimization of the squared area mismatch.
    """
    t = abs(float(t))
    if t == 0.0:
        return 0.0
    r_guess = math.sqrt(t / math.pi)
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda r: (math.pi * r * r - t) ** 2,
                          bounds=(0.0, 3.0 * r_guess + 1.0), method="bounded",
                          options={"xatol": 1e-13})
    return 2.0 * math.pi * float(res.x)


def heisenberg_ball_box(center, radius: float) -> np.ndarray:
    """Chart bounding halfwidths of the CC ball around center.

    The ball is the left translate of the gauge ball. Horizontal reach is the
    radius itself; vertical reach is r^2 / (2 pi), attained by half-circle
    paths, plus the translation cross term from the group law.
    """
    c = as_point(center)
    r = float(radius)
    h3 = r * r / (2.0 * math.pi) + 0.5 * r * (abs(c[0]) + abs(c[1]))
    return 1.05 * np.array([r, r, h3 + 1e-300])


# ---------------------------------------------------------------------------
# Warped copy (pushforward under a chart diffeomorphism)


def heisenberg_warp() -> DiffeoPair:
    """Triangular warp of R^3 with a trigonometric shear and a closed-form
    inverse.

    The sine term matters: a polynomial triangular warp pushes the nilpotent
    fields to a cascade that RK4 still integrates exactly (the higher
    elementary differentials all vanish), which would make every
    discretization-order measurement on the warped structure degenerate.
    """
    a, b, s, r = 0.4, 2.0, 0.3, 0.35

    def phi(x):
        x = np.asarray(x, dtype=float)
        out = np.array(x)
        out[..., 1] = x[..., 1] + a * np.sin(b * x[..., 0])
        out[..., 2] = x[..., 2] + s * x[..., 0] * x[..., 1] + r * x[..., 1] ** 2
        return out

    def phi_inv(y):
        y = np.asarray(y, dtype=float)
        out = np.array(y)
        x2 = y[..., 1] - a * np.sin(b * y[..., 0])
        out[..., 1] = x2
        out[..., 2] = y[..., 2] - s * y[..., 0] * x2 - r * x2 ** 2
        return out

    def dphi(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (3, 3))
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = 1.0
        J[..., 2, 2] = 1.0
        J[..., 1, 0] = a * b * np.cos(b * x[..., 0])
        J[..., 2, 0] = s * x[..., 1]
        J[..., 2, 1] = s * x[..., 0] + 2.0 * r * x[..., 1]
        return J

    return DiffeoPair(phi=phi, phi_inv=phi_inv, dphi=dphi, name="heisenberg-warp")


def warped_heisenberg():
    """Pushforward of the Heisenberg frame under heisenberg_warp.

    Returns (frame, cc, phi): the frame fields are Dphi . X_i . phi^{-1}, and
    cc is the pushforward metric, so the warped triple is again a regular
    sub-Riemannian structure; its flows are NOT integrated exactly by RK4,
    which makes it the reference instance for discretization-order checks.
    The chart box is [-2.5, 2.5]^3.
    """
    base, _ = heisenberg()
    warp = heisenberg_warp()
    phi_inv, dphi = warp.phi_inv, warp.dphi

    def push(i):
        Xi = base.fields[i]

        def func(yy):
            x = phi_inv(yy)
            return np.einsum("...ij,...j->...i", dphi(x), Xi(x))

        return VectorField(func=func, jacobian=None, name="Y%d" % (i + 1))

    def combined(a, z):
        # one phi_inv and one dphi for all fields: Dphi (sum a_i X_i) . phi^{-1}
        x = phi_inv(z)
        return np.einsum("...ij,...j->...i", dphi(x), base.combined(a, x))

    fields = tuple(push(i) for i in range(3))
    frame = Frame(fields=fields, degrees=(1, 1, 2), chart_box=symmetric_box(3, 2.5),
                  name="heisenberg-warped", closed_form=combined)
    cc = lambda P, Q: heisenberg_cc(phi_inv(as_points(P)), phi_inv(as_points(Q)))
    return frame, cc, warp.phi
