"""Vector fields, Lie brackets, adapted frames and exponential charts.

A frame is an ordered tuple of vector fields spanning R^n at every probe
point, each tagged with a degree (the bracket word length that produced it).
The exponential chart at w sends coefficients a to the time-1 flow of the
combined field sum_i a_i X_i started at w, in the frame's RK4 step count
(Frame.flow_steps); chart_inverse solves the reverse problem by Newton
iteration: an exact first step through the frame matrix at w, then
finite-difference Jacobians of the flow.
"""

import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product
from numbers import Integral, Real
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ChartEscape, NoConvergence, NonRegular, NotBracketGenerating
from .util import as_point, as_points, in_chart, symmetric_box

RANK_TOL = 1e-7
# Longest bracket word build_adapted_frame tries before giving up.
MAX_WORD_LEN = 6
# Newton iteration cap, central-difference step and tolerance of the chart inverse.
NEWTON_MAX_ITER = 50
FD_STEP = 1e-6
CHART_TOL = 1e-12
# RK4 steps of a time-1 flow on a frame where one step is not exact.
FLOW_STEPS = 256


def _check_steps(steps, name: str) -> int:
    """steps as an int, refused unless it is a positive integer: a float
    would be truncated and a bool counted as 0 or 1."""
    if isinstance(steps, bool) or not isinstance(steps, Integral) or steps < 1:
        raise ValueError("%s must be a positive integer, got %r" % (name, steps))
    return int(steps)


def check_injectivity_radius(radius) -> float:
    """The chart inverse's injectivity radius as a float, refused unless
    finite and > 0: a NaN would switch the guard off, and a radius <= 0
    would fail every Newton start."""
    if not (isinstance(radius, Real) and 0.0 < radius < float("inf")):
        raise ValueError("injectivity_radius must be finite and > 0, got %r" % (radius,))
    return float(radius)


@dataclass(frozen=True)
class VectorField:
    """Smooth field on the chart; func maps (..., n) -> (..., n) batched.

    jacobian, when given, is batched the same way: it maps (..., n) to the
    (..., n, n) stack of matrices d(func)_i / d(x_j). Otherwise jac uses
    central differences of func, with the step taken per point. table is
    set on polynomial fields: their monomial table (E, C), see
    polynomial_field.
    """

    func: Callable
    jacobian: Optional[Callable] = None
    name: str = ""
    table: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False,
                                                           compare=False)

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    def jac(self, x) -> np.ndarray:
        x = as_points(x)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(x), dtype=float)
        n = x.shape[-1]
        h = 1e-5 * (1.0 + np.max(np.abs(x), axis=-1))[..., None, None]
        steps = h * np.eye(n)  # (..., n, n): row k steps along axis k
        vals = self(np.concatenate([x[..., None, :] + steps,
                                    x[..., None, :] - steps], axis=-2))
        # vals[..., k, i] differentiates component i along axis k
        return np.swapaxes((vals[..., :n, :] - vals[..., n:, :]) / (2.0 * h), -1, -2)


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", A, v)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y](p) = DY(p) X(p) - DX(p) Y(p).

    The bracket of two polynomial fields is again a polynomial field, its
    terms built by the product rule; any other pair is evaluated through
    the two Jacobians.
    """
    name = "[%s,%s]" % (X.name or "X", Y.name or "Y")
    if X.table is not None and Y.table is not None:
        return _table_field(_bracket_table(X.table, Y.table), name)

    def func(p):
        p = np.asarray(p, dtype=float)
        return _matvec(Y.jac(p), X(p)) - _matvec(X.jac(p), Y(p))

    return VectorField(func=func, jacobian=None, name=name)


@dataclass(frozen=True)
class Frame:
    """Adapted frame: fields with nondecreasing degrees, degree-1 block first.

    closed_form, when given, is the combined field (a, z) -> sum_i a_i X_i(z)
    over the first a.shape[-1] fields, as its builder knows it; combined
    uses it in place of evaluating the fields one by one. rk4_steps, when
    given, is the RK4 step count of every time-1 flow (flow_steps), a
    positive integer; by default the frame derives it from its fields'
    monomial tables at the first flow.
    """

    fields: Tuple[VectorField, ...]
    degrees: Tuple[int, ...]
    chart_box: Optional[np.ndarray] = None
    name: str = ""
    closed_form: Optional[Callable] = field(default=None, repr=False, compare=False)
    rk4_steps: Optional[int] = None

    def __post_init__(self):
        if len(self.fields) != len(self.degrees):
            raise ValueError("one degree per field required")
        degs = tuple(int(d) for d in self.degrees)
        if any(d < 1 for d in degs):
            raise ValueError("degrees must be positive")
        if any(degs[i] > degs[i + 1] for i in range(len(degs) - 1)):
            raise ValueError("degrees must be nondecreasing")
        object.__setattr__(self, "degrees", degs)
        if self.chart_box is not None:
            box = np.asarray(self.chart_box, dtype=float)
            if box.shape != (self.n, 2) or not np.all(box[:, 0] < box[:, 1]):
                raise ValueError("chart_box must be (n, 2) with lo < hi rows")
            object.__setattr__(self, "chart_box", box)
        if self.rk4_steps is not None:
            object.__setattr__(self, "rk4_steps", _check_steps(self.rk4_steps, "rk4_steps"))

    @property
    def n(self) -> int:
        return len(self.fields)

    @property
    def m(self) -> int:
        """Number of degree-1 (horizontal) fields."""
        return sum(1 for d in self.degrees if d == 1)

    @property
    def step(self) -> int:
        return max(self.degrees)

    @property
    def layer_dims(self) -> Tuple[int, ...]:
        """Cumulative span dimensions per degree (nu_1, ..., nu_step)."""
        return tuple(sum(1 for d in self.degrees if d <= j)
                     for j in range(1, self.step + 1))

    def scale_coeffs(self, eps, a) -> np.ndarray:
        """Coefficient dilation: a_i -> eps^(deg X_i) a_i.

        Batched: a (k,) eps broadcasts as eps[:, None] against the (..., n)
        stack a, so one (n,) vector or a (k, n) stack gives (k, n) and a
        (P, 1, n) stack gives (P, k, n); a scalar eps keeps the shape of a.
        """
        a = np.asarray(a, dtype=float)
        eps = np.asarray(eps, dtype=float)[..., None]
        return a * (eps ** np.asarray(self.degrees, dtype=float))

    def combined(self, a, z) -> np.ndarray:
        """sum_i a_i X_i(z) over the first k fields, batched.

        a is (..., k) with k <= n coefficients (the degree-1 block comes
        first, so k = m gives the horizontal fields) and z is (..., n); their
        leading axes broadcast.
        """
        a = np.asarray(a, dtype=float)
        z = np.asarray(z, dtype=float)
        if self.closed_form is not None:
            return self.closed_form(a, z)
        vals = np.stack([f(z) for f in self.fields[:a.shape[-1]]], axis=0)  # (k, ..., n)
        return np.einsum("...f,f...n->...n", a, vals)

    def eval_matrix(self, x) -> np.ndarray:
        """Columns X_1(x) ... X_n(x)."""
        x = as_point(x)
        return np.stack([f(x) for f in self.fields], axis=1)

    @cached_property
    def affine_coords(self) -> Optional[Tuple[int, ...]]:
        """The coordinates that some horizontal field reads, when each of
        them moves at constant speed along every horizontal field (its
        component in each is a constant), else None.

        Read off the monomial tables of the degree-1 fields, with no
        numeric probe; None as well when one of them has no table. Along a
        control path these coordinates then move affinely on each segment,
        and the horizontal fields depend on nothing else (see
        carnot._rollout).
        """
        walk = _constant_speed_reads([f.table for f in self.fields[:self.m]])
        return None if walk is None else tuple(int(i) for i in np.flatnonzero(walk[0]))

    @cached_property
    def curved_coords(self) -> Optional[Tuple[int, ...]]:
        """None unless one RK4 step integrates every combined field's flow
        exactly; then the coordinates that do not move at constant speed
        along all of those flows.

        Read off the monomial tables of all n fields, with no numeric
        probe: the step is exact when every coordinate that some field
        reads moves at constant speed along every field (the walk of
        affine_coords) and every component has degree <= 2, as in
        Bellaiche's graded coordinates (The tangent space in sub-Riemannian
        geometry, 1996). The fields then read only coordinates affine in
        the time t, each rate is a quadratic in t, and RK4's update is
        Simpson's rule on it. Coordinate i has constant speed along every
        flow of sum_f a_f X_f when its acceleration sum_fg a_f a_g
        DX_f^i X_g vanishes, that is DX_f^i X_g + DX_g^i X_f = 0 for all f,
        g; flow_exp tests the other, curved ones between a step's ends.
        """
        walk = _constant_speed_reads([f.table for f in self.fields])
        if walk is None or walk[1].sum(axis=1).max(initial=0) > 2:
            return None
        _, E, C, field = walk
        k, n = len(self.fields), E.shape[1]
        # each field's constant term: on the coordinates the fields read,
        # its whole component
        V = np.zeros((k, n))
        const = ~E.any(axis=1)
        V[field[const]] = C[const]
        # T[u, f, g, i] = DX_f^i X_g, of degree <= 1: u indexes the monomials
        # 1, x_1, ..., x_n, and row r differentiated along x_j gives
        # E_rj x^(E_r - e_j)
        r, j = np.nonzero(E)
        rest = E[r] - np.eye(n, dtype=int)[j]
        u = np.where(rest.any(axis=1), 1 + rest.argmax(axis=1), 0)
        T = np.zeros((n + 1, k, k, n))
        np.add.at(T, (u, field[r]), E[r, j][:, None, None] * V[:, j].T[:, :, None]
                  * C[r][:, None, :])
        return tuple(int(i) for i in np.flatnonzero(np.any(T + T.swapaxes(1, 2) != 0.0,
                                                           axis=(0, 1, 2))))

    @cached_property
    def flow_steps(self) -> int:
        """RK4 steps of a time-1 flow: rk4_steps when set, else 1 when that
        step is exact (curved_coords), else FLOW_STEPS. Derived at the first
        call, never at construction."""
        if self.rk4_steps is not None:
            return self.rk4_steps
        return FLOW_STEPS if self.curved_coords is None else 1

    @cached_property
    def hamiltonian(self) -> Callable:
        """The normal-geodesic system on z = (q, p) in rk4_flow's form:
        q' = sum_i u_i X_i(q), p' = -sum_i u_i DX_i(q)^T p, u_i = <p, X_i(q)>
        over the degree-1 fields. Built at the first call and kept:
        _polynomial_hamiltonian, or field by field with DX_i from jac."""
        n, fields = self.n, self.fields[:self.m]
        if all(f.table is not None for f in fields):
            return _polynomial_hamiltonian(fields)

        def rhs(_, z):
            q, p = z[..., :n], z[..., n:]
            B = np.stack([f(q) for f in fields], axis=-2)  # (..., m, n): X_i(q)
            u = np.einsum("...in,...n->...i", B, p)
            A = sum(u[..., i, None, None] * f.jac(q) for i, f in enumerate(fields))
            return np.concatenate([np.einsum("...i,...in->...n", u, B),
                                   -np.einsum("...kn,...k->...n", A, p)], axis=-1)

        return rhs


def _constant_speed_reads(tables):
    """The shared table walk: (read, E, C, field) for the rows (E, C) of all
    the monomial tables stacked, field naming each row's table, when every
    coordinate that some row reads (read, a mask) has a constant component
    in every table, so that it moves at constant speed along every
    combination of the fields; None when one has not, when a table is
    missing, or when there is none."""
    if not tables or any(t is None for t in tables):
        return None
    E = np.concatenate([E for E, _ in tables])
    C = np.concatenate([C for _, C in tables])
    varying = E > 0
    read = varying.any(axis=0)
    if np.any(C[varying.any(axis=1)][:, read] != 0.0):
        return None
    return read, E, C, np.repeat(np.arange(len(tables)), [len(E) for E, _ in tables])


def _rank_of(rows: np.ndarray) -> int:
    if rows.size == 0:
        return 0
    sv = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sv > RANK_TOL * max(1.0, sv[0])))


def _nested_bracket(generators, word):
    """Right-nested bracket [X_w0, [X_w1, [... X_wq]...]] for an index word."""
    f = generators[word[-1]]
    for idx in reversed(word[:-1]):
        f = lie_bracket(generators[idx], f)
    return f


def build_adapted_frame(generators: Sequence[VectorField], probe_points: Sequence,
                        chart_box=None, name: str = "") -> Frame:
    """Greedy adapted frame from bracket-generating fields.

    Iterated brackets are enumerated by word length, lexicographically within
    each length, and kept when they enlarge the span of the already-kept
    fields at every probe point simultaneously. A candidate that enlarges the
    span at some probes but not others makes the layer dimensions
    point-dependent: NonRegular. If the span never reaches full dimension by
    MAX_WORD_LEN, the generators are NotBracketGenerating (within the cap).
    """
    probes = [as_point(p) for p in probe_points]
    if not probes:
        raise ValueError("need at least one probe point")
    n = probes[0].size
    m = len(generators)
    if m < 1:
        raise ValueError("need at least one generator")

    kept = []
    degrees = []
    evals = [np.zeros((0, n)) for _ in probes]  # accepted field values per probe

    def try_accept(f: VectorField, deg: int) -> bool:
        vals = [f(p) for p in probes]
        gains = []
        for k, v in enumerate(vals):
            stacked = np.vstack([evals[k], v[None, :]])
            gains.append(_rank_of(stacked) > evals[k].shape[0])
        if all(gains):
            for k, v in enumerate(vals):
                evals[k] = np.vstack([evals[k], v[None, :]])
            kept.append(f)
            degrees.append(deg)
            return True
        if any(gains):
            raise NonRegular(
                "bracket %s enlarges the span at %d of %d probes only"
                % (f.name, sum(gains), len(gains)))
        return False

    for g in generators:
        try_accept(g, 1)
    if len(kept) < len(generators):
        raise ValueError("generators are linearly dependent at the probes")

    for q in range(2, MAX_WORD_LEN + 1):
        if len(kept) == n:
            break
        for word in product(range(m), repeat=q):
            if len(set(word)) == 1:
                continue  # bracket of a field with itself vanishes
            f = _nested_bracket(generators, word)
            try_accept(f, q)
            if len(kept) == n:
                break

    if len(kept) < n:
        raise NotBracketGenerating(
            "span has dimension %d < %d after words of length %d"
            % (len(kept), n, MAX_WORD_LEN))
    return Frame(fields=tuple(kept), degrees=tuple(degrees), chart_box=chart_box,
                 name=name)


# ---------------------------------------------------------------------------
# Exponential chart


def rk4_step(combined: Callable, a, z, h: float):
    """One classical RK4 step of z' = combined(a, z), a held fixed.

    combined is a Frame.combined or a normal-geodesic right-hand side; a and
    z broadcast as it allows. Returns the next point and the four stage
    points (z, s2, s3, s4) at which the field was evaluated;
    rk4_linearization differentiates the step there.
    """
    k1 = combined(a, z)
    s2 = z + 0.5 * h * k1
    k2 = combined(a, s2)
    s3 = z + 0.5 * h * k2
    k3 = combined(a, s3)
    s4 = z + h * k3
    k4 = combined(a, s4)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (z, s2, s3, s4)


def rk4_linearization(A: np.ndarray, B: np.ndarray, h: float):
    """Derivatives of rk4_step for the control system z' = sum_i u_i X_i(z).

    A (N, 4, n, n) holds sum_i u_i DX_i and B (N, 4, n, m) the columns
    X_1 ... X_m at the four stage points of each of N steps. Returns
    (M, G): M (N, n, n) = d z_{j+1} / d z_j and G (N, n, m) = d z_{j+1} / d u_j.
    """
    eyeN = np.eye(A.shape[-1])
    A1 = A[:, 0]
    A2 = A[:, 1] @ (eyeN + 0.5 * h * A1)
    A3 = A[:, 2] @ (eyeN + 0.5 * h * A2)
    A4 = A[:, 3] @ (eyeN + h * A3)
    B1 = B[:, 0]
    B2 = A[:, 1] @ (0.5 * h * B1) + B[:, 1]
    B3 = A[:, 2] @ (0.5 * h * B2) + B[:, 2]
    B4 = A[:, 3] @ (h * B3) + B[:, 3]
    M = eyeN + (h / 6.0) * (A1 + 2.0 * A2 + 2.0 * A3 + A4)
    G = (h / 6.0) * (B1 + 2.0 * B2 + 2.0 * B3 + B4)
    return M, G


def rk4_flow(f: Callable, A, z):
    """The one loop over RK4 steps: for each a in A, one rk4_step of
    z' = f(a, z) of length 1 / len(A). Yields each step's next point and
    its stage points; flow_exp, the control rollout and the normal-geodesic
    flow each keep what they need of them."""
    h = 1.0 / len(A)
    for a in A:
        z, stages = rk4_step(f, a, z, h)
        yield z, stages


def _turns(z, s2, s4, end) -> np.ndarray:
    """Coordinates at the turning points inside one exact RK4 step, stacked
    (2, ...): end where a root gives none.

    On a frame with curved_coords each coordinate's rate along the step is
    a quadratic in the step's time t in [0, 1] through RK4's own slopes: k1
    at 0, k2 = k3 at 1/2 and k4 at 1. In units of the step, k1 = 2 (s2 - z),
    k2 = s4 - z, and the update gives k4 = 6 (end - z) - k1 - 4 k2, so the
    rate is c + b t + a t^2 with c = k1, b = 8 k2 - 2 k1 - 6 (end - z) and
    a = 12 (end - z - k2). Its roots in (0, 1), taken in the form that
    cancels no digits (Press et al., Numerical Recipes, 5.6), are where the
    coordinate z + c t + b t^2 / 2 + a t^3 / 3 turns.
    """
    c, k2, dz = 2.0 * (s2 - z), s4 - z, end - z
    b, a = 8.0 * k2 - 2.0 * c - 6.0 * dz, 12.0 * (dz - k2)
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    t = np.stack([q / a, c / q])
    turn = (t > 0.0) & (t < 1.0)
    t = np.where(turn, t, 0.0)
    return np.where(turn, z + t * (c + t * (0.5 * b + t * a / 3.0)), end)


def flow_exp(frame: Frame, a, x, steps: Optional[int] = None) -> np.ndarray:
    """Time-1 flow of the combined field sum a_i X_i from x: steps RK4
    steps of length 1 / steps, frame.flow_steps by default (a positive
    integer when given).

    Batched over leading dimensions of a and x. Raises ChartEscape at the
    first step where the path leaves the chart (util.in_chart on the
    frame's box): outside the box or, after an overflow, not finite. The
    test covers each step's end and, where the step is exact, the whole
    path: on a frame with curved_coords, each curved coordinate's turning
    points inside the step are tested too (_turns); the others move at
    constant speed, so their ends bound them.
    """
    steps = frame.flow_steps if steps is None else _check_steps(steps, "steps")
    a, z = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    box = frame.chart_box
    curved = None if box is None else frame.curved_coords
    # an overflow makes a coordinate non-finite, and ChartEscape reports it;
    # one reduction over the whole stack per step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for z, (z0, s2, _, s4) in rk4_flow(frame.combined, [a] * steps, z):
            if not in_chart(box, z).all() or (curved and not in_chart(
                    box[curved, :], _turns(*(p[..., curved] for p in (z0, s2, s4, z)))).all()):
                raise ChartEscape("flow left the chart box")
    return z


def _newton_chart(frame: Frame, w: np.ndarray, z: np.ndarray, injectivity_radius: float):
    """Newton core for flow_exp(frame, y_r, w_r) = z_r over the rows of z.

    w and z are (k, n) stacks (w may be one (n,) point). The first step is
    exact: the derivative in a of the RK4 time-1 flow at a = 0 is the frame
    matrix B(w) = (X_1(w) ... X_n(w)) for any step count, because every stage
    sits at w when the field is 0, so the iteration starts from
    y = B(w)^-1 (z - w), one batched solve and no flow. On a chart that is
    affine in a (the Heisenberg group's) that start is the solution. Each row
    keeps its own threshold CHART_TOL * (1 + max|z_r|) and stops iterating once it
    meets it, so a row's result does not depend on the other rows. One
    flow_exp call per iteration integrates the base point and the +/-
    finite-difference probes of every unconverged row. Returns (y, residual,
    iterations), one entry per row; iterations counts Newton updates, the
    exact first step included. A singular B(w) raises NonRegular naming the
    row's w; a later singular Jacobian, an iterate leaving the injectivity
    ball (named with its norm and its row's w), or a row still above its
    threshold after NEWTON_MAX_ITER raises NoConvergence for the whole call.
    """
    k, n = z.shape
    w = np.broadcast_to(w, z.shape)
    B = np.swapaxes(frame.combined(np.eye(n), w[:, None, :]), 1, 2)  # columns X_i(w)
    try:
        y = np.linalg.solve(B, (z - w)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        r = int(np.argmin(np.linalg.matrix_rank(B)))
        raise NonRegular("the frame's fields are linearly dependent at w = (%s): "
                         "singular chart Jacobian at iteration 0"
                         % ", ".join(repr(float(v)) for v in w[r]))
    thresh = CHART_TOL * (1.0 + np.max(np.abs(z), axis=1))
    res = np.full(k, np.inf)
    iters = np.zeros(k, dtype=int)
    eye = np.eye(n)
    active = np.arange(k)
    for it in range(1, NEWTON_MAX_ITER + 1):
        norms = np.linalg.norm(y[active], axis=1)
        if np.any(norms > 1.5 * injectivity_radius):
            r = active[np.argmax(norms)]
            raise NoConvergence(
                "Newton iterate left the injectivity ball at iteration %d: |a| = %.6g above "
                "1.5 x injectivity_radius = %.6g for w = (%s)"
                % (it, norms.max(), 1.5 * injectivity_radius,
                   ", ".join(repr(float(v)) for v in w[r])))
        # per row: base point first, then +/- perturbations per coefficient
        ya = y[active, None, :]
        probes = np.concatenate([ya, ya + FD_STEP * eye, ya - FD_STEP * eye], axis=1)
        flows = flow_exp(frame, probes, w[active, None, :], steps=frame.flow_steps)
        F = flows[:, 0] - z[active]
        res[active] = np.max(np.abs(F), axis=1)
        todo = res[active] >= thresh[active]
        iters[active[~todo]] = it
        active = active[todo]
        if active.size == 0:
            return y, res, iters
        flows, F = flows[todo], F[todo]
        J = np.swapaxes(flows[:, 1:n + 1] - flows[:, n + 1:], 1, 2) / (2.0 * FD_STEP)
        try:
            y[active] = y[active] + np.linalg.solve(J, -F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise NoConvergence("singular chart Jacobian at iteration %d" % it)
    worst = active[np.argmax(res[active] / thresh[active])]
    raise NoConvergence("chart residual %.3g above %.3g after %d iterations"
                        % (res[worst], thresh[worst], NEWTON_MAX_ITER))


def chart_inverse(frame: Frame, w, z, injectivity_radius: float = 0.5) -> np.ndarray:
    """Coefficients a with flow_exp(frame, a, w) = z (Newton iteration).

    Batched: w and z are broadcastable (..., n) stacks, and the result has
    their broadcast shape; all rows are solved together, each to the same
    bits as a solve on its own. The first Newton step is exact and costs no
    flow: B(w)^-1 (z - w), B(w) the frame matrix at w. On the one-step
    Heisenberg chart it is the answer, and the call runs one flow to check
    it. Later Jacobians use central differences of the flow, all probes
    integrated as one batch. Converged when the chart residual drops below
    CHART_TOL * (1 + |z|). A frame whose fields are linearly dependent at
    some w raises NonRegular naming that w; iterates that leave the
    injectivity ball (coefficient norm cap, a finite injectivity_radius >
    0) or fail to settle raise NoConvergence for the whole call.
    """
    radius = check_injectivity_radius(injectivity_radius)
    w, z = as_points(w), as_points(z)
    shape = np.broadcast_shapes(w.shape, z.shape)
    n = shape[-1]
    y, _, _ = _newton_chart(frame, np.broadcast_to(w, shape).reshape(-1, n),
                            np.broadcast_to(z, shape).reshape(-1, n), radius)
    return y.reshape(shape)


def compose_rows(frame: Frame, A, B, x):
    """Solve exp(sum P_i X_i)(exp(sum b_i X_i)(x)) = exp(sum a_i X_i)(x) for
    the rows a, b of (k, n) coefficient stacks A and B at one x.

    Two batched flows and one Newton solve (chart_inverse's tolerance and
    injectivity ball); returns the (P, residual, iterations) arrays, each row
    with the bits of a solve on its own. Iterations count Newton updates,
    the exact first step included, so they are at least 1.
    """
    target = flow_exp(frame, A, x, steps=frame.flow_steps)
    start = flow_exp(frame, B, x, steps=frame.flow_steps)
    return _newton_chart(frame, start, target, 0.5)


# ---------------------------------------------------------------------------
# Polynomial fields and JSON manifests


def _table(terms, n: int, shape: tuple):
    """Monomial table (E, C) of a polynomial map from R^n to arrays of shape.

    terms are (exponents, index into shape, coefficient) triples. E (M, n)
    holds each distinct exponent tuple once, in order of first appearance,
    and C (M, *shape) its coefficients; monomials whose coefficients all
    cancel are dropped.
    """
    rows = {}
    for exps, idx, c in terms:
        rows.setdefault(tuple(int(e) for e in exps), np.zeros(shape))[idx] += c
    keep = [(e, c) for e, c in rows.items() if np.any(c != 0.0)]
    E = np.array([e for e, _ in keep], dtype=int).reshape((len(keep), n))
    C = np.array([c for _, c in keep], dtype=float).reshape((len(keep),) + shape)
    return E, C


def _monomials(x, E) -> np.ndarray:
    """x^E_r for every exponent row r of E (M, n): (..., n) -> (..., M)."""
    return np.multiply.reduce(x[..., None, :] ** E, axis=-1)


def _poly_values(x, E, C) -> np.ndarray:
    """sum_r C[r] x^E_r at (..., n) points, shape (...) + C.shape[1:].

    One power table, then a product over coordinates and a sum over
    monomials; both reductions run in index order for any batch shape, so a
    point gets the same bits alone as inside a batch.
    """
    mono = _monomials(x, E)
    mono = mono.reshape(mono.shape + (1,) * (C.ndim - 1))
    return np.add.reduce(mono * C, axis=-C.ndim)


def _jacobian_table(table):
    """Table of the Jacobian, coefficients (M, n, n): d/dx_j of c x^e is
    (c e_j) x^(e - unit_j)."""
    E, C = table
    n = E.shape[1]
    unit = np.eye(n, dtype=int)
    return _table([(E[r] - unit[j], (i, j), C[r, i] * E[r, j])
                   for r in range(len(E)) for i in range(n) for j in range(n)
                   if E[r, j] > 0], n, (n, n))


def _bracket_table(tx, ty):
    """Table of [X, Y] = DY X - DX Y, term by term by the product rule."""
    n = tx[0].shape[1]
    terms = []
    for (Ev, Cv), (Ed, Cd), sign in ((tx, _jacobian_table(ty), 1.0),
                                     (ty, _jacobian_table(tx), -1.0)):
        for r in range(len(Ev)):
            for s in range(len(Ed)):
                coef = sign * (Cd[s] @ Cv[r])
                terms += [(Ev[r] + Ed[s], i, coef[i]) for i in range(n)]
    return _table(terms, n, (n,))


def _table_field(table, name: str) -> VectorField:
    E, C = table
    Ej, Cj = _jacobian_table(table)
    E, Ej = E.astype(float), Ej.astype(float)
    return VectorField(func=lambda x: _poly_values(x, E, C),
                       jacobian=lambda x: _poly_values(x, Ej, Cj), name=name, table=table)


def _is_number(v) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(v, Real) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def polynomial_field(components: Sequence, name: str = "") -> VectorField:
    """Field from per-component monomial term lists.

    components[i] is a list of [coeff, [e_1, ..., e_n]] terms; component i of
    the field value is sum coeff * prod_k x_k^e_k; coeff must be a finite
    number and each e_k a nonnegative integer. The terms become one monomial table (exponents and
    coefficients), through which the value and the analytic Jacobian are
    evaluated, both batched over leading axes.
    """
    n = len(components)
    terms = []
    for i, comp in enumerate(components):
        for t in comp:
            # a term is [coeff, exponents]; NaN, +-inf and integers past the
            # float range are numbers too
            term = isinstance(t, (list, tuple)) and len(t) == 2
            exps = list(t[1]) if term and isinstance(t[1], (list, tuple)) else [None]
            if not (term and _is_number(t[0]) and abs(t[0]) <= sys.float_info.max
                    and len(exps) == n and all(map(_is_number, exps))
                    and all(0 <= e <= sys.float_info.max and float(e).is_integer()
                            for e in exps)):
                raise ValueError("component %d term %r: want a finite number and %d "
                                 "nonnegative integer exponents" % (i, t, n))
            terms.append((exps, i, float(t[0])))
    return _table_field(_table(terms, n, (n,)), name)


def _polynomial_combined(fields: Sequence[VectorField]) -> Callable:
    """Closed form of sum_i a_i X_i(z) for polynomial fields: one power table
    over the union of the first k fields' monomials and one coefficient
    contraction. Only those monomials are evaluated, so the sum reads no
    coordinate that the first k fields do not read."""
    n = fields[0].table[0].shape[1]
    E, C = _table([(row, (f, i), c)
                   for f, fld in enumerate(fields) for Ef, Cf in [fld.table]
                   for row, coeffs in zip(Ef, Cf) for i, c in enumerate(coeffs)],
                  n, (len(fields), n))  # C[r, f, i]: monomial r in component i of field f
    E = E.astype(float)
    # per coefficient count k: the first k fields' monomials, with their
    # coefficients field-major
    blocks = []
    for k in range(len(fields) + 1):
        rows = np.any(C[:, :k] != 0.0, axis=(1, 2))
        blocks.append((E[rows], C[rows, :k].transpose(1, 0, 2).reshape(k * int(rows.sum()), n)))

    def combined(a, z):
        Ek, Ck = blocks[a.shape[-1]]
        w = a[..., :, None] * _monomials(z, Ek)[..., None, :]  # (..., k, M): a_f x^E_r
        return np.add.reduce(w.reshape(w.shape[:-2] + (len(Ck), 1)) * Ck, axis=-2)

    return combined


def _polynomial_hamiltonian(fields: Sequence[VectorField]) -> Callable:
    """Closed form of the normal-geodesic system of polynomial fields X_i:
    z = (q, p) -> (dH/dp, -dH/dq) for H = 1/2 sum_i <p, X_i(q)>^2, in
    rk4_flow's form (its coefficient argument is unused).

    With u_i = <p, X_i(q)>, dH/dp = sum_i u_i X_i(q) is linear in p and
    -dH/dq = -sum_i u_i d_q u_i quadratic, with coefficients polynomial in
    q: one table T, a row per pair of a q-monomial and a p-feature (p_l or
    p_l p_k) and a column per component of (q', p'). Monomials E_r, E_s of
    the fields' table C[r, i, k], with Q[l, k] = sum_i C[s, i, l] C[r, i, k],
    add Q at (q^(E_r + E_s), p_l) to q'_k and -E_rj Q at
    (q^(E_r + E_s - e_j), p_l p_k) to p'_j. One power table, one outer
    product with the features and one dot product per component evaluate
    it, each row on its own: a point gets the same bits alone as in a batch."""
    n = fields[0].table[0].shape[1]
    E, C = _table([(row, (i, k), c)
                   for i, fld in enumerate(fields) for row, coeffs in zip(*fld.table)
                   for k, c in enumerate(coeffs)],
                  n, (len(fields), n))  # C[r, i, k]: monomial r in component k of field i
    unit = np.eye(n, dtype=int)
    terms = []
    for r, s in product(range(len(E)), repeat=2):
        Q = C[s].T @ C[r]
        terms.append((E[r] + E[s], (slice(0, n), slice(0, n)), Q))
        terms += [(E[r] + E[s] - unit[j], (slice(n, None), n + j), -E[r, j] * Q.ravel())
                  for j in np.flatnonzero(E[r])]
    Eq, T = _table(terms, n, (n + n * n, 2 * n))  # T[t, f, c]: feature f of monomial t in c
    Eq, T = Eq.astype(float), np.ascontiguousarray(T.reshape(-1, 2 * n).T)[:, :, None]

    def rhs(_, z):
        q, p = z[..., :n], z[..., n:]
        pp = (p[..., :, None] * p[..., None, :]).reshape(p.shape[:-1] + (n * n,))
        w = _monomials(q, Eq)[..., :, None] * np.concatenate([p, pp], axis=-1)[..., None, :]
        return (w.reshape(z.shape[:-1] + (1, 1, T.shape[1])) @ T)[..., 0, 0]

    return rhs


MANIFEST_SCHEMA = 1


def frame_from_manifest(doc: dict) -> Frame:
    """Build a frame from a JSON manifest document.

    Schema (version 1):
      {"schema": 1, "name": str, "dim": int,
       "generators": [field, ...],        # bracket-generating fields
       "fields": [field, ...],            # OR: the full frame, with
       "degrees": [int, ...],             #     explicit degrees
       "probes": [[...], ...],            # probe points of dim finite numbers
                                          # (default: 4 seeded normal draws)
       "chart_halfwidth": float}          # chart box half-width, finite, > 0 (default 3)

    field := list of dim components; component := list of [coeff, exponents]
    monomial terms. Raises ValueError naming the offending entry on parse
    problems.
    """
    if not isinstance(doc, dict):
        raise ValueError("manifest: top level must be an object")
    if not _is_int(doc.get("schema")) or doc["schema"] != MANIFEST_SCHEMA:
        raise ValueError("manifest: field 'schema' must equal %d" % MANIFEST_SCHEMA)
    dim = doc.get("dim")
    if not _is_int(dim):
        raise ValueError("manifest: field 'dim' missing or not an integer")
    if dim < 1:
        raise ValueError("manifest: field 'dim' must be positive")
    name = str(doc.get("name", "manifest"))

    half = doc.get("chart_halfwidth", 3.0)
    # NaN compares false with every point, and NaN, inf and integers past
    # the float range would reach the chart box unchecked
    if not (_is_number(half) and 0.0 < half <= sys.float_info.max):
        raise ValueError("manifest: field 'chart_halfwidth' must be a finite positive "
                         "number, got %r" % (half,))

    def parse_fields(key):
        raw = doc[key]
        if not isinstance(raw, list) or not raw:
            raise ValueError("manifest: field %r must be a nonempty list" % key)
        out = []
        for idx, comp in enumerate(raw):
            if not isinstance(comp, list) or len(comp) != dim:
                raise ValueError("manifest: field %r entry %d must have %d components"
                                 % (key, idx, dim))
            try:
                out.append(polynomial_field(comp, name="%s[%d]" % (key, idx)))
            except (ValueError, TypeError, IndexError) as exc:
                raise ValueError("manifest: field %r entry %d: %s" % (key, idx, exc))
        return out

    if "fields" in doc:
        fields = parse_fields("fields")
        if len(fields) != dim:
            raise ValueError("manifest: field 'fields' must list %d fields, one per axis" % dim)
        if "degrees" not in doc:
            raise ValueError("manifest: field 'degrees' required alongside 'fields'")
        degrees = doc["degrees"]
        if (not isinstance(degrees, list) or len(degrees) != len(fields)
                or any(not _is_int(d) or d < 1 for d in degrees)):
            raise ValueError("manifest: field 'degrees' must list one positive "
                             "integer per field")
        return Frame(tuple(fields), tuple(degrees), symmetric_box(dim, half), name,
                     closed_form=_polynomial_combined(fields))

    if "generators" not in doc:
        raise ValueError("manifest: need either 'generators' or 'fields'")
    gens = parse_fields("generators")
    probes = doc.get("probes")
    if probes is None:
        rng = np.random.RandomState(7)
        probes = 0.3 * rng.standard_normal((4, dim))
    else:
        if not isinstance(probes, list) or not probes:
            raise ValueError("manifest: field 'probes' must be a nonempty list")
        for idx, p in enumerate(probes):
            if not (isinstance(p, list) and len(p) == dim and all(map(_is_number, p))
                    and all(abs(v) <= sys.float_info.max for v in p)):
                raise ValueError("manifest: field 'probes' entry %d must be %d finite numbers, "
                                 "got %r" % (idx, dim, p))
        probes = [as_point(p) for p in probes]
    frame = build_adapted_frame(gens, probes, chart_box=symmetric_box(dim, half), name=name)
    # brackets of polynomial fields are polynomial: the whole frame shares one table
    return replace(frame, closed_form=_polynomial_combined(frame.fields))
