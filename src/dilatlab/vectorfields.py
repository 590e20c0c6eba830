"""Vector fields, Lie brackets, adapted frames and exponential charts.

A frame is an ordered tuple of vector fields spanning R^n at every probe
point, each tagged with a degree (the bracket word length that produced it).
The exponential chart at w sends coefficients a to the time-1 flow of the
combined field sum_i a_i X_i started at w; chart_inverse solves the reverse
problem by Newton iteration with finite-difference Jacobians.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ChartEscape, NoConvergence, NonRegular, NotBracketGenerating
from .util import as_point, as_points

RANK_TOL = 1e-7


@dataclass(frozen=True)
class VectorField:
    """Smooth field on the chart; func maps (..., n) -> (..., n) batched.

    jacobian, when given, is batched the same way: it maps (..., n) to the
    (..., n, n) stack of matrices d(func)_i / d(x_j). Otherwise jac uses
    central differences of func, with the step taken per point.
    """

    func: Callable
    jacobian: Optional[Callable] = None
    name: str = ""

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
    """[X, Y](p) = DY(p) X(p) - DX(p) Y(p)."""

    def func(p):
        p = np.asarray(p, dtype=float)
        return _matvec(Y.jac(p), X(p)) - _matvec(X.jac(p), Y(p))

    name = "[%s,%s]" % (X.name or "X", Y.name or "Y")
    return VectorField(func=func, jacobian=None, name=name)


@dataclass(frozen=True)
class Frame:
    """Adapted frame: fields with nondecreasing degrees, degree-1 block first."""

    fields: Tuple[VectorField, ...]
    degrees: Tuple[int, ...]
    chart_box: Optional[np.ndarray] = None
    name: str = ""

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
            object.__setattr__(self, "chart_box", np.asarray(self.chart_box, dtype=float))

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

        Batched: eps of shape (k,) scales the rows of a (k, n) or one (n,)
        coefficient vector, giving (k, n); a scalar eps keeps the shape of a.
        """
        a = np.asarray(a, dtype=float)
        eps = np.asarray(eps, dtype=float)[..., None]
        return a * (eps ** np.asarray(self.degrees, dtype=float))

    def eval_matrix(self, x) -> np.ndarray:
        """Columns X_1(x) ... X_n(x)."""
        x = as_point(x)
        return np.stack([f(x) for f in self.fields], axis=1)


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
                        max_word_len: int = 6, chart_box=None,
                        name: str = "") -> Frame:
    """Greedy adapted frame from bracket-generating fields.

    Iterated brackets are enumerated by word length, lexicographically within
    each length, and kept when they enlarge the span of the already-kept
    fields at every probe point simultaneously. A candidate that enlarges the
    span at some probes but not others makes the layer dimensions
    point-dependent: NonRegular. If the span never reaches full dimension by
    max_word_len, the generators are NotBracketGenerating (within the cap).
    """
    from itertools import product

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

    for q in range(2, max_word_len + 1):
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
            % (len(kept), n, max_word_len))
    return Frame(fields=tuple(kept), degrees=tuple(degrees), chart_box=chart_box,
                 name=name)


# ---------------------------------------------------------------------------
# Exponential chart


def _combined(frame: Frame, a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_i a_i X_i(z), batched: a (..., n) against z (..., n)."""
    vals = np.stack([f(z) for f in frame.fields], axis=0)  # (n_fields, ..., n)
    return np.einsum("...f,f...n->...n", a, vals)


def flow_exp(frame: Frame, a, x, steps: int = 256) -> np.ndarray:
    """Time-1 flow of the combined field sum a_i X_i from x (RK4, fixed grid).

    Batched over leading dimensions of a and x. Raises ChartEscape when the
    frame declares a chart box and the trajectory leaves it.
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(x, dtype=float)
    a, z = np.broadcast_arrays(a, z)
    z = z.astype(float).copy()
    h = 1.0 / int(steps)
    box = frame.chart_box
    for _ in range(int(steps)):
        k1 = _combined(frame, a, z)
        k2 = _combined(frame, a, z + 0.5 * h * k1)
        k3 = _combined(frame, a, z + 0.5 * h * k2)
        k4 = _combined(frame, a, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if box is not None and (np.any(z < box[:, 0]) or np.any(z > box[:, 1])):
            raise ChartEscape("flow left the chart box")
    return z


def _newton_chart(frame: Frame, w: np.ndarray, z: np.ndarray, tol: float,
                  max_iter: int, fd_step: float, injectivity_radius: float,
                  steps: int):
    """Newton core for flow_exp(frame, y_r, w_r) = z_r over the rows of z.

    w and z are (k, n) stacks (w may be one (n,) point). Each row keeps its
    own threshold tol * (1 + max|z_r|) and stops iterating once it meets it,
    so a row's result does not depend on the other rows. One flow_exp call
    per iteration integrates the base point and the +/- finite-difference
    probes of every unconverged row. Returns (y, residual, iterations), one
    entry per row; a singular Jacobian, an iterate leaving the injectivity
    ball, or a row still above its threshold after max_iter raises
    NoConvergence for the whole call.
    """
    k, n = z.shape
    w = np.broadcast_to(w, z.shape)
    y = np.zeros((k, n))
    thresh = tol * (1.0 + np.max(np.abs(z), axis=1))
    res = np.full(k, np.inf)
    iters = np.zeros(k, dtype=int)
    eye = np.eye(n)
    active = np.arange(k)
    for it in range(max_iter):
        # per row: base point first, then +/- perturbations per coefficient
        ya = y[active, None, :]
        probes = np.concatenate([ya, ya + fd_step * eye, ya - fd_step * eye], axis=1)
        flows = flow_exp(frame, probes, w[active, None, :], steps=steps)
        F = flows[:, 0] - z[active]
        res[active] = np.max(np.abs(F), axis=1)
        todo = res[active] >= thresh[active]
        iters[active[~todo]] = it
        active = active[todo]
        if active.size == 0:
            return y, res, iters
        flows, F = flows[todo], F[todo]
        J = np.swapaxes(flows[:, 1:n + 1] - flows[:, n + 1:], 1, 2) / (2.0 * fd_step)
        try:
            y[active] = y[active] + np.linalg.solve(J, -F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise NoConvergence("singular chart Jacobian at iteration %d" % it)
        if np.any(np.linalg.norm(y[active], axis=1) > 1.5 * injectivity_radius):
            raise NoConvergence("Newton iterate left the injectivity ball")
    worst = active[np.argmax(res[active] / thresh[active])]
    raise NoConvergence("chart residual %.3g above %.3g after %d iterations"
                        % (res[worst], thresh[worst], max_iter))


def chart_inverse(frame: Frame, w, z, tol: float = 1e-12, max_iter: int = 50,
                  fd_step: float = 1e-6, injectivity_radius: float = 0.5,
                  steps: int = 256) -> np.ndarray:
    """Coefficients a with flow_exp(frame, a, w) = z (Newton iteration).

    Batched: w and z are points (n,) or stacks (k, n), and the result has
    their broadcast shape; all rows are solved together, each to the same
    bits as a solve on its own. Converged when the chart residual drops
    below tol * (1 + |z|); iterates that leave the injectivity ball
    (coefficient norm cap) or fail to settle raise NoConvergence for the
    whole call. The Jacobian uses central differences of the flow, all
    probes integrated as one batch.
    """
    w = as_points(w)
    z = as_points(z)
    shape = np.broadcast_shapes(w.shape, z.shape)
    n = shape[-1]
    y, _, _ = _newton_chart(frame, np.broadcast_to(w, shape).reshape(-1, n),
                            np.broadcast_to(z, shape).reshape(-1, n), tol, max_iter,
                            fd_step, injectivity_radius, steps)
    return y.reshape(shape)


@dataclass(frozen=True)
class CompositionResult:
    coeffs: np.ndarray
    residual: float
    iterations: int


def compose_P(frame: Frame, a, b, x, steps: int = 256, tol: float = 1e-12,
              injectivity_radius: float = 0.5) -> CompositionResult:
    """Solve exp(sum P_i X_i)(exp(sum b_i X_i)(x)) = exp(sum a_i X_i)(x).

    Returns the coefficients P with the final chart residual and Newton
    iteration count.
    """
    a = as_point(a)
    b = as_point(b)
    x = as_point(x)
    target = flow_exp(frame, a, x, steps=steps)
    start = flow_exp(frame, b, x, steps=steps)
    y, res, it = _newton_chart(frame, start, target[None, :], tol, 50, 1e-6,
                               injectivity_radius, steps)
    return CompositionResult(coeffs=y[0], residual=float(res[0]),
                             iterations=int(it[0]))


# ---------------------------------------------------------------------------
# Polynomial fields and JSON manifests


def polynomial_field(components: Sequence, name: str = "") -> VectorField:
    """Field from per-component monomial term lists.

    components[i] is a list of [coeff, [e_1, ..., e_n]] terms; component i of
    the field value is sum coeff * prod_k x_k^e_k. The Jacobian is assembled
    analytically from the monomials; both are batched over leading axes.
    """
    comps = []
    n = len(components)
    for i, terms in enumerate(components):
        parsed = []
        for t in terms:
            c = float(t[0])
            exps = np.asarray(t[1], dtype=int)
            if exps.size != n or np.any(exps < 0):
                raise ValueError("component %d has a bad exponent tuple %r" % (i, t[1]))
            parsed.append((c, exps))
        comps.append(parsed)
    # d/dx_j of c * x^e is (c * e_j) * x^(e - unit_j): one entry per (i, j)
    dterms = [(i, j, c * exps[j], exps - np.eye(n, dtype=int)[j])
              for i, terms in enumerate(comps) for c, exps in terms
              for j in range(n) if exps[j] != 0]

    def func(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for i, terms in enumerate(comps):
            acc = 0.0
            for c, exps in terms:
                acc = acc + c * np.prod(x ** exps, axis=-1)
            out[..., i] = acc
        return out

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (n, n))
        for i, j, c, exps in dterms:
            J[..., i, j] += c * np.prod(x ** exps, axis=-1)
        return J

    return VectorField(func=func, jacobian=jacobian, name=name)


MANIFEST_SCHEMA = 1


def frame_from_manifest(doc: dict) -> Frame:
    """Build a frame from a JSON manifest document.

    Schema (version 1):
      {"schema": 1, "name": str, "dim": int,
       "generators": [field, ...],        # bracket-generating fields
       "fields": [field, ...],            # OR: the full frame, with
       "degrees": [int, ...],             #     explicit degrees
       "probes": [[...], ...],            # probe points (default: small grid)
       "chart_halfwidth": float}          # optional chart box

    field := list of dim components; component := list of [coeff, exponents]
    monomial terms. Raises ValueError naming the offending entry on parse
    problems.
    """
    if not isinstance(doc, dict):
        raise ValueError("manifest: top level must be an object")
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError("manifest: field 'schema' must equal %d" % MANIFEST_SCHEMA)
    try:
        dim = int(doc["dim"])
    except (KeyError, TypeError, ValueError):
        raise ValueError("manifest: field 'dim' missing or not an integer")
    if dim < 1:
        raise ValueError("manifest: field 'dim' must be positive")
    name = str(doc.get("name", "manifest"))

    half = float(doc.get("chart_halfwidth", 3.0))
    box = np.stack([np.full(dim, -half), np.full(dim, half)], axis=1)

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
        if "degrees" not in doc:
            raise ValueError("manifest: field 'degrees' required alongside 'fields'")
        degrees = doc["degrees"]
        if (not isinstance(degrees, list) or len(degrees) != len(fields)
                or any(not isinstance(d, int) or d < 1 for d in degrees)):
            raise ValueError("manifest: field 'degrees' must list one positive "
                             "integer per field")
        return Frame(fields=tuple(fields), degrees=tuple(degrees), chart_box=box,
                     name=name)

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
        probes = [as_point(p) for p in probes]
    return build_adapted_frame(gens, probes, chart_box=box, name=name)
