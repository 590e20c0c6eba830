"""Golden bits of the verdict kernels: richardson_limit and gh_pointed_exact.

tests/verdicts/kernels.json holds what both kernels return on seeded inputs:
- for 1,000 sequences along 3 to 12 scales (first order, other powers,
  noise that grows as eps shrinks, rotating error terms, constants, repeated
  values, NaN, +-inf, and rows scaled by 1e300 or 1e-300; scalar, 1-, 2- and
  3-vector values), the note, the verdict, and float.hex of the error and of
  every extrapolated coordinate;
- for seeded pairs of pointed spaces of every pair of sizes from 1 to
  gromov.SIZE_LIMIT (Euclidean clouds, and small integer l1 clouds full of
  ties), float.hex of the exact pointed GH distance.
The test recomputes both and compares them exactly. A change that moves a
bit on purpose rewrites the file and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_kernel_bits.py
"""

import itertools
import json
from pathlib import Path

import numpy as np

from dilatlab.geometry import FinitePointedSpace
from dilatlab.gromov import SIZE_LIMIT, gh_pointed_exact
from dilatlab.limits import richardson_limit
from dilatlab.util import halving_schedule

GOLDEN = Path(__file__).resolve().parent / "verdicts" / "kernels.json"
SEQUENCES = 1000
KINDS = ("first", "power", "noisy", "rotating", "constant", "repeats", "nan", "inf",
         "huge", "tiny")
SHAPES = ((), (1,), (2,), (3,))


def _schedule(rng, k):
    if rng.rand() < 0.75:
        return halving_schedule(float(rng.choice([1.0, 0.5, 0.25, 0.125])), k)
    # strictly decreasing but not geometric, so the predicted ratios vary
    while True:
        eps = np.sort(rng.uniform(1e-4, 1.0, k))[::-1].copy()
        if np.all(eps[1:] < eps[:-1]):
            return eps


def _values(rng, kind, eps, shape):
    k = eps.size
    e = eps.reshape((k,) + (1,) * len(shape))
    L, a, b = (rng.standard_normal(shape) for _ in range(3))
    first = L + a * e + b * e ** 2
    if kind == "first":
        return first
    if kind == "power":
        return L + a * e ** rng.uniform(0.3, 3.5)
    if kind == "noisy":
        noise = 10.0 ** rng.uniform(-12, -6) * rng.standard_normal((k,) + shape)
        return first + noise * e ** -float(rng.randint(0, 3))
    if kind == "rotating":
        return L + a * e * np.cos(rng.uniform(0.5, 2.0) * np.log(e) + rng.uniform(0, 6.3))
    if kind == "constant":
        v = np.broadcast_to(L, (k,) + shape).copy()
        if rng.rand() < 0.5:  # jitter at the float floor
            v += 1e-15 * rng.standard_normal(v.shape)
        return v
    if kind == "repeats":  # some successive differences exactly 0
        rows = np.sort(rng.choice(np.arange(1, k), size=rng.randint(1, k)))
        first[rows] = first[rows - 1]
        return first
    if kind in ("nan", "inf"):
        flat = first.reshape(k, -1)
        for _ in range(rng.randint(1, 3)):
            bad = np.nan if kind == "nan" else float(rng.choice([np.inf, -np.inf]))
            flat[rng.randint(k), rng.randint(flat.shape[1])] = bad
        return first
    if kind == "huge":
        return first * 10.0 ** rng.uniform(300, 308)
    return first * 1e-300


def richardson_cases():
    """(eps, values) for the seeded sequences, in order."""
    rng = np.random.RandomState(20260)
    cases = []
    for _ in range(SEQUENCES):
        k = int(rng.choice([3, 4, 8, 12], p=[0.1, 0.1, 0.4, 0.4]))
        kind = KINDS[rng.randint(len(KINDS))]
        shape = SHAPES[rng.randint(len(SHAPES))]
        eps = _schedule(rng, k)
        with np.errstate(all="ignore"):
            cases.append((eps, _values(rng, kind, eps, shape)))
    return cases


def _space(n, rng, ties):
    if ties:  # small integer points under l1: repeated distances and points
        pts = rng.randint(0, 3, size=(n, 2)).astype(float)
        d = np.abs(pts[:, None] - pts[None]).sum(axis=2)
    else:
        pts = rng.uniform(0.3, 3.0) * rng.standard_normal((n, rng.randint(1, 4)))
        d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    return FinitePointedSpace(dmat=d, base=rng.randint(n))


def gh_cases():
    """(A, B) for every pair of sizes 1..SIZE_LIMIT, twice: Euclidean, then l1."""
    rng = np.random.RandomState(20261)
    return [(_space(nA, rng, ties), _space(nB, rng, ties))
            for ties in (False, True)
            for nA, nB in itertools.product(range(1, SIZE_LIMIT + 1), repeat=2)]


def _richardson_row(est):
    return [est.note, bool(est.converged), float(est.error).hex(),
            [float(t).hex() for t in np.ravel(est.extrapolated)]]


def golden():
    with np.errstate(all="ignore"):
        rich = [_richardson_row(richardson_limit(eps, v)) for eps, v in richardson_cases()]
    return {"richardson": rich,
            "gh": [gh_pointed_exact(A, B).hex() for A, B in gh_cases()]}


def test_richardson_limit_bits():
    want = json.loads(GOLDEN.read_text())["richardson"]
    cases = richardson_cases()
    assert len(cases) == len(want) == SEQUENCES
    for r, ((eps, v), w) in enumerate(zip(cases, want)):
        with np.errstate(all="ignore"):
            est = richardson_limit(eps, v)
        assert _richardson_row(est) == w, (r, eps, v)
        # the values are returned as given; the limit has one value's shape
        assert est.values is v
        assert isinstance(est.extrapolated, np.ndarray)
        assert est.extrapolated.shape == v.shape[1:] and est.extrapolated.dtype == float
        assert type(est.error) is float and type(est.converged) is bool


def test_gh_pointed_exact_bits():
    want = json.loads(GOLDEN.read_text())["gh"]
    got = [gh_pointed_exact(A, B) for A, B in gh_cases()]
    assert len(got) == len(want) == 2 * SIZE_LIMIT ** 2
    for r, (g, w) in enumerate(zip(got, want)):
        assert type(g) is float and g.hex() == w, r


def write_golden():
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = golden()
    GOLDEN.write_text("{\"gh\": [\n" + ",\n".join(json.dumps(g) for g in doc["gh"])
                      + "\n],\n\"richardson\": [\n"
                      + ",\n".join(json.dumps(r) for r in doc["richardson"]) + "\n]}\n")


if __name__ == "__main__":
    write_golden()
