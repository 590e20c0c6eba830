"""The three benchmark workloads: seeded job lists, how one job runs, and the
independent oracle each job is checked against.

A workload builds what its jobs share (``build``), draws rounds of jobs from a
seeded generator (``draw_round``) and runs one job (``run_job``). A round is
the unit ``wall_s`` times: ten flat jobs (one per closed-form structure), one
Heisenberg job, or three CC pairs (horizontal, vertical, mixed). The program
receives only the generated inputs; every oracle is computed here, not read
back from the program's own report.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

# Program functions are looked up as module attributes at call time, so that
# the tracer's wrappers take effect; the oracle heisenberg_cc is bound here at
# import, before any wrapper exists, so oracle calls never count as spans.
from dilatlab import carnot, cli, vectorfields
from dilatlab.carnot import LIGHT_CC, heisenberg_cc
from dilatlab.errors import DilatlabError
from dilatlab.structures import build_structure, structure_names

# Heisenberg generator manifest, the same document tests/test_cli.py feeds to
# the CLI's --manifest path.
HEIS_MANIFEST = {
    "schema": 1,
    "name": "heis-manifest",
    "dim": 3,
    "chart_halfwidth": 2.0,
    "generators": [
        [[[1.0, [0, 0, 0]]], [], [[-0.5, [0, 1, 0]]]],
        [[], [[1.0, [0, 0, 0]]], [[0.5, [1, 0, 0]]]],
    ],
}

FLAT_CHECKS = "a0a1,a2,a3,a4,cone,tangent-cone,profile"
HEIS_CHECKS = "a0a1,a2,a3,a4"
# Relative band of acceptance criterion 08 around the exact Heisenberg distance.
CC_BAND = 1e-2
# Absolute slack added to a reported error bar before an oracle gap counts as
# a miss: float round-off in the benchmark's own closed forms.
ORACLE_SLACK = 1e-9


@dataclass
class Outcome:
    """What one job produced. ``failed`` is empty when the job succeeded."""

    failed: str = ""
    gap: float = 0.0
    checks_run: int = 0
    checks_passed: int = 0


def _point_arg(p) -> str:
    # "--point=P": argparse reads "--point -0.15,..." as an option and exits 64
    return "--point=" + ",".join(repr(float(v)) for v in p)


def _cli_job(argv):
    """Run dilatlab.cli.main in-process; returns (report, failure reason)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    if "Traceback" in err.getvalue():
        return None, "%s printed a traceback" % argv[0]
    if rc not in (0, 1, 2):
        return None, "%s exited %d" % (argv[0], rc)
    try:
        return json.loads(out.getvalue()), ""
    except json.JSONDecodeError:
        return None, "%s printed no report (exit %d)" % (argv[0], rc)


def _count_checks(doc, out: Outcome):
    out.checks_run += len(doc["checks"])
    out.checks_passed += sum(1 for c in doc["checks"] if c["passed"])


def _oracle_gaps(doc, expected: dict, out: Outcome):
    """Compare tangent outputs with closed forms, within the reported error bar."""
    bar = float(doc["limit_error"]) + ORACLE_SLACK
    for key, want in expected.items():
        gap = float(np.max(np.abs(np.asarray(doc[key], dtype=float) - want)))
        out.gap = max(out.gap, gap)
        if not gap <= bar:
            out.failed = out.failed or "oracle miss: %s off by %.3g > %.3g" % (key, gap, bar)


# ---------------------------------------------------------------------------
# flat-registry


def _shear(p):
    return np.array([p[0], p[1] + p[0] ** 2])


def _shear_inv(p):
    return np.array([p[0], p[1] - p[0] ** 2])


def flat_tangent_oracle(name, x, u, v) -> dict:
    """Closed-form tangent sum and difference of a registry structure.

    Affine dilatations (Euclidean, Riemannian variant 1, snowflake, complex)
    give u + v - x and x + v - u; the conjugated shear gives the same
    expressions in the coordinates of phi(x1, x2) = (x1, x2 + x1^2).
    """
    if name == "riemannian-shear-conjugate":
        fx, fu, fv = _shear(x), _shear(u), _shear(v)
        return {"sum": _shear_inv(fu + fv - fx), "difference": _shear_inv(fx + fv - fu)}
    return {"sum": u + v - x, "difference": x + v - u}


class FlatRegistry:
    """verify (all seven checks) then tangent on each closed-form registry
    structure. dil and distance cost microseconds here, so the time is
    per-call Python overhead in axioms, limits, geometry and gromov."""

    name = "flat-registry"
    trace_rounds = 10
    # jobs are short enough that one untimed round can warm lazy imports and
    # caches; the other workloads' jobs run for seconds, so a warm-up round
    # would cost more than the first-call effects it removes
    warmup_rounds = 1

    def build(self):
        self.names = [n for n in structure_names() if n != "heisenberg"]
        return [build_structure(n) for n in self.names]

    def draw_round(self, rng):
        return [(n, rng.uniform(-0.5, 0.5, 3 if n == "euclidean3" else 2))
                for n in self.names]

    def run_job(self, job) -> Outcome:
        name, p = job
        out = Outcome()
        doc, out.failed = _cli_job(["verify", "--structure", name, "--checks",
                                    FLAT_CHECKS, _point_arg(p)])
        if doc is None:
            return out
        _count_checks(doc, out)
        doc, out.failed = _cli_job(["tangent", "--structure", name, _point_arg(p)])
        if doc is None:
            return out
        x, u, v = (np.asarray(doc[k], dtype=float) for k in ("point", "probe_u", "probe_v"))
        _oracle_gaps(doc, flat_tangent_oracle(name, x, u, v), out)
        return out


# ---------------------------------------------------------------------------
# heisenberg-tangent


def group_law(a, b):
    """Heisenberg product with the area cocycle (X3 = [X1, X2])."""
    return np.array([a[0] + b[0], a[1] + b[1],
                     a[2] + b[2] + 0.5 * (a[0] * b[1] - a[1] * b[0])])


def heis_tangent_oracle(x, u, v) -> dict:
    """Tangent operations at x of the Heisenberg group: left translates of the
    group operations at the identity."""
    ix = -x
    ux, vx = group_law(ix, u), group_law(ix, v)
    return {"sum": group_law(x, group_law(ux, vx)),
            "difference": group_law(x, group_law(-ux, vx)),
            "inverse_u": group_law(x, -ux)}


class HeisenbergTangent:
    """tangent then verify on the Heisenberg structure at a seeded point.
    sr_dilatation's dil re-solves the Newton chart inverse for every scale,
    so flow_exp takes the time; the CC solver never runs."""

    name = "heisenberg-tangent"
    trace_rounds = 1
    warmup_rounds = 0

    def build(self):
        return build_structure("heisenberg")

    def draw_round(self, rng):
        return [rng.uniform(-0.2, 0.2, 3)]

    def run_job(self, p) -> Outcome:
        out = Outcome()
        sched = ["--eps-start", "0.125"]
        doc, out.failed = _cli_job(["tangent", "--structure", "heisenberg"] + sched
                                   + ["--eps-count", "8", _point_arg(p)])
        if doc is None:
            return out
        x, u, v = (np.asarray(doc[k], dtype=float) for k in ("point", "probe_u", "probe_v"))
        _oracle_gaps(doc, heis_tangent_oracle(x, u, v), out)
        doc, failed = _cli_job(["verify", "--structure", "heisenberg", "--checks",
                                HEIS_CHECKS] + sched + [_point_arg(p)])
        out.failed = out.failed or failed
        if doc is not None:
            _count_checks(doc, out)
        return out


# ---------------------------------------------------------------------------
# cc-solve


class CCSolve:
    """cc_distance with LIGHT_CC on the manifest-built Heisenberg frame. The
    L-BFGS loop, with per-point polynomial field and Jacobian evaluation,
    takes the whole time; flow_exp, chart_inverse and axioms never run."""

    name = "cc-solve"
    trace_rounds = 1
    warmup_rounds = 0

    def build(self):
        self.frame = vectorfields.frame_from_manifest(HEIS_MANIFEST)
        return self.frame

    def draw_round(self, rng):
        """A horizontal, a vertical and a mixed displacement, each applied by
        the group law to a seeded base point. Magnitudes and directions are
        seeded inside fixed ranges, so every round asks the solver for the
        same kinds of geodesic."""
        jobs = []
        for kind in ("horizontal", "vertical", "mixed"):
            x = rng.uniform(-0.2, 0.2, 3)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            if kind == "horizontal":
                r, t = rng.uniform(0.2, 0.4), 0.0
            elif kind == "vertical":
                r, t = 0.0, rng.uniform(0.01, 0.04)
            else:
                r, t = 0.3, 0.025
            w = np.array([r * math.cos(theta), r * math.sin(theta), t])
            jobs.append((kind, x, group_law(x, w)))
        return jobs

    def run_job(self, job) -> Outcome:
        _, x, y = job
        out = Outcome()
        try:
            d = carnot.cc_distance(self.frame, x, y, config=LIGHT_CC)
        except DilatlabError as e:
            out.failed = "%s: %s" % (type(e).__name__, e)
            return out
        ref = heisenberg_cc(x, y)
        rel = (d - ref) / ref
        out.gap = abs(rel)
        if not -CC_BAND <= rel <= CC_BAND:
            out.failed = "oracle miss: cc_distance %.6g vs exact %.6g" % (d, ref)
        return out


WORKLOADS = {w.name: w for w in (FlatRegistry(), HeisenbergTangent(), CCSolve())}
