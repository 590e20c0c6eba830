"""Command-line runner for dilatation-structure checks.

Subcommands:
  verify   run selected axiom checks on a structure and report pass/fail
  tangent  extrapolate the tangent operations at a point
  profile  rescaled-snapshot curve of a structure's metric at a point
  list     names accepted by --structure

Structures come from the built-in registry (--structure NAME) or from a JSON
frame manifest (--manifest FILE, variational metric). Exit codes: 0 all
checks passed, 1 a check failed, 2 at least one limit did not converge and
nothing failed outright, 64 bad invocation or malformed manifest.
"""

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from . import axioms, gromov
from .axioms import CheckReport, report_to_json
from .errors import DilatlabError
from .structures import build_structure, structure_names
from .util import halving_schedule

CHECK_NAMES = ("a0a1", "a2", "a3", "a4", "cone", "tangent-cone", "profile")
# checks that take a tolerance; each key gets a --tol.<name> flag
DEFAULT_TOLS = {"a0a1": 1e-9, "a2": 1e-9, "a3": 1e-5, "a4": 1e-5,
                "cone": 1e-9, "tangent-cone": 1e-3}
# the fewest --samples a check runs with: tangent-cone needs one ball point,
# profile needs the base point plus two
MIN_SAMPLES = {"tangent-cone": 1, "profile": 2}


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 64 on bad usage."""

    def error(self, message):
        self.exit(64, "%s: error: %s\n" % (self.prog, message))


def _die(msg: str):
    sys.stderr.write("dilatlab: error: %s\n" % msg)
    raise SystemExit(64)


def _add_common(p, with_checks=False):
    p.add_argument("--structure", help="registry name (see the list subcommand)")
    p.add_argument("--manifest", help="path to a JSON frame manifest")
    p.add_argument("--point", help="base point, comma-separated floats (default origin)")
    p.add_argument("--eps-start", type=float, default=0.5)
    p.add_argument("--eps-count", type=int, default=8)
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if with_checks:
        p.add_argument("--checks", default="a0a1,a2,a3",
                       help="comma list from: %s" % ",".join(CHECK_NAMES))
        for name, tol in DEFAULT_TOLS.items():
            p.add_argument("--tol.%s" % name, dest="tol_%s" % name.replace("-", "_"),
                           type=float, default=tol, metavar="T")


def _build(args):
    if bool(args.structure) == bool(args.manifest):
        _die("exactly one of --structure or --manifest is required")
    if args.structure:
        try:
            return build_structure(args.structure), args.structure
        except KeyError as e:
            _die(str(e.args[0]))
    try:
        with open(args.manifest) as f:
            doc = json.load(f)
    except OSError as e:
        _die("manifest: %s" % e)
    except json.JSONDecodeError as e:
        _die("manifest: not valid JSON (%s)" % e)
    from .carnot import structure_from_manifest
    try:
        ds = structure_from_manifest(doc)
    except (ValueError, KeyError, TypeError) as e:
        msg = str(e)
        _die(msg if msg.startswith("manifest") else "manifest: %s" % msg)
    return ds, doc.get("name", "manifest")


def _parse_point(text: Optional[str], dim: int) -> np.ndarray:
    if text is None:
        return np.zeros(dim)
    try:
        vals = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError:
        _die("point: expected comma-separated floats, got %r" % text)
    if vals.size != dim:
        _die("point: expected %d coordinates, got %d" % (dim, vals.size))
    if not np.all(np.isfinite(vals)):
        _die("point: coordinates must be finite, got %r" % text)
    return vals


def _join_point(argv: List[str]) -> List[str]:
    """Rewrite '--point V' as '--point=V': argparse reads a separate value
    such as '-0.1,0.2' as an unknown option."""
    out = []
    k = 0
    while k < len(argv):
        if argv[k] == "--point" and k + 1 < len(argv):
            out.append("--point=" + argv[k + 1])
            k += 2
        else:
            out.append(argv[k])
            k += 1
    return out


def _probe_points(ds, x, count, seed):
    """Deterministic low-discrepancy cloud in the chart cube around x."""
    from scipy.stats import qmc

    n = x.size
    r = 0.5 * ds.probe_radius
    lo = np.asarray(ds.space.chart_box)[:, 0]
    hi = np.asarray(ds.space.chart_box)[:, 1]
    eng = qmc.Halton(d=n, scramble=False)
    eng.fast_forward(1 + seed)
    u = eng.random(count)
    pts = []
    for row in u:
        p = x + r * (2.0 * row - 1.0)
        pts.append(np.clip(p, lo + 1e-9, hi - 1e-9))
    return pts


def _estimate_report(name, est, tol) -> CheckReport:
    passed = bool(est.converged and est.error <= tol)
    return CheckReport(check=name, passed=passed, max_residual=float(est.error),
                       tolerance=tol, converged=bool(est.converged),
                       table=est.table_rows(), notes=est.note)


def _setup(args):
    """Validate the invocation and build its structure: schedule, checks,
    structure, point, then the needs of the limits and of the checks, in
    that order. Returns (structure, label, base point, schedule)."""
    if args.eps_count < 2 or not (0.0 < args.eps_start <= 1.0):
        _die("eps schedule: need 0 < eps-start <= 1 and eps-count >= 2")
    if args.command == "verify":
        args.checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not args.checks:
            _die("checks: empty list")
        for c in args.checks:
            if c not in CHECK_NAMES:
                _die("unknown check %r (choose from %s)" % (c, ", ".join(CHECK_NAMES)))
    ds, label = _build(args)
    x = _parse_point(args.point, ds.space.dim)
    # verify and tangent extrapolate limits, which take three scales;
    # profile compares snapshots and works with two
    if args.command != "profile" and args.eps_count < 3:
        _die("eps schedule: %s needs eps-count >= 3" % args.command)
    for c in getattr(args, "checks", []):
        if c in MIN_SAMPLES and args.samples < MIN_SAMPLES[c]:
            _die("samples: check %r needs --samples >= %d" % (c, MIN_SAMPLES[c]))
    return ds, label, x, halving_schedule(args.eps_start, args.eps_count)


def _run_checks(ds, args, x, eps) -> List[CheckReport]:
    pts = _probe_points(ds, x, max(args.samples, 3), args.seed)
    reports = []
    td = None

    def tangent_data():
        nonlocal td
        if td is None:
            td = axioms.derive_sigma_inv(ds, x, eps)
        return td

    for name in args.checks:
        tol = getattr(args, "tol_%s" % name.replace("-", "_"), None)  # None for profile
        if name == "a0a1":
            rep = axioms.check_A0_A1(ds, [(x, p) for p in pts], eps, tol=tol)
        elif name == "a2":
            pairs = [(0.5, 0.5), (0.5, 0.25), (0.8, 0.4), (0.25, 0.25)]
            rep = axioms.check_A2(ds, [(x, p) for p in pts], pairs, tol=tol)
        elif name == "a3":
            _, worst = axioms.estimate_dx(ds, x, pts, eps)
            rep = _estimate_report("a3", worst, tol)
        elif name == "a4":
            t = tangent_data()
            rep = CheckReport(check="a4", passed=bool(t.converged and t.limit_error <= tol),
                              max_residual=float(t.limit_error), tolerance=tol,
                              converged=bool(t.converged),
                              notes="sum/difference limits with consistency probes")
        elif name == "cone":
            t = tangent_data()
            if not t.converged:
                rep = CheckReport(check="conical-group", passed=False,
                                  max_residual=float(t.limit_error), tolerance=tol,
                                  converged=False, notes="tangent limits unconverged")
            else:
                rep = axioms.check_conical_group(t, ds, pts, mus=(0.5, 0.25),
                                                 tol_floor=tol)
        elif name == "tangent-cone":
            est = axioms.check_tangent_cone(ds, x, eps, count=min(args.samples, 5),
                                            seed=args.seed)
            rep = _estimate_report("tangent-cone", est, max(tol, float(est.error)))
            rep.passed = bool(est.converged)
        else:  # "profile"; _setup rejected every other name
            rep = axioms.check_profile_theorem(ds, x, eps, eps,
                                               count=min(args.samples + 1, 6),
                                               seed=args.seed)
        reports.append(rep)
    return reports


def _exit_code(reports) -> int:
    definite = any((not r.passed) and r.converged is not False for r in reports)
    shaky = any(r.converged is False for r in reports)
    if definite:
        return 1
    if shaky:
        return 2
    return 0


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _reports_csv(reports) -> str:
    parts = []
    for r in reports:
        parts.append("# check=%s passed=%s max_residual=%.6g tolerance=%.6g"
                     % (r.check, r.passed, r.max_residual, r.tolerance))
        parts.append(r.to_csv().rstrip("\n"))
    return "\n".join(parts) + "\n"


def _cmd_verify(args) -> int:
    ds, label, x, eps = _setup(args)
    reports = _run_checks(ds, args, x, eps)
    meta = {"structure": label, "point": [float(v) for v in x],
            "eps_start": args.eps_start, "eps_count": args.eps_count,
            "samples": args.samples, "seed": args.seed}
    if args.format == "json":
        _emit(report_to_json(reports, {"meta": meta}), args.out)
    else:
        _emit(_reports_csv(reports), args.out)
    for r in reports:
        sys.stderr.write("%-16s %s\n" % (r.check, "pass" if r.passed else
                                         ("FAIL" if r.converged is not False else "inconclusive")))
    return _exit_code(reports)


def _cmd_tangent(args) -> int:
    ds, label, x, eps = _setup(args)
    pts = _probe_points(ds, x, max(args.samples, 2), args.seed)
    u, v = pts[0], pts[1]

    td = axioms.derive_sigma_inv(ds, x, eps)
    _, worst = axioms.estimate_dx(ds, x, [u, v], eps)
    s = td.sigma_op(u, v)
    d = td.delta_op(u, v)
    iu = td.inv_op(u)
    doc = {
        "schema": 1,
        "structure": label,
        "point": [float(t) for t in x],
        "probe_u": [float(t) for t in u],
        "probe_v": [float(t) for t in v],
        "sum": [float(t) for t in s],
        "difference": [float(t) for t in d],
        "inverse_u": [float(t) for t in iu],
        "consistency": float(td.consistency_residual(u, v)),
        "limit_error": float(td.limit_error),
        "converged": bool(td.converged),
        "dx_table": worst.table_rows(),
    }
    if label == "heisenberg":
        from .carnot import heisenberg_group_law as law, heisenberg_inverse as inv
        s_o = law(law(x, law(inv(x), u)), law(inv(x), v))
        d_o = law(x, law(inv(law(inv(x), u)), law(inv(x), v)))
        i_o = law(x, inv(law(inv(x), u)))
        doc["oracle"] = {
            "sum_gap": float(np.max(np.abs(s - s_o))),
            "difference_gap": float(np.max(np.abs(d - d_o))),
            "inverse_gap": float(np.max(np.abs(iu - i_o))),
        }
    if args.format == "json":
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    else:
        rep = CheckReport(check="tangent", passed=td.converged,
                          max_residual=float(td.limit_error), tolerance=0.0,
                          table=worst.table_rows())
        _emit(rep.to_csv(), args.out)
    return 0 if td.converged else 2


def _cmd_profile(args) -> int:
    ds, label, x, eps = _setup(args)
    curve = gromov.metric_profile(ds.space, x, eps, count=max(args.samples, 3),
                                  seed=args.seed)
    verdict = gromov.profile_continuity_at_zero(curve, tol=3.0 * curve.density)
    if args.format == "csv":
        lines = ["eps,gh_gap"]
        for k, g in enumerate(verdict.gaps):
            lines.append("%.12g,%.12g" % (float(eps[k]), float(g)))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {"schema": 1, "structure": label,
               "point": [float(t) for t in x],
               "profile": curve.to_jsonable(),
               "gaps": [float(g) for g in verdict.gaps],
               "residual": float(verdict.residual),
               "converged": bool(verdict.converged)}
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    return 0 if verdict.converged else 2


def _cmd_list(args) -> int:
    names = structure_names()
    if args.format == "json":
        _emit(json.dumps({"schema": 1, "structures": names}, sort_keys=True,
                         indent=2), args.out)
    else:
        _emit("\n".join(names), args.out)
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="dilatlab",
                     description="axiom checks for dilatation structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run axiom checks")
    _add_common(p_verify, with_checks=True)

    p_tan = sub.add_parser("tangent", help="tangent operations at a point")
    _add_common(p_tan)

    p_prof = sub.add_parser("profile", help="rescaled snapshot curve")
    _add_common(p_prof)

    p_list = sub.add_parser("list", help="known structure names")
    p_list.add_argument("--format", choices=("json", "text"), default="text")
    p_list.add_argument("--out")

    try:
        args = parser.parse_args(_join_point(sys.argv[1:] if argv is None else list(argv)))
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "tangent":
            return _cmd_tangent(args)
        if args.command == "profile":
            return _cmd_profile(args)
        return _cmd_list(args)
    except SystemExit as e:
        # argparse and usage helpers signal through SystemExit; keep main()
        # returning an int so it stays callable in-process
        return int(e.code) if e.code else 0
    except DilatlabError as e:
        sys.stderr.write("dilatlab: %s: %s\n" % (type(e).__name__, e))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
