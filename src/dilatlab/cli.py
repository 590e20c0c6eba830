"""Command-line runner for dilatation-structure checks.

Subcommands:
  verify   run selected axiom checks on a structure and report pass/fail
  tangent  extrapolate the tangent operations at a point
  profile  rescaled-snapshot curve of a structure's metric at a point
  list     names accepted by --structure

Structures come from the built-in registry (--structure NAME) or from a JSON
frame manifest (--manifest FILE, metric by cc_distance). Exit codes: 0 all
checks passed, 1 a check failed, 2 at least one limit did not converge and
nothing failed outright, 64 bad invocation or malformed manifest.
"""

import argparse
import functools
import json
import os
import sys
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from . import axioms, gromov
from .axioms import CheckReport, report_to_json
from .errors import DilatlabError
from .structures import build_structure, structure_names
from .util import halton, halving_schedule


class _Check(NamedTuple):
    run: Callable  # (the run's shared inputs, tolerance) -> CheckReport
    tol: Optional[float] = None  # the default of the check's --tol.<name> flag
    fewest_samples: int = 0


# the verify checks in report order. Each runner looks its axioms function up
# when it runs, so a wrapper installed on the module is the one called.
# tangent-cone needs one ball point, profile the base point plus two; their
# verdicts are the convergence of their own gaps, so they take no tolerance.
CHECKS = {
    "a0a1": _Check(lambda r, tol: axioms.check_A0_A1(r.ds, r.pairs, r.eps, tol=tol), 1e-9),
    "a2": _Check(lambda r, tol: axioms.check_A2(
        r.ds, r.pairs, [(0.5, 0.5), (0.5, 0.25), (0.8, 0.4), (0.25, 0.25)], tol=tol), 1e-9),
    "a3": _Check(lambda r, tol: axioms.check_A3(r.ds, r.x, r.pts, r.eps, tol), 1e-5),
    "a4": _Check(lambda r, tol: axioms.check_A4(r.td(), tol), 1e-5),
    "cone": _Check(lambda r, tol: axioms.check_conical_group(
        r.td(), r.ds, r.pts, mus=(0.5, 0.25), tol_floor=tol), 1e-9),
    "tangent-cone": _Check(lambda r, tol: axioms.check_tangent_cone(
        r.ds, r.x, r.eps, count=min(r.samples, 5), seed=r.seed), fewest_samples=1),
    "profile": _Check(lambda r, tol: axioms.check_profile_theorem(
        r.ds, r.x, r.eps, count=min(r.samples + 1, 6), seed=r.seed), fewest_samples=2),
}
CHECK_NAMES = tuple(CHECKS)
# the largest --seed: the CLI's documented seed range is 0 to MAX_SEED, and
# the seed is the Halton index its streams start from
MAX_SEED = 1000000
# the largest --samples: the documented range is 0 to MAX_SAMPLES. a3 holds
# the (eps-count, P, P) stack of rescaled distances between P points and
# extrapolates P (P - 1) / 2 limits: at the default schedule and P = 256 the
# stack takes 4 MB, and an a3 run about 1 s and 70 MB on a 2-vCPU VM
MAX_SAMPLES = 256
# the largest a3 stack, P**2 * eps-count entries with P = max(--samples, 3):
# 256 samples at up to 16 scales. Each scale adds 0.5 MB to the stack at
# P = 256, and n times that to the coordinate differences behind it (an a3
# run on euclidean3 at P = 256 peaked at 74 MB with 8 scales and 80 MB with
# 16), so an unbounded --eps-count would reach gigabytes
MAX_A3_STACK = MAX_SAMPLES ** 2 * 16


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
        for name, check in CHECKS.items():
            if check.tol is not None:
                p.add_argument("--tol.%s" % name, dest="tol_%s" % name,
                               type=float, default=check.tol, metavar="T")


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
    box = np.asarray(ds.space.chart_box)
    u = halton(x.size, 1 + seed, count)
    return list(np.clip(x + 0.5 * ds.probe_radius * (2.0 * u - 1.0),
                        box[:, 0] + 1e-9, box[:, 1] - 1e-9))


def _setup(args):
    """Validate the invocation and build its structure: schedule, checks,
    structure, point, then the needs of the limits, the range of --samples
    and the needs of the checks, then the seed, the tolerances and the
    point's place in the chart, then the --out path (opened for append, so an
    unwritable one stops the run before any sampling, and removed again if
    the probe made it), in that order.
    Returns (structure, label, base point, schedule)."""
    if args.eps_count < 2 or not (0.0 < args.eps_start <= 1.0):
        _die("eps schedule: need 0 < eps-start <= 1 and eps-count >= 2")
    # tested before the schedule is built, so a huge count allocates nothing;
    # the checks dilate by 1/eps, which must stay finite at the last scale
    last = args.eps_start * 0.5 ** (args.eps_count - 1)
    if not last > 0.0:
        _die("eps schedule: eps-start * 0.5**(eps-count - 1) underflows to 0")
    if not 1.0 / last < np.inf:
        _die("eps schedule: 1 / (eps-start * 0.5**(eps-count - 1)) overflows")
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
    # tested before any sampling, so a huge count allocates nothing
    if not 0 <= args.samples <= MAX_SAMPLES:
        _die("samples: need 0 <= --samples <= %d, got %d" % (MAX_SAMPLES, args.samples))
    if "a3" in getattr(args, "checks", []) \
            and max(args.samples, 3) ** 2 * args.eps_count > MAX_A3_STACK:
        _die("samples: a3 needs max(--samples, 3)**2 * --eps-count <= %d, got %d**2 * %d"
             % (MAX_A3_STACK, max(args.samples, 3), args.eps_count))
    for c in getattr(args, "checks", []):
        if args.samples < CHECKS[c].fewest_samples:
            _die("samples: check %r needs --samples >= %d" % (c, CHECKS[c].fewest_samples))
    # a profile snapshot holds max(--samples, 3) points, and the exact GH
    # search takes at most gromov.SIZE_LIMIT
    if args.command == "profile" and args.samples > gromov.SIZE_LIMIT:
        _die("samples: profile needs --samples <= %d, got %d"
             % (gromov.SIZE_LIMIT, args.samples))
    if not 0 <= args.seed <= MAX_SEED:
        _die("seed: need 0 <= --seed <= %d, got %d" % (MAX_SEED, args.seed))
    # a NaN tolerance compares false with every residual, so no check could fail
    for name in CHECKS:
        tol = getattr(args, "tol_%s" % name, 0.0)  # verify's tolerance flags only
        if not 0.0 <= tol < np.inf:
            _die("tol.%s: need a finite tolerance >= 0, got %r" % (name, tol))
    if not ds.space.contains(x):
        _die("point: %r lies outside the chart of %s" % (args.point, label))
    if args.out:
        existed = os.path.exists(args.out)
        try:
            open(args.out, "a").close()
        except OSError as e:
            _die("out: %s" % e)
        if not existed:
            os.remove(args.out)
    return ds, label, x, halving_schedule(args.eps_start, args.eps_count)


def _run_checks(ds, args, x, eps) -> List[CheckReport]:
    pts = _probe_points(ds, x, max(args.samples, 3), args.seed)
    # what the runners read; a4 and cone share the tangent data, derived on first use
    shared = argparse.Namespace(ds=ds, x=x, eps=eps, pts=pts, pairs=[(x, p) for p in pts],
                                samples=args.samples, seed=args.seed,
                                td=functools.cache(lambda: axioms.derive_sigma_inv(ds, x, eps)))
    return [CHECKS[name].run(shared, getattr(args, "tol_%s" % name, None))
            for name in args.checks]


def _exit_code(reports) -> int:
    verdicts = {r.verdict for r in reports}
    return 1 if "FAIL" in verdicts else 2 if "inconclusive" in verdicts else 0


def _emit(text: str, out: Optional[str]):
    if out:
        try:
            with open(out, "w") as f:
                f.write(text)
        except OSError as e:
            _die("out: %s" % e)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _reports_csv(reports) -> str:
    parts = []
    for r in reports:
        parts.append("# check=%s verdict=%s passed=%s max_residual=%.6g tolerance=%.6g"
                     % (r.check, r.verdict, r.passed, r.max_residual, r.tolerance))
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
        sys.stderr.write("%-16s %s\n" % (r.check, r.verdict))
    return _exit_code(reports)


def _cmd_tangent(args) -> int:
    ds, label, x, eps = _setup(args)
    pts = _probe_points(ds, x, max(args.samples, 2), args.seed)
    u, v = pts[0], pts[1]

    td = axioms.derive_sigma_inv(ds, x, eps)
    # the sum, then one batch for the difference, the inverse and the
    # cancellation diff(u, add(u, v)) that should give back v
    (s_est,) = td.limits("sigma", [u], [v])
    s = np.array(s_est.extrapolated, dtype=float)
    d_est, i_est, back = td.limits("delta", [u, u, u], [v, td.center, s])
    d, iu = (np.array(est.extrapolated, dtype=float) for est in (d_est, i_est))
    printed = [s_est, d_est, i_est]
    # the error bar covers the printed operations, not only the probe pairs
    # derive_sigma_inv checked
    limit_error = max([td.limit_error] + [float(est.error) for est in printed])
    converged = bool(td.converged and all(est.converged for est in printed))
    dx_rows = td.limit("dx", u, v).table_rows()
    doc = {
        "schema": 1,
        "structure": label,
        "point": [float(t) for t in x],
        "probe_u": [float(t) for t in u],
        "probe_v": [float(t) for t in v],
        "sum": [float(t) for t in s],
        "difference": [float(t) for t in d],
        "inverse_u": [float(t) for t in iu],
        "consistency": float(np.max(np.abs(back.extrapolated - v))),
        "limit_error": limit_error,
        "converged": converged,
        "dx_table": dx_rows,
    }
    # the registry's Heisenberg group, not a manifest that takes its name
    if args.structure == "heisenberg":
        from .heisenberg_group import heisenberg_group_law as law, heisenberg_inverse as inv
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
        rep = CheckReport(check="tangent", passed=converged, max_residual=limit_error,
                          tolerance=0.0, table=dx_rows)
        _emit(rep.to_csv(), args.out)
    return 0 if converged else 2


def _cmd_profile(args) -> int:
    ds, label, x, eps = _setup(args)
    curve = gromov.metric_profile(ds.space, x, eps, count=max(args.samples, 3),
                                  seed=args.seed)
    report = axioms.check_profile_continuity(curve)
    if args.format == "csv":
        lines = ["eps,gh_gap"] + ["%.12g,%.12g" % (row["eps"], row["value"])
                                  for row in report.table]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {"schema": 1, "structure": label,
               "point": [float(t) for t in x],
               "profile": curve.to_jsonable(),
               "gaps": [row["value"] for row in report.table],
               "residual": report.max_residual,
               "converged": report.converged}
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    return _exit_code([report])


def _cmd_list(args) -> int:
    names = structure_names()
    if args.format == "json":
        _emit(json.dumps({"schema": 1, "structures": names}, sort_keys=True,
                         indent=2), args.out)
    else:
        _emit("\n".join(names), args.out)
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The command line's parser, built on the first call and reused: a
    parse leaves it as it was, and an in-process caller may run main many
    times."""
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
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_point(sys.argv[1:] if argv is None else list(argv)))
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
