"""The registry verdict table: the baseline every verdict change reports against.

One row per (structure, point, check): the ten flat registry structures at
16 points each and Heisenberg at 4, drawn from RandomState(1) uniform in
[-0.5, 0.5]^n, and every verify check at the CLI defaults. A row holds the verdict word the CLI
prints, max_residual and tolerance; a row that does not pass names its cause,
one of CAUSE_ITEMS. The test recomputes the table: verdicts must match
exactly, residuals and tolerances to 1e-12 relative.

A change that moves a verdict rewrites the table and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_verdict_table.py

The manifest table holds one row per (manifest, point, check): the three
committed manifests at two points each, every check in its own verify with
the short schedule, since a typed error stops a whole verify. A run that
exits 2 on a DilatlabError gives the verdict "error:<TypeName>" and no
residual. It takes about 12 s, kept out of tier-1's budget, so CI
recomputes and diffs it in its own step, by the same rules, and pytest does
not run it:

    PYTHONPATH=src python tests/test_verdict_table.py --manifests --check
    PYTHONPATH=src python tests/test_verdict_table.py --manifests   # rewrite
"""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from dilatlab.cli import CHECK_NAMES, main
from dilatlab.structures import build_structure, structure_names

TABLE = Path(__file__).resolve().parent / "verdicts" / "registry.json"
MANIFEST_TABLE = TABLE.parent / "manifests.json"
MANIFEST_DIR = Path(__file__).resolve().parent / "manifests"
# each manifest's first point; Martinet's frame is singular on x = 0
MANIFEST_POINTS = {"contact-curved": [0.0, 0.0, 0.0], "engel": [0.0, 0.0, 0.0, 0.0],
                   "martinet": [0.3, 0.0, 0.0]}
MANIFEST_ARGS = ["--samples", "2", "--eps-count", "6", "--eps-start", "0.25"]
POINTS = 16
# Heisenberg's dil runs the Newton chart inverse: fewer points keep the table fast
HEISENBERG_POINTS = 4

# cause tag -> the ROADMAP item that owns it
CAUSE_ITEMS = {
    "order": 1,          # an error shape richardson_limit does not model
    "float-floor": 2,    # the a0a1 round trip at its rounding floor
    "operand-bar": 14,   # a residual judged against another limit's error bar
    "solver-miss": (6, 15),  # cc_distance finds no path between the check's points
    "ball-box": 16,      # sample_ball asks cc_distance for candidates far outside the ball
    "undiagnosed": 17,
}
# (structure, check) -> the cause of its non-pass verdicts
CAUSES = {
    **{(name, check): "order"
       for name in ("complex-0.5", "complex-1.0", "snowflake-0.5", "snowflake-0.9",
                    "riemannian-shear-conjugate", "heisenberg") for check in ("a4", "cone")},
    ("riemannian-shear", "cone"): "operand-bar",
    ("riemannian-tanh", "cone"): "operand-bar",
    ("snowflake-0.3", "a0a1"): "float-floor",
    ("snowflake-0.3", "tangent-cone"): "undiagnosed",
    ("snowflake-0.3", "profile"): "undiagnosed",
}


def _cases():
    """(structure, number of points) in table order: the flat structures,
    then Heisenberg."""
    flat = [name for name in structure_names() if name != "heisenberg"]
    return [(name, POINTS) for name in flat] + [("heisenberg", HEISENBERG_POINTS)]


def _verify(argv, p):
    """cli.main verify at the point p: (its report document or None, exit
    code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["verify"] + argv + ["--point=" + ",".join(repr(float(v)) for v in p)])
    return json.loads(out.getvalue()) if out.getvalue() else None, rc, err.getvalue()


def verdict_rows():
    """The table's rows, recomputed through cli.main."""
    rows = []
    for name, count in _cases():
        dim = build_structure(name).space.dim
        for p in np.random.RandomState(1).uniform(-0.5, 0.5, (count, dim)):
            doc, _, err = _verify(["--structure", name, "--checks", ",".join(CHECK_NAMES)], p)
            reports = doc["checks"]
            words = [line.split()[1] for line in err.splitlines()]
            for check, rep, word in zip(CHECK_NAMES, reports, words, strict=True):
                row = {"structure": name, "point": p.tolist(), "check": check,
                       "verdict": word, "max_residual": rep["max_residual"],
                       "tolerance": rep["tolerance"]}
                if word != "pass":
                    row["cause"] = CAUSES.get((name, check))
                rows.append(row)
    return rows


# (check, verdict) -> the cause of that non-pass verdict on a manifest
MANIFEST_CAUSES = {
    **{(check, "error:NoFeasiblePath"): "solver-miss" for check in ("a0a1", "a3")},
    **{(check, "error:NoFeasiblePath"): "ball-box" for check in ("tangent-cone", "profile")},
    **{(check, "inconclusive"): "undiagnosed" for check in ("a3", "a4", "cone")},
}


def manifest_points(name, dim):
    """The manifest's first point, then one RandomState(1) draw in
    [-0.1, 0.1]^dim; Martinet's keeps x = 0.3, where its frame is regular."""
    p = np.random.RandomState(1).uniform(-0.1, 0.1, dim)
    if name == "martinet":
        p[0] = 0.3
    return [np.array(MANIFEST_POINTS[name]), p]


def manifest_rows():
    """The manifest table's rows, recomputed through cli.main."""
    rows = []
    for name, first in MANIFEST_POINTS.items():
        path = str(MANIFEST_DIR / (name + ".json"))
        for p in manifest_points(name, len(first)):
            for check in CHECK_NAMES:
                doc, rc, err = _verify(["--manifest", path, "--checks", check] + MANIFEST_ARGS, p)
                row = {"manifest": name, "point": p.tolist(), "check": check}
                if doc is None:
                    # "dilatlab: <TypeName>: <message>" from a typed error, exit 2
                    assert rc == 2 and err.startswith("dilatlab: "), (name, check, err)
                    row["verdict"] = "error:" + err.split(":")[1].strip()
                else:
                    (rep,) = doc["checks"]
                    row.update(verdict=err.split()[1], max_residual=rep["max_residual"],
                               tolerance=rep["tolerance"])
                if row["verdict"] != "pass":
                    row["cause"] = MANIFEST_CAUSES.get((check, row["verdict"]))
                rows.append(row)
    return rows


def _close(a, b):
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _assert_rows_match(got, want, key):
    """Row by row, in order: the same key, point and check, the same verdict,
    and max_residual and tolerance, where a row has them, to 1e-12 relative.
    Every non-pass row carries a cause from CAUSE_ITEMS; a pass row none."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        at = (w[key], w["point"], w["check"])
        assert (g[key], g["point"], g["check"]) == at
        assert g["verdict"] == w["verdict"], at
        for field in ("max_residual", "tolerance"):
            assert (field in g) == (field in w), at
            assert field not in w or _close(g[field], w[field]), at
        # every non-pass row explains itself; a pass row needs no cause
        assert (w["verdict"] == "pass") == ("cause" not in w), at
        assert w["verdict"] == "pass" or w["cause"] in CAUSE_ITEMS, at
        assert g.get("cause") == w.get("cause"), at


def test_registry_verdicts_match_the_table():
    want = json.loads(TABLE.read_text())
    got = verdict_rows()
    assert len(got) == len(want) == sum(n for _, n in _cases()) * len(CHECK_NAMES)
    _assert_rows_match(got, want, "structure")


def write_table(path, rows):
    path.parent.mkdir(exist_ok=True)
    path.write_text("[\n" + ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
                    + "\n]\n")


if __name__ == "__main__":
    cmd = argparse.ArgumentParser(description="rewrite or check a verdict table")
    cmd.add_argument("--manifests", action="store_true",
                     help="the manifest table in place of the registry table")
    cmd.add_argument("--check", action="store_true",
                     help="recompute the table and compare it with the committed one")
    args = cmd.parse_args()
    path, rows = ((MANIFEST_TABLE, manifest_rows()) if args.manifests
                  else (TABLE, verdict_rows()))
    if args.check:
        _assert_rows_match(rows, json.loads(path.read_text()),
                           "manifest" if args.manifests else "structure")
        print("%s: %d rows match" % (path.name, len(rows)))
    else:
        write_table(path, rows)
