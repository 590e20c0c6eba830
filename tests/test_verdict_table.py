"""The registry verdict table: the baseline every verdict change reports against.

One row per (structure, point, check): the ten flat registry structures at
16 points each and Heisenberg at 4, drawn from RandomState(1) uniform in
[-0.5, 0.5]^n, and every verify check at the CLI defaults. A row holds the verdict word the CLI
prints, max_residual and tolerance; a row that does not pass names its cause,
one of CAUSE_ITEMS. The test recomputes the table: verdicts must match
exactly, residuals and tolerances to 1e-12 relative.

A change that moves a verdict rewrites the table and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_verdict_table.py
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from dilatlab.cli import CHECK_NAMES, main
from dilatlab.structures import build_structure, structure_names

TABLE = Path(__file__).resolve().parent / "verdicts" / "registry.json"
POINTS = 16
# Heisenberg's dil runs the Newton chart inverse: fewer points keep the table fast
HEISENBERG_POINTS = 4

# cause tag -> the ROADMAP item that owns it
CAUSE_ITEMS = {
    "order": 1,          # an error shape richardson_limit does not model
    "float-floor": 2,    # the a0a1 round trip at its rounding floor
    "operand-bar": 14,   # a residual judged against another limit's error bar
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


def verdict_rows():
    """The table's rows, recomputed through cli.main."""
    rows = []
    for name, count in _cases():
        dim = build_structure(name).space.dim
        for p in np.random.RandomState(1).uniform(-0.5, 0.5, (count, dim)):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                main(["verify", "--structure", name, "--checks", ",".join(CHECK_NAMES),
                      "--point=" + ",".join(repr(float(v)) for v in p)])
            reports = json.loads(out.getvalue())["checks"]
            words = [line.split()[1] for line in err.getvalue().splitlines()]
            for check, rep, word in zip(CHECK_NAMES, reports, words, strict=True):
                row = {"structure": name, "point": p.tolist(), "check": check,
                       "verdict": word, "max_residual": rep["max_residual"],
                       "tolerance": rep["tolerance"]}
                if word != "pass":
                    row["cause"] = CAUSES.get((name, check))
                rows.append(row)
    return rows


def _close(a, b):
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_registry_verdicts_match_the_table():
    want = json.loads(TABLE.read_text())
    got = verdict_rows()
    assert len(got) == len(want) == sum(n for _, n in _cases()) * len(CHECK_NAMES)
    for g, w in zip(got, want):
        at = (w["structure"], w["point"], w["check"])
        assert (g["structure"], g["point"], g["check"]) == at
        assert g["verdict"] == w["verdict"], at
        assert _close(g["max_residual"], w["max_residual"]), at
        assert _close(g["tolerance"], w["tolerance"]), at
        # every non-pass row explains itself; a pass row needs no cause
        assert (w["verdict"] == "pass") == ("cause" not in w), at
        assert w["verdict"] == "pass" or w["cause"] in CAUSE_ITEMS, at


def write_table():
    TABLE.parent.mkdir(exist_ok=True)
    rows = [json.dumps(row, sort_keys=True) for row in verdict_rows()]
    TABLE.write_text("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    write_table()
