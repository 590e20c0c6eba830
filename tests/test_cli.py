"""Command-line interface: exit codes, output formats, manifest handling."""

import json

import numpy as np
import pytest

from dilatlab.cli import main


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


def test_list_text(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "euclidean2" in out
    assert "heisenberg" in out


def test_list_json(capsys):
    assert main(["list", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "euclidean2" in doc["structures"]


def test_verify_euclidean_json(capsys):
    rc = main(["verify", "--structure", "euclidean2", "--checks", "a0a1,a2",
               "--samples", "3", "--eps-count", "6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    names = {c["check"] for c in doc["checks"]}
    assert names == {"a0a1", "a2"}
    assert all(c["passed"] for c in doc["checks"])


def test_verify_writes_file(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--structure", "euclidean2", "--checks", "a2",
               "--samples", "2", "--eps-count", "5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["check"] == "a2"


def test_verify_csv_format(capsys):
    rc = main(["verify", "--structure", "euclidean2", "--checks", "a2",
               "--samples", "2", "--eps-count", "5", "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "# check=a2" in out
    assert "eps,value,diff,extrapolated,error" in out


def test_verify_tolerance_flag_can_force_failure(capsys):
    # an absurdly tight tolerance on a float computation must flip the verdict
    rc = main(["verify", "--structure", "riemannian-shear", "--checks", "a3",
               "--samples", "2", "--eps-count", "8", "--tol.a3", "1e-300"])
    assert rc in (1, 2)


def test_profile_takes_no_tolerance_flag(capsys):
    # the profile check has no tolerance to set, so the flag is unknown
    assert main(["verify", "--structure", "euclidean2", "--tol.profile", "1"]) == 64
    assert "--tol.profile" in capsys.readouterr().err


def test_verify_manifest(tmp_path, capsys):
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(HEIS_MANIFEST))
    rc = main(["verify", "--manifest", str(path), "--checks", "a2",
               "--samples", "2", "--eps-count", "5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"][0]["passed"]


def test_tangent_heisenberg(capsys):
    rc = main(["tangent", "--structure", "heisenberg",
               "--eps-start", "0.125", "--eps-count", "8"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"]
    assert doc["consistency"] < 1e-5
    # the reference block compares against the group-law operations
    gaps = doc["oracle"]
    assert max(gaps["sum_gap"], gaps["difference_gap"],
               gaps["inverse_gap"]) < 1e-4


def test_profile_csv(capsys):
    rc = main(["profile", "--structure", "euclidean2", "--eps-count", "5",
               "--samples", "4", "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("eps,gh_gap")


def test_usage_errors_exit_64(capsys):
    assert main(["verify"]) == 64  # neither structure nor manifest
    assert main(["verify", "--structure", "euclidean2",
                 "--manifest", "x.json"]) == 64  # both
    assert main(["verify", "--structure", "nonesuch"]) == 64
    assert main(["verify", "--structure", "euclidean2",
                 "--checks", "bogus"]) == 64
    assert main(["verify", "--structure", "euclidean2",
                 "--point", "1,oops"]) == 64
    assert main(["verify", "--manifest", "/does/not/exist.json"]) == 64
    assert main(["profile", "--structure", "euclidean2",
                 "--eps-start", "2.0"]) == 64  # schedule must start below 1
    # limits need three scales; tangent-cone needs one ball sample, profile two
    assert main(["verify", "--structure", "euclidean2", "--checks", "a3",
                 "--eps-count", "2"]) == 64
    assert main(["tangent", "--structure", "euclidean2", "--eps-count", "2"]) == 64
    assert main(["verify", "--structure", "euclidean2", "--samples", "0",
                 "--checks", "tangent-cone"]) == 64
    assert main(["verify", "--structure", "euclidean2", "--samples", "1",
                 "--checks", "profile"]) == 64


def test_bad_manifest_exits_64(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "--manifest", str(path)]) == 64
    err = capsys.readouterr().err
    assert "manifest" in err


def test_point_flag_is_used(capsys):
    rc = main(["verify", "--structure", "euclidean3", "--checks", "a2",
               "--point", "0.1,-0.2,0.3", "--samples", "2",
               "--eps-count", "5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["point"] == [0.1, -0.2, 0.3]


def test_point_rejects_non_finite(capsys):
    for bad in ("nan,0", "inf,0", "0,-inf"):
        assert main(["tangent", "--structure", "euclidean2", "--point", bad]) == 64
        assert "finite" in capsys.readouterr().err


def test_point_accepts_leading_minus(capsys):
    for argv in (["--point", "-0.1,0.2"], ["--point=-0.1,0.2"]):
        rc = main(["verify", "--structure", "euclidean2", "--checks", "a2",
                   "--samples", "2", "--eps-count", "5"] + argv)
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["point"] == [-0.1, 0.2]
