"""Command-line interface: exit codes, output formats, manifest handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dilatlab.carnot import LIGHT_CC, cc_distance
from dilatlab.cli import MAX_A3_STACK, MAX_SAMPLES, main
from dilatlab.gromov import SIZE_LIMIT
from dilatlab.heisenberg_group import heisenberg, heisenberg_cc, vertical_cc_oracle


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
    # each header names the verdict word as well as the passed flag, which
    # reads False both for a FAIL and for an inconclusive check
    assert "# check=a2 verdict=pass passed=True " in out
    for argv, code, header in (
            (["--structure", "complex-1.0", "--checks", "a4,cone"], 2,
             ["# check=a4 verdict=inconclusive passed=False",
              "# check=conical-group verdict=inconclusive passed=False"]),
            (["--structure", "riemannian-shear", "--checks", "cone", "--point=0.1,0.2"], 1,
             ["# check=conical-group verdict=FAIL passed=False"])):
        assert main(["verify", "--format", "csv"] + argv) == code
        got = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
        assert [line[:len(want)] for line, want in zip(got, header, strict=True)] == header


def test_a3_fails_when_d_x_collapses(monkeypatch, capsys):
    # the structure of test_estimate_dx_flags_a_collapsing_metric: with
    # d = |p - q|^2 and affine dilatations the rescaled distances converge,
    # to 0, so d^x is no distance; a3 read only the limits' error bars and
    # passed with max_residual 5e-13
    from dilatlab import structures
    from dilatlab.axioms import DilatationStructure
    from dilatlab.geometry import box_handle

    space = box_handle(2, lambda p, q: np.sum((p - q) ** 2, axis=-1))
    ds = DilatationStructure(space=space,
                             dil=lambda e, x, y: x + np.asarray(e)[..., None] * (y - x))
    monkeypatch.setitem(structures._REGISTRY, "collapse", lambda: ds)
    assert main(["verify", "--structure", "collapse", "--checks", "a3"]) == 1
    out, err = capsys.readouterr()
    (check,) = json.loads(out)["checks"]
    assert check["converged"] and not check["passed"]
    # the four probe points make six pairs, all collapsed
    assert check["failures"] == [{"kind": "degenerate", "pairs": 6}]
    assert err.split() == ["a3", "FAIL"]


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


def test_tangent_error_bar_covers_the_oracle(capsys):
    # a point from the bench's heisenberg-tangent workload (seed 14) where the
    # probe pairs' error bar alone, 1.02e-7, missed the printed difference
    # by 1.08e-7
    rc = main(["tangent", "--structure", "heisenberg", "--eps-start", "0.125",
               "--eps-count", "8",
               "--point=0.07555296856996774,0.19838674919306604,0.13798547839765296"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["converged"]
    assert max(doc["oracle"].values()) <= doc["limit_error"]


def test_tangent_on_a_manifest_named_heisenberg_has_no_oracle(tmp_path, capsys):
    # a manifest's label is its name: the group-law oracle belongs to the
    # registry's Heisenberg structure, not to a contact frame of that name
    doc = json.loads((Path(__file__).parent / "manifests" / "contact-curved.json").read_text())
    path = tmp_path / "named.json"
    path.write_text(json.dumps(dict(doc, name="heisenberg")))
    main(["tangent", "--manifest", str(path), "--eps-start", "0.125", "--eps-count", "6",
          "--point=0.05,0.02,0"])
    out = json.loads(capsys.readouterr().out)
    assert out["structure"] == "heisenberg"
    assert "oracle" not in out


def test_heisenberg_a0a1_passes_off_the_origin(capsys):
    # with 32-step flows the invertibility round trip amplified the flow
    # rounding by eps^-2 past its tolerance here (exit 1); one exact step
    # leaves it inside
    rc = main(["verify", "--structure", "heisenberg", "--checks", "a0a1",
               "--eps-start", "0.125", "--point=0.05,-0.1,0.02"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["passed"]


def test_heisenberg_tangent_cone_passes_at_the_exact_flow_floor(capsys):
    # exact flows leave d^x sequences that are constant up to rounding growing
    # like eps^-2; the d^x error bars cover the noisy last value, so the flat
    # gap of 3.2e-9 lies within them
    rc = main(["verify", "--structure", "heisenberg", "--checks", "tangent-cone",
               "--eps-start", "0.125", "--samples", "3", "--point=0.05,-0.1,0.02"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["converged"]


def test_heisenberg_tangent_cone_passes_where_the_flow_floor_sat(capsys):
    # with 32-step flows the gap sat flat at 9.8e-9, above the d^x error
    # bars, and the verdict was inconclusive (exit 2)
    rc = main(["verify", "--structure", "heisenberg", "--checks", "tangent-cone",
               "--eps-start", "0.125", "--point=0.02,0.1,0"])
    assert rc == 0
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["passed"] and check["converged"]


@pytest.mark.parametrize("point, extra", [("0.05,-0.1,0.02", ["--eps-start", "0.125"]),
                                          ("0.1,0.2,-0.1", []), ("-0.12,0.03,0.08", [])])
def test_heisenberg_a2_sits_at_rounding(point, extra, capsys):
    # the exact first Newton step solves the affine one-step chart to
    # rounding; stopping at the first iterate under tol left the coefficients
    # about 1e-13 off, and a2 read 1.9e-14, 4.7e-14 and 2.9e-14 here
    rc = main(["verify", "--structure", "heisenberg", "--checks", "a2",
               "--point=" + point] + extra)
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["max_residual"] <= 1e-15


MARTINET = str(Path(__file__).parent / "manifests" / "martinet.json")
MARTINET_A2 = ["verify", "--manifest", MARTINET, "--checks", "a2", "--samples", "2",
               "--eps-count", "3", "--eps-start", "0.25"]


@pytest.mark.parametrize("point", ["0.3,0,0", "-0.2,0.1,0.4"])
def test_martinet_a2_passes_at_regular_points(point, capsys):
    assert main(MARTINET_A2 + ["--point=" + point]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["passed"]


@pytest.mark.parametrize("point, named", [("0,0,0", "(0.0, 0.0, 0.0)"),
                                          ("0,0.1,0", "(0.0, 0.1, 0.0)")])
def test_martinet_a2_names_the_singular_point(point, named, capsys):
    # on x = 0 the frame's bracket field vanishes: the chart inverse says
    # so and names the point, where it used to report a Newton failure
    assert main(MARTINET_A2 + ["--point=" + point]) == 2
    err = capsys.readouterr().err
    assert "NonRegular" in err and named in err, err


@pytest.mark.parametrize("x", ["0.01", "0.001"])
def test_martinet_a2_names_the_point_near_the_singular_set(x, capsys):
    # off x = 0 the frame matrix is invertible, but the bracket field 2x d/dz
    # is so short that the exact first Newton step leaves the injectivity
    # ball: the error gives the step's norm, the ball's radius and the row
    assert main(MARTINET_A2 + ["--point=%s,0.1,0" % x]) == 2
    err = capsys.readouterr().err
    assert "NoConvergence: Newton iterate left the injectivity ball" in err, err
    assert "|a| = " in err and "= 0.75 " in err, err
    assert "w = (%s, 0.1, 0.0)" % x in err, err


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
    assert main(["verify", "--structure", "euclidean2",
                 "--point", "1,2,3"]) == 64  # three coordinates in the plane
    assert main(["verify", "--structure", "euclidean2",
                 "--checks", ","]) == 64  # no check named
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
    # --samples outside 0 to MAX_SAMPLES, found before any point is drawn
    # (10**15 made util.halton raise a numpy memory error, exit 1), and a
    # profile snapshot beyond the exact GH search's gromov.SIZE_LIMIT points
    # (it sampled every snapshot, then exited 2 with SizeLimitExceeded)
    for cmd in ("verify", "tangent", "profile"):
        for bad in ("-1", str(MAX_SAMPLES + 1), str(10 ** 15)):
            assert main([cmd, "--structure", "euclidean2", "--samples", bad]) == 64
            assert "dilatlab: error: samples:" in capsys.readouterr().err
    assert main(["verify", "--structure", "euclidean2", "--checks", "a0a1",
                 "--samples", str(MAX_SAMPLES), "--eps-count", "3"]) == 0
    assert main(["profile", "--structure", "euclidean2", "--samples",
                 str(SIZE_LIMIT + 1)]) == 64
    assert "dilatlab: error: samples: profile" in capsys.readouterr().err
    assert main(["profile", "--structure", "euclidean2", "--samples", str(SIZE_LIMIT),
                 "--eps-count", "3"]) == 0
    # a seed outside the CLI's documented range, 0 to MAX_SEED
    for cmd in ("verify", "tangent", "profile"):
        assert main([cmd, "--structure", "euclidean2", "--seed", "-5"]) == 64
        assert main([cmd, "--structure", "euclidean2", "--seed", "2147483648"]) == 64
        # a halving schedule whose last scale underflows to 0, or whose last
        # scale's reciprocal (the inverse dilatations' factor) overflows
        for count in ("1100", "1030"):
            assert main([cmd, "--structure", "euclidean2", "--eps-count", count]) == 64
    # the tangent-cone verdict is the limit's own convergence: no tolerance flag
    assert main(["verify", "--structure", "euclidean2", "--checks", "tangent-cone",
                 "--tol.tangent-cone", "1e9"]) == 64
    # an unwritable --out is a usage error, not a failed check
    assert main(["verify", "--structure", "euclidean2", "--checks", "a0a1",
                 "--out", "/nonexistent/dir/x.json"]) == 64
    assert main(["list", "--out", "/nonexistent/x"]) == 64


def test_a3_stack_beyond_its_budget_exits_64_before_sampling(capsys):
    # a3 holds a (eps-count, P, P) stack, P = max(--samples, 3): at 256
    # samples and 1000 scales that is 65.5 million entries, refused with
    # nothing allocated (run, it would take about 1.8 GB)
    import tracemalloc

    argv = ["verify", "--structure", "euclidean3", "--checks", "a3", "--samples", "256",
            "--eps-count", "1000"]
    tracemalloc.start()
    try:
        assert main(argv) == 64
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    err = capsys.readouterr().err
    assert "dilatlab: error: samples: a3" in err
    assert "--samples" in err and "--eps-count" in err
    # the default checks hold a3
    assert main(argv[:3] + argv[5:]) == 64
    assert "error: samples: a3" in capsys.readouterr().err
    # a --seed out of range is found after the budget, so its error shows
    # which runs the budget let through: any without a3, and a3 at its edge,
    # 256 samples at 16 scales
    assert MAX_A3_STACK == MAX_SAMPLES ** 2 * 16
    for checks, count, first_error in (("a0a1", "1000", "seed"), ("a3", "16", "seed"),
                                       ("a3", "17", "samples: a3")):
        assert main(["verify", "--structure", "euclidean3", "--checks", checks,
                     "--samples", "256", "--eps-count", count, "--seed", "-1"]) == 64
        assert "dilatlab: error: %s" % first_error in capsys.readouterr().err


def test_non_finite_or_negative_tolerance_exits_64(capsys):
    # both runs fail at their default tolerances; a NaN tolerance compares
    # false with every residual and an infinite one admits all of them, so
    # either would turn the failure into a pass
    for argv, name in ((["--structure", "snowflake-0.3", "--point=0.3,-0.2"], "a0a1"),
                       (["--structure", "riemannian-shear"], "cone")):
        assert main(["verify", "--checks", name] + argv) == 1
        capsys.readouterr()
        for bad in ("nan", "inf", "-inf", "-1e-9"):
            assert main(["verify", "--checks", name, "--tol.%s=%s" % (name, bad)] + argv) == 64
            assert "dilatlab: error: tol.%s:" % name in capsys.readouterr().err
    # a zero tolerance is a legal, if strict, request
    assert main(["verify", "--structure", "euclidean2", "--checks", "a2",
                 "--tol.a2", "0"]) in (0, 1)


def test_point_outside_the_chart_exits_64(capsys):
    # euclidean2's chart is [-3, 3]^2; a base point off it is a usage error,
    # not an a0a1 FAIL, a DomainViolation or a SamplingExhausted
    for argv in (["verify", "--checks", "a0a1,a2"], ["tangent"], ["profile"]):
        assert main(argv + ["--structure", "euclidean2", "--point=5,5"]) == 64
        assert "dilatlab: error: point:" in capsys.readouterr().err


def test_unwritable_out_exits_64_before_any_check(monkeypatch, capsys):
    from dilatlab import axioms

    def reached(*args, **kwargs):
        raise AssertionError("a check ran before --out was found unwritable")

    monkeypatch.setattr(axioms, "check_A0_A1", reached)
    assert main(["verify", "--structure", "euclidean2", "--checks",
                 "a0a1,a2,a3,a4,cone,tangent-cone,profile",
                 "--out", "/nonexistent/dir/x.json"]) == 64
    assert "dilatlab: error: out:" in capsys.readouterr().err


def test_bad_manifest_exits_64(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "--manifest", str(path)]) == 64
    err = capsys.readouterr().err
    assert "manifest" in err
    # a fractional exponent would truncate and a JSON boolean pass as an int;
    # an integer exponent past the float range is no exponent either
    gens = HEIS_MANIFEST["generators"]
    for doc in (dict(HEIS_MANIFEST, generators=[[[[1.0, [0.5, 0, 0]]], [], []], gens[1]]),
                dict(HEIS_MANIFEST, generators=[[[[1.0, [10 ** 400, 0, 0]]], [], []], gens[1]]),
                dict(HEIS_MANIFEST, generators=[[[[1.0, [True, 0, 0]]], [], []], gens[1]]),
                dict(HEIS_MANIFEST, schema=True), dict(HEIS_MANIFEST, dim=True),
                {"schema": 1, "dim": 3, "fields": gens + [[[], [], [[1.0, [0, 0, 0]]]]],
                 "degrees": [True, True, 2]}):
        path.write_text(json.dumps(doc))
        assert main(["verify", "--manifest", str(path), "--checks", "a2"]) == 64
        assert "manifest" in capsys.readouterr().err


_GENS = HEIS_MANIFEST["generators"]


@pytest.mark.parametrize("doc, message", [
    ([HEIS_MANIFEST], "manifest: top level must be an object"),
    (dict(HEIS_MANIFEST, dim=0), "manifest: field 'dim' must be positive"),
    (dict(HEIS_MANIFEST, generators=[]), "manifest: field 'generators' must be a nonempty list"),
    (dict(HEIS_MANIFEST, generators=[_GENS[0], _GENS[1][:2]]),
     "manifest: field 'generators' entry 1 must have 3 components"),
    ({"schema": 1, "dim": 3, "fields": _GENS + [[[], [], [[1.0, [0, 0, 0]]]]]},
     "manifest: field 'degrees' required alongside 'fields'"),
    ({"schema": 1, "dim": 3}, "manifest: need either 'generators' or 'fields'"),
    (dict(HEIS_MANIFEST, probes=[]), "manifest: field 'probes' must be a nonempty list"),
])
def test_manifest_shape_errors_exit_64_naming_the_field(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--manifest", str(path), "--checks", "a2"]) == 64
    assert message in capsys.readouterr().err


def test_non_finite_manifest_coefficient_exits_64(tmp_path, capsys):
    # JSON's NaN and Infinity load as floats; the frame construction would
    # fail later with an unrelated linear-algebra message
    path = tmp_path / "nan.json"
    gens = HEIS_MANIFEST["generators"]
    for bad in (float("nan"), float("inf"), -float("inf"), 10 ** 400):
        doc = dict(HEIS_MANIFEST, generators=[[gens[0][0], [], [[bad, [0, 1, 0]]]], gens[1]])
        path.write_text(json.dumps(doc))
        assert main(["verify", "--manifest", str(path), "--checks", "a0a1"]) == 64
        err = capsys.readouterr().err
        assert "manifest: field 'generators' entry 0: component 2 term [" in err, err
        assert "finite" in err, err


def test_bad_chart_halfwidth_or_probe_exits_64(tmp_path, capsys):
    # a NaN half-width compared false with every point and was reported as
    # the base point lying outside the chart; a string or a boolean passed
    # as a number
    path = tmp_path / "box.json"
    for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 10 ** 400, "2", True,
                None, [2.0]):
        path.write_text(json.dumps(dict(HEIS_MANIFEST, chart_halfwidth=bad)))
        assert main(["verify", "--manifest", str(path), "--checks", "a0a1"]) == 64, bad
        err = capsys.readouterr().err
        assert "manifest: field 'chart_halfwidth' must be a finite positive number" in err, err
    for bad in ([float("nan"), 0.0, 0.0], [float("inf"), 0.0, 0.0], [10 ** 400, 0.0, 0.0],
                ["a", 0.0, 0.0], [1.0, 2.0], [True, 0.0, 0.0], 1.0):
        doc = dict(HEIS_MANIFEST, probes=[[0.1, 0.2, 0.3], bad])
        path.write_text(json.dumps(doc))
        assert main(["verify", "--manifest", str(path), "--checks", "a0a1"]) == 64, bad
        err = capsys.readouterr().err
        assert "manifest: field 'probes' entry 1 must be 3 finite numbers" in err, err


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


def test_verify_runs_every_check_in_order(capsys):
    rc = main(["verify", "--structure", "euclidean2",
               "--checks", "a0a1,a2,a3,a4,cone,tangent-cone,profile"])
    assert rc == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["check"] for c in checks] == ["a0a1", "a2", "a3", "a4", "conical-group",
                                            "tangent-cone", "profile-theorem"]
    assert all(c["passed"] for c in checks)
    # the tangent cone's gaps are zero on the flat plane, so the decay
    # tolerance is its floor and the last gap lies under it
    assert checks[5]["tolerance"] == 1e-10
    assert checks[5]["max_residual"] <= 1e-10
    assert checks[5]["notes"].endswith("; tolerance: the floor 1e-10")


def test_unconverged_limit_exits_2(capsys):
    # the rotation twist keeps the difference operation from settling on a
    # three-scale schedule
    rc = main(["verify", "--structure", "complex-1.0", "--checks", "a4",
               "--eps-count", "3"])
    assert rc == 2
    assert "inconclusive" in capsys.readouterr().err


def test_library_error_exits_2_with_its_type(tmp_path, capsys):
    # probes around a point at the chart edge leave the dilatation domain;
    # the run writes no --out file and leaves an existing one untouched
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    for out in ([], ["--out", str(fresh)], ["--out", str(kept)]):
        rc = main(["tangent", "--structure", "euclidean2", "--point=2.95,2.95"] + out)
        assert rc == 2
        assert "dilatlab: DomainViolation:" in capsys.readouterr().err
    assert not fresh.exists()
    assert kept.read_text() == "earlier report\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--structure", "euclidean2", "--checks", "profile", "--eps-count", "540"],
    ["profile", "--structure", "snowflake-0.3", "--eps-count", "300"],
])
def test_underflowing_profile_snapshot_exits_2(argv, capsys):
    # squared distances below about 1e-154 underflow, and the 1/eps rescale
    # turns the snapshot into a matrix that breaks the triangle inequality:
    # a typed failure with exit 2, not a ValueError traceback with exit 1
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("dilatlab: TriangleViolation: triangle inequality")
    assert "Traceback" not in err


def test_profile_json(capsys):
    rc = main(["profile", "--structure", "euclidean2", "--eps-count", "5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"schema", "structure", "point", "profile", "gaps", "residual",
                        "converged"}
    assert len(doc["gaps"]) == 4 and doc["converged"]  # successive snapshots


def test_tangent_csv(capsys):
    rc = main(["tangent", "--structure", "euclidean2", "--format", "csv"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "eps,value,diff,extrapolated,error"


def _fresh_python(code: str) -> str:
    """Standard output of code run in a new interpreter on this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_successive_main_calls_match_fresh_runs(capsys):
    # main reuses one parser: flags and defaults of one call must not leak
    # into the next, so each call prints what it prints in a new process
    runs = [["verify", "--structure", "euclidean2", "--checks", "a2", "--samples", "2",
             "--seed", "7", "--eps-count", "4", "--format", "csv"],
            ["verify", "--structure", "euclidean2", "--checks", "a2"],
            ["tangent", "--structure", "euclidean2", "--point", "-0.1,0.2", "--eps-count", "5"],
            ["verify", "--structure", "euclidean2", "--checks", "bogus"],
            ["profile", "--structure", "euclidean2", "--samples", "2", "--eps-count", "4"],
            ["list", "--format", "json"]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    capsys.readouterr()
    for argv in runs:
        code = main(argv)
        got = capsys.readouterr()
        # bytes, so that the CSV writer's \r\n line ends come through as written
        fresh = subprocess.run([sys.executable, "-m", "dilatlab.cli"] + argv, env=env,
                               capture_output=True)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout.decode(),
                                            fresh.stderr.decode()), argv


def test_import_loads_no_scipy():
    code = "import sys, dilatlab, dilatlab.cli; print(%s)" % SCIPY_MODULES
    assert _fresh_python(code).strip() == "[]"


def test_flat_runs_load_no_scipy():
    # every check, the tangent operations and the profile on a flat structure:
    # the Halton stream is numpy's, and no solver runs; Heisenberg tangent and
    # pointwise checks measure the batched gauge, which is numpy alone
    heis = "'--structure', 'heisenberg', '--eps-start', '0.125'"
    code = "\n".join([
        "import contextlib, io, sys",
        "from dilatlab.cli import CHECK_NAMES, main",
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):",
        "    codes = [main(['verify', '--structure', 'euclidean2', '--checks',",
        "                   ','.join(CHECK_NAMES)]),",
        "             main(['tangent', '--structure', 'euclidean2']),",
        "             main(['profile', '--structure', 'euclidean2']),",
        "             main(['tangent', %s, '--eps-count', '8'])," % heis,
        "             main(['verify', %s, '--checks', 'a0a1,a2,a3,a4'])]" % heis,
        "print(codes, %s)" % SCIPY_MODULES,
    ])
    assert _fresh_python(code).strip() == "[0, 0, 0, 0, 0] []"


@pytest.mark.parametrize("call, want", [
    ("heisenberg_cc(np.zeros(3), np.array([0.1, 0.05, 0.02]))",
     lambda: heisenberg_cc(np.zeros(3), np.array([0.1, 0.05, 0.02]))),
    ("vertical_cc_oracle(0.05)", lambda: vertical_cc_oracle(0.05)),
    ("carnot.cc_distance(heisenberg()[0], np.zeros(3), np.array([0.3, 0.1, 0.0]), "
     "config=carnot.LIGHT_CC)",
     lambda: cc_distance(heisenberg()[0], np.zeros(3), np.array([0.3, 0.1, 0.0]),
                         config=LIGHT_CC)),
])
def test_solvers_load_scipy_on_their_first_call(call, want):
    # each solver is the first scipy user of a fresh interpreter and gives
    # the bits it gives here; carnot.minimize is looked up when cc_distance
    # calls it, so a wrapper set on the module sees each L-BFGS result. The
    # gauge behind heisenberg_cc is a numpy Newton solve and loads no scipy.
    loads_scipy = not call.startswith("heisenberg_cc")
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from dilatlab import carnot",
        "from dilatlab.heisenberg_group import heisenberg, heisenberg_cc, vertical_cc_oracle",
        "before = %s" % SCIPY_MODULES,
        "solves = []",
        "scipy_minimize = carnot.minimize",
        "def counted(*args, **kwargs):",
        "    res = scipy_minimize(*args, **kwargs)",
        "    solves.append((res.nit, res.nfev))",
        "    return res",
        "carnot.minimize = counted",
        "value = %s" % call,
        "print(before, 'scipy.optimize' in sys.modules)",
        "print(repr(float(value)))",
        "print(len(solves), min((nfev for _, nfev in solves), default=0))",
    ])
    lines = _fresh_python(code).splitlines()
    assert lines[0] == "[] %s" % loads_scipy
    assert float(lines[1]) == float(want())
    solves, fewest_nfev = (int(v) for v in lines[2].split())
    if call.startswith("carnot.cc_distance"):
        assert solves >= 1 and fewest_nfev >= 1
    else:
        assert solves == 0
