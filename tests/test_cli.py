import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dcrates.cli import build_parser, main
from dcrates.curvature import Curvature, DcParams
from dcrates.engine import LINK_TOL
from dcrates.regimes import GridSpec, regime_map
from dcrates.sampling import ANCHORS
from dcrates.oracles import (AbsPlusQuadratic, FunctionSpec, Quadratic,
                             evaluate, instance_from_json, instance_to_json,
                             make_instance)

INF = math.inf


def _refuse(name):
    """parse_constant for json.loads: NaN and the infinities are not JSON."""
    raise AssertionError("%s in the JSON" % name)


@pytest.fixture
def instance_file(tmp_path):
    f1 = FunctionSpec(Quadratic((2.0,), (0.0,)), Curvature(1.5, 2.5))
    f2 = FunctionSpec(Quadratic((1.0,), (1.0,)), Curvature(0.5, 1.5))
    inst = make_instance(f1, f2)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    return str(path)


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert "dcrates 0.1.0" in out and "formula revision" in out


def test_readme_cli_block_parses():
    """Every command of README's CLI block is one the parser accepts; the
    commands are parsed, not run."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("dcrates ") for line in lines)
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail("README documents %r, which does not parse" % line)


def test_readme_input_files_decode_and_run(tmp_path, capsys):
    """README's instance example and inline Params example decode, and the
    instance runs and certifies as its CLI block shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    instance_from_json(json.loads(block))
    params = readme.split("- **Params** (`--params`): `", 1)[1].split("`", 1)[0]
    DcParams.from_json_dict(json.loads(params))
    path = tmp_path / "inst.json"
    path.write_text(block)
    assert main(["run", "--instance", str(path), "--x0", "1.0", "--N", "25",
                 "--certify"]) == 0
    assert json.loads(capsys.readouterr().out.split("\n", 1)[1])["holds"]


def test_classify_output(tmp_path, capsys):
    out = tmp_path / "cls.json"
    assert main(["classify", "--mu1", "0.5", "--L1", "2", "--mu2", "0",
                 "--L2", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "regime 1" in text
    d = json.loads(out.read_text(), parse_constant=_refuse)
    assert (d["S1"], d["S2"]) == ("inf", "inf")     # mu2 = 0
    assert d["certificate"]["index"] == 1
    assert d["certificate"]["p"] == pytest.approx(5.0 / 3.0)
    assert "formula_revision" in d


def test_classify_invalid_params_exit_1(capsys):
    assert main(["classify", "--mu1", "1", "--L1", "1", "--mu2", "0",
                 "--L2", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_classify_one_nonsmooth_term(tmp_path, capsys):
    out = tmp_path / "cls.json"
    argv = ["classify", "--mu1", "1", "--L1", "inf", "--mu2", "0", "--L2", "2",
            "--out", str(out)]
    assert main(argv) == 0
    cert = json.loads(out.read_text())["certificate"]
    assert (cert["label"], cert["index"], cert["sigma_plus"]) == ("p17", 1, 0.75)
    capsys.readouterr()
    argv[argv.index("--L2") + 1] = "inf"
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: both terms nonsmooth")


@pytest.mark.parametrize("L1, L2, grid, has_invalid", [
    (2.0, 1.0, "-1:1.5:12", True),
    (2.0, 1.0, "0.3:0.3:1", False),
    (2.0, 1.0, "0:-0.0:2", False),
    (1.5, 1.5, "-1:1.25:10", True),
    (1.0, 0.5, "-2:3:11", True),
    (1.0, 1.0, "5:6:4", True),
    (3.0, 2.0, "-2:3:21", True),
], ids=["basic", "one_step", "signed_zero", "equal_L", "invalid_nodes",
        "all_invalid", "six_regimes"])
def test_regime_map_csv(tmp_path, capsys, L1, L2, grid, has_invalid):
    # the file is what csv.writer makes of the grid nodes, mu1-major, and
    # regime_map's arrays, byte for byte
    out = tmp_path / "map.csv"
    assert main(["regime-map", "--L1", repr(L1), "--L2", repr(L2),
                 "--grid", grid, "--out", str(out)]) == 0
    spec = GridSpec.parse(grid)
    pts = spec.points()
    index, p = regime_map(L1, L2, spec)
    assert index.shape == p.shape == (spec.steps, spec.steps)
    M1, M2 = np.meshgrid(pts, pts, indexing="ij")
    rows = list(zip(M1.ravel().tolist(), M2.ravel().tolist(),
                    index.ravel().tolist(), p.ravel().tolist()))
    ref = io.StringIO(newline="")
    csv.writer(ref).writerows([("mu1", "mu2", "regime", "p")] + rows)
    data = out.read_bytes()
    assert data == ref.getvalue().encode()
    assert len(data.splitlines()) == 1 + spec.steps ** 2
    counts = Counter(index.ravel().tolist())
    assert capsys.readouterr().out == "wrote %d rows to %s; regime counts: %s\n" % (
        len(rows), out, dict(sorted(counts.items())))
    assert (counts[0] > 0) == (b",nan\r\n" in data) == has_invalid


def test_regime_map_csv_cases_cover_every_p_nan_and_repeated_p():
    """The all_invalid grid has p = nan at every node, and the six_regimes
    grid reaches six regimes with many nodes sharing one p, so the CSV pins
    the text of each distinct p, the nan included, wherever it repeats."""
    index, p = regime_map(1.0, 1.0, GridSpec.parse("5:6:4"))
    assert not index.any() and np.isnan(p).all()
    index, p = regime_map(3.0, 2.0, GridSpec.parse("-2:3:21"))
    assert set(index.ravel().tolist()) == {0, 1, 3, 4, 5, 6, 7}
    assert len(np.unique(p[index > 0])) < (index > 0).sum() // 3


# SHA-256 of the `classify --out` file at each anchor with the
# formula_revision value (a hash of regimes.py) blanked; the bytes were taken
# when the three result types were frozen dataclasses
_CLASSIFY_OUT_SHA256 = {
    1: "0cd8f6769c695fce6a31666a721d34b546ce004de110634f1af46c8ac64a7897",
    2: "644039153b8c6a5948e17f125007e637cb4439c004c7c3f61fdc4a3cb4da9a64",
    3: "f49d46c23317bbbefb94681d0bb83bb655bafb7b56452e0af90751c26bb0f1ac",
    4: "d254132704b7f47dd8063ee25d1cea653c8354564a0699e5309c0223d75dfbdb",
    5: "b88fac5d74d945d5380c1aaa93763373e853dfae172202adb02e29547c645436",
    6: "bc51d3d92882febdea2c554274a3a0b5a6d51b47bd6c5b6911ad70adfcbc452a",
    7: "2d8d1d5b8bdb0ff0e2d0149270c6884ad3553e167d7ec98550b3d000c68b8a48",
    8: "153740ee8f43cb3bb56b7bc1d0015e27f2e5862198a27c6afcd6bad2bae0ed95",
}


@pytest.mark.parametrize("regime", sorted(ANCHORS))
def test_classify_out_keeps_its_bytes_at_the_anchors(tmp_path, capsys, regime):
    p = ANCHORS[regime]
    out = tmp_path / "cls.json"
    assert main(["classify", "--mu1", repr(p.mu1), "--L1", repr(p.L1),
                 "--mu2", repr(p.mu2), "--L2", repr(p.L2), "--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    revision = json.loads(data)["formula_revision"]
    blanked = data.replace(b'"formula_revision": "%s"' % revision.encode(),
                           b'"formula_revision": "-"')
    assert hashlib.sha256(blanked).hexdigest() == _CLASSIFY_OUT_SHA256[regime]


@pytest.mark.parametrize("grid", ["-1:2:0", "-1:2:-3", "2:-1:10", "-1:inf:10",
                                  "nan:1:10"])
def test_regime_map_rejects_bad_grid(tmp_path, capsys, grid):
    out = tmp_path / "map.csv"
    assert main(["regime-map", "--L1", "2", "--L2", "1", "--grid", grid,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_regime_map_out_of_memory_exit_1(tmp_path, capsys, monkeypatch):
    """A grid too large for memory is an input error, not a traceback."""
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 11.9 GiB for an array with "
                          "shape (40000, 40000) and data type float64")
    monkeypatch.setattr("dcrates.cli.regime_map", out_of_memory)
    out = tmp_path / "map.csv"
    assert main(["regime-map", "--L1", "2", "--L2", "1", "--grid",
                 "0:1:40000", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 11.9 GiB for an array " \
        "with shape (40000, 40000) and data type float64\n"
    assert not out.exists()


def test_regime_map_rejects_nonpositive_L(tmp_path, capsys):
    assert main(["regime-map", "--L1", "-1", "--L2", "1", "--grid", "-1:2:5",
                 "--out", str(tmp_path / "map.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_classify_precondition_violated_exit_1(capsys):
    # the second point is within an ulp of the corner mu1 = L1 = L2, where
    # two matched rows disagree (InconsistentBoundary)
    for argv in (["--mu1", "0.5", "--L1", "2", "--mu2=-1", "--L2", "1"],
                 ["--mu1", "2.9999999999999996", "--L1", "3", "--mu2=-1", "--L2", "3"]):
        assert main(["classify"] + argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_run_certify_nonsmooth_without_fstar_exit_1(tmp_path, capsys):
    f1 = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(1.0, INF))
    f2 = FunctionSpec(AbsPlusQuadratic(0.5, 0.5, 0.2), Curvature(0.5, INF))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(make_instance(f1, f2))))
    assert main(["run", "--instance", str(path), "--x0", "1.0", "--N", "3",
                 "--certify"]) == 1
    assert "error: " in capsys.readouterr().err


def test_run_certify_round_trip(tmp_path, instance_file, capsys):
    traj_path = tmp_path / "traj.json"
    run_report = tmp_path / "run_report.json"
    cert_report = tmp_path / "cert_report.json"
    assert main(["run", "--instance", instance_file, "--x0", "1.0",
                 "--N", "4", "--out", str(traj_path), "--certify",
                 "--report-out", str(run_report)]) == 0
    assert main(["certify", "--traj", str(traj_path),
                 "--out", str(cert_report)]) == 0
    a = json.loads(run_report.read_text())
    b = json.loads(cert_report.read_text())
    assert a["holds"] and b["holds"]
    assert a["per_step_slacks"] == b["per_step_slacks"]


def test_run_certify_holds_at_scale_1e8(tmp_path, capsys):
    """ANCHORS[1] scaled by 1e8: F near 1e8 carries rounding of about
    1e-8, and a one-step slack of -1.5e-8 failed the absolute 1e-9 and
    exited 2.  --check-tol is relative above |f| = 1."""
    p = ANCHORS[1]
    s = 1e8
    f1 = FunctionSpec(Quadratic((1.5 * s,), (1.0 * s,)),
                      Curvature(p.mu1 * s, p.L1 * s))
    f2 = FunctionSpec(Quadratic((0.5 * s,), (-0.3 * s,)),
                      Curvature(p.mu2 * s, p.L2 * s))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(make_instance(f1, f2))))
    assert main(["run", "--instance", str(path), "--x0", "0.3", "--N", "25",
                 "--certify"]) == 0
    report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert report["holds"] and min(report["per_step_slacks"]) < -1e-9


def test_run_csv_output(tmp_path, instance_file):
    csv_path = tmp_path / "traj.csv"
    assert main(["run", "--instance", instance_file, "--x0", "1.0",
                 "--N", "2", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,F,G_norm_sq,T,dx_norm_sq"
    assert len(lines) == 4


def _triplets_json(spec, ts):
    """The triplets of spec at the 1D points ts, from one stacked evaluate,
    as interp-check reads them."""
    X = np.array([[t] for t in ts])
    a = evaluate(spec, X)
    return [{"x": x, "g": g, "f": f} for x, g, f in
            zip(X.tolist(), a.subgradient.tolist(), a.value.tolist())]


def test_interp_check_exit_codes(tmp_path, capsys):
    spec = FunctionSpec(Quadratic((2.0,), (0.0,)), Curvature(1.5, 2.5))
    path = tmp_path / "trips.json"
    path.write_text(json.dumps(_triplets_json(spec, (-1.0, 0.0, 1.0, 2.0))))
    assert main(["interp-check", "--triplets", str(path),
                 "--mu", "1.5", "--L", "2.5"]) == 0
    # under-declared smoothness must be flagged as infeasible
    assert main(["interp-check", "--triplets", str(path),
                 "--mu", "0", "--L", "1.0"]) == 2


@pytest.mark.parametrize("body, message", [
    # a dict read as zero triplets: "feasible": true, exit 0
    ({}, "expected a list of triplets, got dict"),
    # einsum broadcast the length-1 g against the length-2 x: a verdict, exit 2
    ([{"x": [0, 1], "g": [1], "f": 0}, {"x": [1, 0], "g": [0], "f": 1}],
     "every x and g must be a vector of one shared length d >= 1"),
    # inf - inf in the slack: "min_slack": NaN, which is not JSON, exit 2
    ([{"x": [1e200], "g": [1e200], "f": 0}, {"x": [-1e200], "g": [-1e200], "f": 1}],
     "slack nan is not finite (past the float range)"),
], ids=["dict", "dimension_mismatch", "past_float_range"])
def test_interp_check_refuses_bad_triplet_file(tmp_path, capsys, body, message):
    path = tmp_path / "trips.json"
    path.write_text(json.dumps(body))
    assert main(["interp-check", "--triplets", str(path),
                 "--mu", "0", "--L", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s: " % path)
    assert message in captured.err


@pytest.mark.parametrize("mu, L", [("1", "1"), ("2", "1"), ("0", "-1"),
                                   ("nan", "1")])
def test_interp_check_refuses_invalid_class(tmp_path, capsys, mu, L):
    """mu = L divided by zero, and mu > L or L <= 0 got a verdict."""
    path = tmp_path / "trips.json"
    path.write_text(json.dumps([{"x": [0], "g": [1], "f": 0},
                                {"x": [1], "g": [0], "f": 1}]))
    assert main(["interp-check", "--triplets", str(path), "--mu", mu,
                 "--L", L]) == 1
    assert capsys.readouterr().err.startswith("error: class: ")


_VEC = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3)
_TRIPLET_FILE = st.one_of(
    st.lists(st.fixed_dictionaries({"x": _VEC, "g": _VEC, "f": st.floats()}),
             max_size=4),
    st.dictionaries(st.sampled_from("xgf"), _VEC, max_size=3),
    st.floats(), st.none())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_TRIPLET_FILE, st.floats(-3.0, 3.0),
       st.one_of(st.just("inf"), st.floats(0.5, 1e300).map(repr)))
def test_interp_check_fuzzed_triplets_keep_exit_contract(tmp_path, capsys,
                                                         body, mu, L):
    """Any triplet file ends in exit 0, 1 or 2, with `error: ` on 1 and a
    report without NaN or infinities otherwise."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(body))
    capsys.readouterr()
    code = main(["interp-check", "--triplets", str(path), "--mu=%r" % mu,
                 "--L", L])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 1:
        assert captured.err.startswith("error: ")
        return
    report = json.loads(captured.out, parse_constant=_refuse)
    assert report["feasible"] == (code == 0)


def test_probe_deterministic_json(tmp_path, capsys):
    argv = ["probe", "--mu1", "0.5", "--L1", "2", "--mu2", "0", "--L2", "1",
            "--N", "1", "--d", "1", "--budget", "4000", "--seed", "3",
            "--starts", "4"]
    assert main(argv) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    b = json.loads(capsys.readouterr().out)
    assert a["best_ratio"] == b["best_ratio"]
    assert a["certified_bound"] == pytest.approx(0.6)
    assert not a["certificate_violation"]


_TREND = ["trend", "--mu1", "1", "--L1", "10", "--mu2=-0.8", "--L2", "2",
          "--budget", "300", "--starts", "2"]
_N1 = "N= 1  best ratio 3.200000  certified 3.200000  evals 300\n"
_ASYMPTOTIC = ("conjectured asymptotic constants: p5_inf = 0.500000, "
               "p6_inf = 0.261364\n")


_HORIZONS_ERROR = "error: dcrates trend: argument --horizons: "


@pytest.mark.parametrize("argv, code, stdout, fit, err", [
    (["sweep", "--per-regime", "2", "--steps", "3"], 0,
     "".join("regime %d: done (2 instances)\n" % i for i in range(1, 9))
     + "instances: 16, worst one-step slack: 3.817e-06, rate failures: 0\n",
     None, ""),
    (_TREND + ["--horizons", "1,2"], 0,
     _N1 + "N= 2  best ratio 0.474555  certified 1.600000  evals 301\n"
     "fit 1/ratio = a N + b:  a = 1.794739  b = -1.482239\n" + _ASYMPTOTIC,
     [pytest.approx(1.794739, abs=1e-6), pytest.approx(-1.482239, abs=1e-6)],
     ""),
    # one horizon: the fit is NaN, written null
    (_TREND + ["--horizons", "1"], 0,
     _N1 + "fit 1/ratio = a N + b:  a = nan  b = nan\n" + _ASYMPTOTIC,
     [None, None], ""),
    (["trend", "--mu1", "1", "--L1", "0.5", "--mu2", "0", "--L2", "1"], 1, "",
     None, "error: "),
    (_TREND + ["--horizons", "0"], 1, "", None, "error: "),
    (_TREND + ["--horizons", "x"], 1, "", None, _HORIZONS_ERROR),
    (_TREND + ["--horizons", "1,,2"], 1, "", None, _HORIZONS_ERROR),
    (_TREND + ["--horizons="], 1, "", None, _HORIZONS_ERROR),
    (["sweep", "--per-regime", "0"], 1, "", None, "error: "),
    (["sweep", "--steps", "0"], 1, "", None,
     "error: --steps must be at least 1, got 0\n"),
    (_TREND + ["--seed", "-1"], 1, "", None,
     "error: budget, starts and seed must be >= 0, got budget=300, starts=2, "
     "seed=-1\n"),
    (["sweep", "--seed", "-1"], 1, "", None,
     "error: --seed must be >= 0, got -1\n"),
], ids=["sweep", "trend", "trend_one_horizon", "trend_invalid_params",
        "trend_horizon_0", "trend_horizons_not_integer",
        "trend_horizons_empty_entry", "trend_horizons_empty",
        "sweep_per_regime_0", "sweep_steps_0", "trend_seed_negative",
        "sweep_seed_negative"])
def test_trend_and_sweep_output(tmp_path, capsys, argv, code, stdout, fit, err):
    """The lines trend and sweep print, byte for byte, and trend's strict
    JSON.  A bad input is an input error: it was a traceback or, for sweep
    --per-regime 0, a pass over no instances.  A --horizons value that is
    not a list of integers is refused by name, before any search."""
    out = tmp_path / "trend.json"
    assert _main_code(argv + (["--out", str(out)] if fit else [])) == code
    captured = capsys.readouterr()
    assert captured.out == stdout + ("wrote %s\n" % out if fit else "")
    assert captured.err.startswith(err) and bool(captured.err) == (code == 1), \
        captured.err
    if fit:
        d = json.loads(out.read_text(), parse_constant=_refuse)
        horizons = [int(N) for N in argv[argv.index("--horizons") + 1].split(",")]
        assert [d["a_fit"], d["b_fit"]] == fit
        assert (d["horizons"], d["d"], d["budget"], d["seed"], d["starts"]) == (
            horizons, 1, 300, 0, 2)
        assert list(d["ratios"]) == list(d["evals"]) == [str(N) for N in horizons]
        assert d["evals"]["1"] == 300 and "formula_revision" in d


def test_trend_fits_no_line_through_one_repeated_horizon(tmp_path, capsys):
    """Two entries at one N are one point: the fit is NaN, written null, as
    for a single horizon (it was a line through both, printed as a result)."""
    out = tmp_path / "trend.json"
    assert main(_TREND + ["--horizons", "2,2", "--out", str(out)]) == 0
    assert "a = nan  b = nan\n" in capsys.readouterr().out
    d = json.loads(out.read_text(), parse_constant=_refuse)
    assert (d["a_fit"], d["b_fit"], d["horizons"]) == (None, None, [2, 2])


def test_missing_file_exit_1():
    assert main(["certify", "--traj", "/nonexistent/t.json"]) == 1


def test_directory_as_file_exit_1(tmp_path, capsys):
    assert main(["certify", "--traj", str(tmp_path)]) == 1
    assert main(["classify", "--mu1", "0.5", "--L1", "2", "--mu2", "0",
                 "--L2", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("error: ") == 2


def _malformed(tmp_path, instance_file, kind):
    """Write one malformed input file of the given kind; return its CLI argv."""
    inst = json.loads(open(instance_file).read())
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    if kind == "instance_without_f2":
        del inst["f2"]
        body, argv = inst, ["run", "--instance", str(bad), "--x0", "1", "--N", "2"]
    elif kind == "instance_c_not_a_list":
        inst["f1"]["c"] = 2.0
        body, argv = inst, ["run", "--instance", str(bad), "--x0", "1", "--N", "2"]
    elif kind == "trajectory_without_instance":
        assert main(["run", "--instance", instance_file, "--x0", "1", "--N", "2",
                     "--out", str(good)]) == 0
        body = json.loads(good.read_text())
        del body["instance"]
        argv = ["certify", "--traj", str(bad)]
    elif kind == "triplet_without_f":
        body = [{"x": [0.0], "g": [0.0], "f": 0.0}, {"x": [1.0], "g": [1.0]}]
        argv = ["interp-check", "--triplets", str(bad), "--mu", "0", "--L", "2"]
    else:
        body = {"mu1": 0.5, "L1": 2.0, "L2": 1.0}
        argv = ["classify", "--params", str(bad)]
    bad.write_text(json.dumps(body))
    return argv


@pytest.mark.parametrize("kind", ["instance_without_f2", "instance_c_not_a_list",
                                  "trajectory_without_instance",
                                  "triplet_without_f", "params_without_mu2"])
def test_malformed_file_exit_1(tmp_path, instance_file, capsys, kind):
    argv = _malformed(tmp_path, instance_file, kind)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + str(tmp_path / "bad.json") + ": ")
    assert "Traceback" not in err


def test_false_declared_class_exit_1(tmp_path, capsys):
    """f2 declares L = 0.1 but has curvature 0.95: the instance is rejected
    before any certificate is checked against the false class."""
    body = {"f1": {"family": "quadratic", "c": [1.0], "b": [0.0],
                   "mu": 1.0, "L": 1.2},
            "f2": {"family": "quadratic", "c": [0.95], "b": [0.0],
                   "mu": 0.0, "L": 0.1}}
    path = tmp_path / "false.json"
    path.write_text(json.dumps(body))
    assert main(["run", "--instance", str(path), "--x0", "3", "--N", "5",
                 "--certify"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: %s: f2: actual upper curvature 0.95 exceeds "
                   "declared L=0.1\n" % path)


@pytest.mark.parametrize("out", [False, True], ids=["run", "run_out"])
def test_nan_declared_class_exit_1(tmp_path, capsys, out):
    """f1 declares mu = NaN: the instance is refused with the term named,
    before the run and before run --out's range check, which would blame
    the float range."""
    body = {"f1": {"family": "quadratic", "c": [2.0], "b": [0.0],
                   "mu": math.nan, "L": 4.0},
            "f2": {"family": "quadratic", "c": [1.0], "b": [0.0],
                   "mu": 0.0, "L": 2.0}}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(body))
    traj = tmp_path / "traj.json"
    argv = ["run", "--instance", str(path), "--x0", "1", "--N", "2"]
    assert main(argv + (["--out", str(traj)] if out else [])) == 1
    assert capsys.readouterr() == ("", "error: %s: f1: NaN curvature parameter "
                                   "(declared mu=nan, L=4.0; actual range "
                                   "[2.0, 2.0])\n" % path)
    assert not traj.exists()


@pytest.mark.parametrize("f1", [
    {"family": "quadratic", "c": [2.0, math.nan], "b": [0.0, 0.0]},
    {"family": "max_quadratics", "pieces": [[1.0, 0.0, 0.0], [math.nan, 1.0, 0.0]]},
    {"family": "abs_quadratic", "a": math.nan, "m": 1.0, "b": 0.0}],
    ids=["quadratic", "max_quadratics", "abs_quadratic"])
def test_nan_coefficient_exit_1(tmp_path, capsys, f1):
    """A NaN curvature coefficient after a finite one, or a NaN kink, is
    refused as the one NaN line, not as an overflow in the run or a
    declared mu above a lower curvature of -inf."""
    d = len(f1.get("c", [0.0]))
    body = {"f1": dict(f1, mu=0.5, L=math.inf),
            "f2": {"family": "quadratic", "c": [1.0] * d, "b": [0.0] * d,
                   "mu": 0.0, "L": 2.0}}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(body))
    assert main(["run", "--instance", str(path), "--x0", ",".join(["1"] * d),
                 "--N", "2"]) == 1
    assert capsys.readouterr() == ("", "error: %s: f1: NaN curvature parameter "
                                   "(declared mu=0.5, L=inf; actual range "
                                   "[nan, nan])\n" % path)


@pytest.mark.parametrize("f1, x0", [
    # x^2/2 at 1e200: the value overflows, and F was inf - inf = nan (exit 2)
    ({"family": "quadratic", "c": [1.0], "b": [0.0], "mu": 0.5, "L": 2},
     "1e200"),
    # b x = -inf at a finite x: max() of the piece values was empty
    ({"family": "max_quadratics", "pieces": [[1e-15, 1.797e308, 1]],
      "mu": 1e-15, "L": 1}, "-2.2e92")], ids=["quadratic", "max_quadratics"])
def test_value_past_float_range_exit_1(tmp_path, capsys, f1, x0):
    f2 = {"family": "quadratic", "c": [0.5], "b": [0.0], "mu": 0, "L": 1}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"f1": f1, "f2": f2}))
    assert main(["run", "--instance", str(path), "--x0", x0, "--N", "2",
                 "--certify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "inf" in err and "not finite" in err


def _big_instance(tmp_path, f2_b):
    """f1 has a flat coordinate and curvature 1.34e154 on the other."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "f1": {"family": "quadratic", "c": [0.0, 1.3407807929942597e154],
               "b": [-1.0, -1.0], "mu": 0.0, "L": 1.34078079299426e154},
        "f2": {"family": "quadratic", "c": [0.0, 0.0], "b": [f2_b, f2_b],
               "mu": 0.0, "L": 1.0}}))
    return ["run", "--instance", str(path), "--x0=-1,-1", "--N", "1"]


@pytest.mark.parametrize("flags, field", [
    (["--certify"], "per_step_slacks[0] = -inf"),
    (["--out", "traj.json"], "points[0].G_norm_sq = inf")],
    ids=["certify", "out"])
def test_report_field_past_float_range_is_named(tmp_path, capsys, flags, field):
    """The big instance takes a finite run to an infinite slack or G_norm_sq:
    the refusal names the field and the range, not only json's "Out of
    range float values", and the run's summary line is not printed."""
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    assert main(_big_instance(tmp_path, -1.0) + flags) == 1
    assert capsys.readouterr() == ("", (
        "error: %s is past the float range: the declared curvatures are past "
        "what the regime and interpolation formulas can evaluate (about "
        "1e-154 to 1e154)\n" % field))


def test_refused_certificate_prints_no_summary(tmp_path, capsys):
    """With f2 flat as well, the first subproblem is unbounded and the run
    takes no step, so there is nothing to certify.  The summary line
    ('ran 0 step(s)') was printed before the refusal."""
    assert main(_big_instance(tmp_path, 0.0) + ["--certify"]) == 1
    assert capsys.readouterr() == ("", "error: trajectory has no step 0\n")


@pytest.mark.parametrize("buffered", (True, False), ids=("buffered",
                                                         "unbuffered"))
@pytest.mark.parametrize("argv", (
    ["classify", "--mu1", "0.5", "--L1", "2", "--mu2", "0", "--L2", "1"],
    ["probe", "--mu1", "2", "--L1", "4", "--mu2", "-1", "--L2", "3",
     "--budget", "40", "--starts", "2"],
    ["trend", "--mu1", "1", "--L1", "10", "--mu2=-0.8", "--L2", "2",
     "--horizons", "1,2", "--budget", "60", "--starts", "2"],
    ["sweep", "--per-regime", "1", "--steps", "2"]),
    ids=("classify", "probe", "trend", "sweep"))
def test_closed_stdout_keeps_the_exit_code(argv, buffered):
    """A reader that has gone away (stdout a pipe whose read end is already
    closed) leaves the command's own exit code, 0 here, and nothing on
    stderr, whether stdout is block-buffered or written at once."""
    env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, "-m", "dcrates.cli", *argv],
                             stdout=write, stderr=subprocess.PIPE, env=env,
                             text=True, timeout=60)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (0, "")


def test_overflow_warning_does_not_precede_error(tmp_path):
    """A real process: pytest captures warnings, so only a subprocess shows
    numpy's RuntimeWarning reaching stderr ahead of the error line."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "f1": {"family": "quadratic", "c": [1.0], "b": [0.0], "mu": 0.5, "L": 2},
        "f2": {"family": "quadratic", "c": [0.5], "b": [0.0], "mu": 0, "L": 1}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "dcrates.cli", "run", "--instance", str(path),
         "--x0", "1e200", "--N", "2", "--certify"],
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr.startswith("error: "), out.stderr
    assert "not finite (past the float range)" in out.stderr


def test_curvatures_past_formula_range_name_the_cause(capsys):
    assert main(["classify", "--mu1", "0", "--L1", "1", "--mu2", "1e-313",
                 "--L2", "1.75e-313"]) == 1
    assert capsys.readouterr().err == (
        "error: regime p1 gives p = nan at {'mu1': 0.0, 'L1': 1.0, 'mu2': 1e-313, "
        "'L2': 1.75e-313}, not a finite positive float: the declared curvatures "
        "are past what the regime and interpolation formulas can evaluate (about "
        "1e-154 to 1e154)\n")


_CORNER = ("3.6169710755399267", "3.616971075539927")   # mu an ulp below L1 = L2


@pytest.mark.parametrize("point, rows", [
    ((_CORNER[0], _CORNER[1], "0.25576811495125634", _CORNER[1]), "p1 and p7"),
    (("0.25576811495125634", _CORNER[1], _CORNER[0], _CORNER[1]), "p1 and p8"),
    (("-5042929069731.866", "5046133051817.695", "5046133051817.692",
      "5046133051817.694"), "p2 and p6"),
], ids=["mu1_at_the_corner", "mu2_at_the_corner", "mu2_at_the_corner_near_1e12"])
def test_corner_refusal_names_the_disagreeing_rows(capsys, point, rows):
    """An ulp from mu1 = L1 = L2 (or mu2 = L1 = L2) two matched rows give
    different coefficients: the refusal names both rows instead of blaming
    the range."""
    argv = ["classify"] + [a for flag, value in zip(("--mu1", "--L1", "--mu2", "--L2"),
                                                    point)
                           for a in (flag, value)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: regimes %s both match at " % rows), err
    assert "past what" not in err


def test_regime_map_p_past_the_float_range_exit_1(tmp_path, capsys):
    """Row p7's L2 * L2 overflows at L2 = 1e160, so p underflows to 0 at the
    node mu1 = 2e160: regime-map refuses the grid with the range message,
    naming the node and p, as classify refuses the point, and writes no CSV."""
    out = tmp_path / "map.csv"
    assert main(["regime-map", "--L1", "1e300", "--L2", "1e160", "--grid",
                 "0:2e160:3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: regime p7 gives p = 0.0 at {'mu1': 2e+160, "
                          "'L1': 1e+300, 'mu2': 0.0, 'L2': 1e+160}"), err
    assert err.endswith("formulas can evaluate (about 1e-154 to 1e154)\n"), err
    assert not out.exists()


_P_OVERFLOW = ["--mu1", "1e200", "--L1", "inf", "--mu2", "0", "--L2", "1e-100"]


@pytest.mark.parametrize("argv, label, p", [
    (["classify", "--mu1", "0", "--L1", "inf", "--mu2", "0", "--L2", "1.4e154"],
     "p17", "0.0"),
    (["classify", "--mu1", "0", "--L1", "1.4e154", "--mu2", "0", "--L2", "inf"],
     "p28", "0.0"),
    (["classify"] + _P_OVERFLOW, "p17", "inf"),
    (["classify", "--mu1", "0", "--L1", "1e-100", "--mu2", "1e200", "--L2", "inf"],
     "p28", "inf"),
    (["probe"] + _P_OVERFLOW + ["--budget", "40", "--starts", "2"], "p17", "inf"),
], ids=["classify_p17_0", "classify_p28_0", "classify_p17_inf",
        "classify_p28_inf", "probe_p17_inf"])
def test_p_past_the_float_range_exit_1(capsys, argv, label, p):
    """Row p7's (L2 + mu1) / (L2 * L2), and its mirror p8, overflow to 0 or
    inf at these points: classify raises OverflowError, and the CLI refuses
    the p with the range message instead of printing it (or a probe's
    certified bound of 0)."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: regime %s gives p = %s at {'mu1': "
                          % (label, p)), err
    assert err.endswith("formulas can evaluate (about 1e-154 to 1e154)\n"), err


@pytest.mark.parametrize("position", ["f1", "f2"])
def test_concave_kink_term_exit_1(tmp_path, capsys, position):
    """abs_quadratic with a < 0 has no finite lower curvature, whatever it
    declares: as f1 the run used to end in a bare AssertionError, as f2 it
    was certified against the false class (exit 2)."""
    quad = {"family": "quadratic", "c": [1], "b": [0], "mu": 1, "L": 1.5}
    kink = {"family": "abs_quadratic", "a": -1, "m": 2, "b": 0, "mu": 2,
            "L": "inf"}
    if position == "f2":
        quad = {"family": "quadratic", "c": [2], "b": [0], "mu": 1.5, "L": 2.5}
        kink = dict(kink, a=-2.5, m=1, mu=1)
    body = {"f1": kink, "f2": quad} if position == "f1" else {"f1": quad, "f2": kink}
    path = tmp_path / "kink.json"
    path.write_text(json.dumps(body))
    assert main(["run", "--instance", str(path), "--x0", "0", "--N", "3",
                 "--certify"]) == 1
    assert capsys.readouterr().err == (
        "error: %s: %s: declared mu=%r exceeds actual lower curvature -inf\n"
        % (path, position, float(kink["mu"])))


_NUM = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                 st.floats(allow_nan=False, allow_infinity=False))
_FAMILY = st.one_of(
    st.lists(st.tuples(_NUM, _NUM), min_size=1, max_size=2).map(
        lambda cb: {"family": "quadratic", "c": [c for c, _ in cb],
                    "b": [b for _, b in cb]}),
    st.lists(st.tuples(_NUM, _NUM, _NUM), min_size=1, max_size=3).map(
        lambda pieces: {"family": "max_quadratics", "pieces": pieces}),
    st.tuples(_NUM, _NUM, _NUM).map(
        lambda amb: dict(zip("amb", amb), family="abs_quadratic")))
# a declared class, or None for the one the coefficients suggest
_DECLARED = st.one_of(st.none(), st.tuples(_NUM, st.one_of(st.just("inf"), _NUM)))
_POLICY = st.one_of(st.sampled_from(["leftmost", "rightmost", "least_norm"]),
                    st.floats(0.0, 1.0).map(repr))


def _term(fam, declared):
    """The term's JSON; with declared None, mu is the smallest curvature
    coefficient and L is 1 above the largest, or inf at a possible kink."""
    if declared is None:
        if fam["family"] == "quadratic":
            declared = min(fam["c"]), max(fam["c"]) + 1.0
        elif fam["family"] == "max_quadratics":
            cs = [p[0] for p in fam["pieces"]]
            declared = min(cs), (cs[0] + 1.0 if len(cs) == 1 else "inf")
        else:
            declared = fam["m"], (fam["m"] + 1.0 if fam["a"] == 0.0 else "inf")
    return dict(fam, mu=declared[0], L=declared[1])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.tuples(_FAMILY, _DECLARED), st.tuples(_FAMILY, _DECLARED),
       st.one_of(st.none(), _NUM), st.lists(_NUM, min_size=1, max_size=2),
       _POLICY, st.integers(1, 6))
def test_run_certify_fuzzed_instance_keeps_exit_contract(
        tmp_path, capsys, t1, t2, fstar, x0, policy, N):
    """Any instance file ends in exit 0, 1 or 2, with `error: ` on 1, and
    never in an exception out of main."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps({"f1": _term(*t1), "f2": _term(*t2),
                                "Fstar": fstar}))
    capsys.readouterr()
    code = main(["run", "--instance", str(path), "--x0",
                 ",".join(map(repr, x0)), "--N", str(N), "--policy", policy,
                 "--certify"])
    assert code in (0, 1, 2)
    if code == 1:
        assert capsys.readouterr().err.startswith("error: ")


def _with_declared(instance_file, tmp_path, mu1):
    d = json.loads(open(instance_file).read())
    assert "declared" not in d
    d["declared"] = {"mu1": mu1, "L1": d["f1"]["L"],
                     "mu2": d["f2"]["mu"], "L2": d["f2"]["L"]}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_disagreeing_declared_block_exit_1(tmp_path, instance_file, capsys):
    old = _with_declared(instance_file, tmp_path, mu1=-0.4)   # f1.mu is 1.5
    assert main(["run", "--instance", old, "--x0", "1.0", "--N", "3",
                 "--certify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "disagrees" in err


def test_agreeing_declared_block_still_loads(tmp_path, instance_file, capsys):
    old = _with_declared(instance_file, tmp_path, mu1=1.5)
    argv = ["run", "--certify", "--x0", "1.0", "--N", "3", "--instance"]
    assert main(argv + [old]) == 0
    a = capsys.readouterr().out
    assert main(argv + [instance_file]) == 0
    assert capsys.readouterr().out == a


@pytest.mark.parametrize("argv", [
    ["run", "--instance", "inst.json", "--x0", "1.0"],
    ["classify", "--mu1", "x", "--L1", "2", "--mu2", "0", "--L2", "1"]])
def test_usage_error_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 1
    assert "error: " in capsys.readouterr().err


def test_run_certify_nonsmooth_matches_certify_traj(tmp_path, capsys):
    traj, run_rep, cert_rep = (tmp_path / n for n in ("traj.json", "run.json",
                                                      "cert.json"))
    assert main(["run", "--instance", _abs_instance(tmp_path), "--x0", "1.0",
                 "--N", "3", "--fstar", "-1", "--out", str(traj), "--certify",
                 "--report-out", str(run_rep)]) == 0
    assert main(["certify", "--traj", str(traj), "--fstar", "-1",
                 "--out", str(cert_rep)]) == 0
    assert cert_rep.read_bytes() == run_rep.read_bytes()
    rep = json.loads(run_rep.read_text())
    assert rep["mode"] == "nonsmooth" and "regime" not in rep


def test_both_nonsmooth_precondition_failure_exit_1(tmp_path, capsys):
    """Both terms nonsmooth with mu1 + mu2 < 0: run --certify, certify --traj
    and probe refuse with the one gate's message, and in probe the
    precondition is refused before a bad N or d."""
    f1 = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(0.5, INF))
    f2 = FunctionSpec(AbsPlusQuadratic(0.5, 0.5, 0.2), Curvature(-1.0, INF))
    inst, traj = tmp_path / "inst.json", tmp_path / "traj.json"
    inst.write_text(json.dumps(instance_to_json(make_instance(f1, f2))))
    assert main(["run", "--instance", str(inst), "--x0", "1.0", "--N", "3",
                 "--out", str(traj)]) == 0
    capsys.readouterr()
    params = ["--mu1", "0.5", "--L1", "inf", "--mu2=-1", "--L2", "inf"]
    for argv in (["run", "--instance", str(inst), "--x0", "1.0", "--N", "3",
                  "--fstar", "-1", "--certify"],
                 ["certify", "--traj", str(traj), "--fstar", "-1"],
                 ["probe"] + params + ["--budget", "40", "--starts", "2"],
                 ["probe"] + params + ["--N", "11", "--d", "4"]):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == ("error: decrease precondition needs mu1+mu2 > 0 or "
                       "mu1 = mu2 = 0 (got mu1=0.5, mu2=-1.0)\n"), argv


@pytest.mark.parametrize("spelling", ["inf", "INF", "Infinity"])
def test_infinity_spellings(tmp_path, capsys, spelling):
    out = tmp_path / "cls.json"
    assert main(["classify", "--mu1", "0.5", "--L1", spelling, "--mu2", "0",
                 "--L2", "1", "--out", str(out)]) == 0
    from_flag = json.loads(out.read_text())
    assert from_flag["params"]["L1"] == "inf"
    params = tmp_path / "params.json"
    for value in (spelling, INF):      # a string and a bare JSON Infinity
        params.write_text(json.dumps({"mu1": 0.5, "L1": value,
                                      "mu2": 0.0, "L2": 1.0}))
        assert main(["classify", "--params", str(params),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == from_flag
    inst = {"f1": {"family": "abs_quadratic", "a": 1.0, "m": 1.0, "b": 0.0,
                   "mu": 1.0, "L": spelling},
            "f2": {"family": "quadratic", "c": [0.5], "b": [0.3],
                   "mu": 0.5, "L": 0.75}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    assert main(["run", "--instance", str(path), "--x0", "1.0", "--N", "2",
                 "--certify", "--out", str(tmp_path / "traj.json")]) == 0
    traj = json.loads((tmp_path / "traj.json").read_text())
    assert traj["instance"]["f1"]["L"] == "inf"


@pytest.mark.parametrize("policy", ["bogus", "1.5", "-0.1", "nan", ""])
def test_bad_policy_is_usage_error(instance_file, capsys, policy):
    """Rejected when read, not only when an iterate lands on a kink: the
    quadratic instance never reaches one."""
    with pytest.raises(SystemExit) as e:
        main(["run", "--instance", instance_file, "--x0", "1", "--N", "4",
              "--policy", policy])
    assert e.value.code == 1
    err = capsys.readouterr().err
    # kink_policy's own message, which names the accepted values
    assert "--policy" in err and "least_norm" in err


@pytest.mark.parametrize("policy", ["leftmost", "rightmost", "least_norm",
                                    "0", "0.25", "1"])
def test_good_policy_accepted(instance_file, capsys, policy):
    assert main(["run", "--instance", instance_file, "--x0", "1", "--N", "4",
                 "--policy", policy]) == 0


def _run_to_file(tmp_path, instance, x0, *extra):
    traj = tmp_path / "traj.json"
    assert main(["run", "--instance", instance, "--x0", x0, "--N", "4",
                 "--out", str(traj), *extra]) == 0
    return traj


def _move_x1_to_minimizer(body):
    """Put x^1 at the minimizer x = 1 of F = x^2/2 - x and recompute every
    stored number from the instance; only the link g1^1 = g2^0 is broken."""
    inst = instance_from_json(body["instance"])
    p0, p1, p2 = body["points"][:3]
    x1 = np.array([1.0])
    a1, a2 = evaluate(inst.f1, x1), evaluate(inst.f2, x1)
    p1.update(x=x1.tolist(), f1=a1.value, f2=a2.value,
              F=a1.value - a2.value, g1=a1.subgradient.tolist(),
              g2=a2.subgradient.tolist(),
              G_norm_sq=float(np.sum((a1.subgradient - a2.subgradient) ** 2)))
    for p, q in ((p0, p1), (p1, p2)):
        x, xq = np.array(p["x"]), np.array(q["x"])
        p["T"] = p["f1"] - q["f1"] - float(np.array(q["g1"]) @ (x - xq))
        p["dx_norm_sq"] = float(np.sum((x - xq) ** 2))


@pytest.mark.parametrize("field", ["F_and_f1", "f2", "g1", "g2", "G_norm_sq",
                                   "T", "dx_norm_sq", "link"])
def test_certify_rejects_tampered_trajectory(tmp_path, instance_file, capsys,
                                             field):
    body = json.loads(_run_to_file(tmp_path, instance_file, "3.0").read_text())
    pts = body["points"]
    if field == "F_and_f1":      # a steeper, self-consistent decrease
        for k, p in enumerate(pts):
            p["F"] = -10.0 * k
            p["f1"] = p["f2"] + p["F"]
    elif field == "link":
        _move_x1_to_minimizer(body)
    elif field in ("g1", "g2"):
        pts[1][field] = [pts[1][field][0] + 1e-6]
    else:
        assert pts[0][field] != 0.0
        pts[0][field] *= 1.0 + 1e-9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["certify", "--traj", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: step " % bad)
    assert field.split("_")[-1] in err or field == "F_and_f1"


def _abs_instance(tmp_path):
    f1 = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(1.0, INF))
    f2 = FunctionSpec(AbsPlusQuadratic(0.5, 0.5, 0.2), Curvature(0.5, INF))
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(instance_to_json(make_instance(f1, f2))))
    return str(path)


def _quad2_instance(tmp_path):
    f1 = FunctionSpec(Quadratic((2.0, 3.0), (0.0, 1.0)), Curvature(1.5, 3.5))
    f2 = FunctionSpec(Quadratic((1.0, 0.5), (1.0, -1.0)), Curvature(0.25, 1.5))
    path = tmp_path / "quad2.json"
    path.write_text(json.dumps(instance_to_json(make_instance(f1, f2))))
    return str(path)


@pytest.mark.parametrize("case", ["quadratic", "quadratic_2d", "abs_rightmost"])
def test_certify_untampered_matches_run_certify(tmp_path, instance_file, case):
    if case == "quadratic":
        instance, x0, extra = instance_file, "1.0", []
    elif case == "quadratic_2d":
        instance, x0, extra = _quad2_instance(tmp_path), "1.0,-2.0", []
    else:      # starts on the kink of both terms
        instance, x0, extra = (_abs_instance(tmp_path), "0.0",
                               ["--policy", "rightmost", "--fstar", "-1"])
    run_rep = tmp_path / "run_report.json"
    cert_rep = tmp_path / "cert_report.json"
    traj = _run_to_file(tmp_path, instance, x0, "--certify", "--report-out",
                        str(run_rep), *extra)
    code = main(["certify", "--traj", str(traj), "--out", str(cert_rep),
                 *extra[2:]])
    assert code in (0, 2)
    assert cert_rep.read_bytes() == run_rep.read_bytes()


def test_certify_refuses_g2_off_the_gradient_in_euclidean_distance(tmp_path,
                                                                   capsys):
    """Both coordinates of the last point's g2 move by 0.8 pad: inside a
    per-coordinate box of half-width pad around the gradient, but 0.8 sqrt(2)
    pad from it.  The pad is LINK_TOL times the norm of |c*x| + |b|, the
    sizes of the terms the gradient sums.  The stored G_norm_sq is rewritten
    to match."""
    traj = _run_to_file(tmp_path, _quad2_instance(tmp_path), "1.0,-2.0")
    body = json.loads(traj.read_text())
    p = body["points"][-1]
    f2 = instance_from_json(body["instance"]).f2.family
    size = np.abs(np.array(f2.c) * np.array(p["x"])) + np.abs(np.array(f2.b))
    g1, g2 = np.array(p["g1"]), np.array(p["g2"])
    g2 = g2 + 0.8 * LINK_TOL * float(np.linalg.norm(size))
    p["g2"] = g2.tolist()
    p["G_norm_sq"] = float(np.sum((g1 - g2) ** 2))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["certify", "--traj", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: %s: step %d: g2 = " % (bad, p["k"]))


def test_cli_import_leaves_scipy_unloaded():
    """Neither the import nor a probe loads scipy: the probe's Nelder-Mead is
    the package's own."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("from dcrates.cli import main; main(['probe', '--mu1', '1', "
             "'--L1', '10', '--mu2', '-0.8', '--L2', '2', '--N', '2', "
             "'--d', '2', '--budget', '300', '--starts', '2'])")
    for code in ("import dcrates.cli", probe):
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; %s; print('scipy' in sys.modules)" % code],
            env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().splitlines()[-1] == "False", code


def _main_code(argv):
    """main's exit code, also when argparse exits with SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _command_argv(command, tmp_path, instance_file):
    """The required arguments of each subcommand, on small inputs."""
    if command == "certify":
        return ["--traj", str(_run_to_file(tmp_path, instance_file, "3.0"))]
    if command == "interp-check":
        path = tmp_path / "trips.json"
        spec = FunctionSpec(Quadratic((2.0,), (0.0,)), Curvature(1.5, 2.5))
        path.write_text(json.dumps(_triplets_json(spec, (-1.0, 0.0, 2.0))))
        return ["--triplets", str(path), "--L", "2.5"]
    return {
        "classify": ["--mu1", "1", "--L1", "2", "--L2", "1"],
        "regime-map": ["--L1", "2", "--grid", "-1:1:3",
                       "--out", str(tmp_path / "map.csv")],
        "run": ["--instance", instance_file, "--x0", "-3e0", "--N", "2",
                "--certify"],
        "probe": ["--mu1", "1", "--L1", "10", "--L2", "2", "--budget", "60",
                  "--starts", "2"],
        "trend": ["--mu1", "1", "--L1", "10", "--L2", "2", "--horizons", "1,2",
                  "--budget", "60", "--starts", "2"],
    }[command]


@pytest.mark.parametrize("command, flag, value", [
    ("classify", "--mu2", "-1e-5"),
    ("regime-map", "--L2", "-1e+0"),      # refused by the library, not argparse
    ("run", "--fstar", "-1e0"),
    ("certify", "--fstar", "-1e0"),
    ("interp-check", "--mu", "-1e-1"),
    ("probe", "--mu2", "-8e-1"),
    ("trend", "--mu2", "-8e-1")])
def test_negative_exponent_value_reads_as_a_value(tmp_path, instance_file,
                                                  capsys, command, flag, value):
    """'--flag -1e-5' reads as '--flag=-1e-5'.  argparse takes only
    '-<digits>' and '-<digits>.<digits>' for numbers, so it read the value
    as an option and exited 1 with 'expected one argument'."""
    argv = [command] + _command_argv(command, tmp_path, instance_file)
    capsys.readouterr()
    results = []
    for flag_value in ([flag, value], ["%s=%s" % (flag, value)]):
        code = _main_code(argv + flag_value)
        out, err = capsys.readouterr()
        # a probe reports its wall time
        results.append((code, [line for line in out.splitlines()
                               if "elapsed_s" not in line], err))
    assert results[0] == results[1]
    code, _, err = results[0]
    assert "expected one argument" not in err
    assert code == (1 if command == "regime-map" else 0), err


def test_non_numeric_value_with_a_leading_minus_needs_the_equals_form(
        tmp_path, monkeypatch, capsys):
    """Only a float form after the minus sign reads as a value: '--out -x.json'
    is a usage error (exit 1), and '--out=-x.json' writes the file."""
    monkeypatch.chdir(tmp_path)
    argv = ["classify", "--mu1", "0.5", "--L1", "2", "--mu2", "0", "--L2", "1"]
    assert _main_code(argv + ["--out", "-x.json"]) == 1
    assert "argument --out: expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "-x.json").exists()
    assert main(argv + ["--out=-x.json"]) == 0
    assert json.loads((tmp_path / "-x.json").read_text())["certificate"]["label"] == "p1"


_FLOAT_FLAGS = {
    "classify": ("--mu1", "--L1", "--mu2", "--L2"),
    "regime-map": ("--L1", "--L2"),
    "run": ("--tol", "--fstar", "--check-tol"),
    "certify": ("--fstar", "--check-tol"),
    "interp-check": ("--mu", "--L", "--tol"),
    "probe": ("--mu1", "--L1", "--mu2", "--L2"),
    "trend": ("--mu1", "--L1", "--mu2", "--L2"),
}
_FLOAT_TEXT = st.one_of(
    st.floats().map(repr), st.floats().map("{:e}".format),
    st.floats(-10.0, 10.0).map("{:g}".format),
    st.sampled_from(["inf", "-inf", "nan", "-", "--", "", "1e", "-e5",
                     "--mu1", "x"]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_float_flags_fuzzed_keep_exit_contract(tmp_path, instance_file, capsys,
                                               data):
    """Any text for any float flag, each flag given or not, ends in exit 0, 1
    or 2, with `error: ` first on standard error on 1, and never in an
    exception out of main."""
    command = data.draw(st.sampled_from(sorted(_FLOAT_FLAGS)))
    flags = data.draw(st.dictionaries(st.sampled_from(_FLOAT_FLAGS[command]),
                                      _FLOAT_TEXT))
    argv = [command] + [a for fv in flags.items() for a in fv]
    argv += _command_argv(command, tmp_path, instance_file)
    capsys.readouterr()
    code = _main_code(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert capsys.readouterr().err.startswith("error: ")


def _json_entries(node):
    """(container, key) of every dict entry and list item in a JSON body."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield node, key
        yield from _json_entries(value)


_TRAJ_VALUE = st.one_of(st.floats(), st.none(), st.just("1"), st.just([]),
                        st.integers(-3, 30))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["quadratic", "quadratic_2d", "abs"]), st.data())
def test_certify_fuzzed_trajectory_keeps_exit_contract(tmp_path, instance_file,
                                                       capsys, case, data):
    """A run's trajectory file with numbers changed, keys dropped or points
    reordered ends in exit 0, 1 or 2, with `error: ` first on standard error
    on 1, and never in an exception out of main."""
    instance, x0 = {"quadratic": (instance_file, "3.0"),
                    "quadratic_2d": (_quad2_instance(tmp_path), "1.0,-2.0"),
                    "abs": (_abs_instance(tmp_path), "0.5")}[case]
    body = json.loads(_run_to_file(tmp_path, instance, x0).read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["number", "drop", "swap"]))
        pts = body.get("points")
        if kind == "swap":
            if isinstance(pts, list) and pts:
                index = st.integers(0, len(pts) - 1)
                i, j = data.draw(index), data.draw(index)
                pts[i], pts[j] = pts[j], pts[i]
            continue
        entries = [(n, k) for n, k in _json_entries(body)
                   if (type(n[k]) in (int, float) if kind == "number"
                       else isinstance(n, dict))]
        if not entries:
            continue
        node, key = data.draw(st.sampled_from(entries))
        if kind == "number":
            node[key] = data.draw(_TRAJ_VALUE)
        else:
            del node[key]
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(body))
    capsys.readouterr()
    code = main(["certify", "--traj", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert capsys.readouterr().err.startswith("error: ")


def test_certify_names_the_file_of_an_infinite_step_index(tmp_path,
                                                          instance_file, capsys):
    """int(inf) raises OverflowError, an ArithmeticError: it read as declared
    curvatures past the formulas' range, without the file's name."""
    body = json.loads(_run_to_file(tmp_path, instance_file, "3.0").read_text())
    body["points"][0]["k"] = math.inf
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["certify", "--traj", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: %s: cannot convert float infinity to integer\n" % bad)


@pytest.mark.parametrize("ks", [[10, 11, 12, 13, 14], [10, 99, 12, 13, 14],
                                [0, 2, 1, 3, 4]])
def test_certify_refuses_a_step_index_that_is_not_its_position(
        tmp_path, instance_file, capsys, ks):
    """Point k is the k-th entry of the file.  A file's own numbering was
    taken as given, so one file named a tampered f1 at its third point
    step 12 and a bad g2 there step 2."""
    body = json.loads(_run_to_file(tmp_path, instance_file, "3.0").read_text())
    for p, k in zip(body["points"], ks):
        p["k"] = k
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["certify", "--traj", str(bad)]) == 1
    i = next(i for i, k in enumerate(ks) if k != i)
    assert capsys.readouterr().err == (
        "error: %s: point %d: k = %d, not its position\n" % (bad, i, ks[i]))


@pytest.mark.parametrize("i, k", [(2, 2.9), (2, "2"), (1, True), (2, -0.5)])
def test_certify_refuses_a_step_index_that_is_not_an_integer(
        tmp_path, instance_file, capsys, i, k):
    """k was read with int(), so 2.9 or "2" at the third point and true at
    the second passed as their position."""
    body = json.loads(_run_to_file(tmp_path, instance_file, "3.0").read_text())
    body["points"][i]["k"] = k
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["certify", "--traj", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: %s: point %d: k = %r, not its position\n" % (bad, i, k))


def test_certify_takes_a_step_index_written_as_a_whole_float(
        tmp_path, instance_file, capsys):
    path = _run_to_file(tmp_path, instance_file, "3.0")
    capsys.readouterr()
    assert main(["certify", "--traj", str(path)]) == 0
    want = capsys.readouterr()
    body = json.loads(path.read_text())
    for q in body["points"]:
        q["k"] = float(q["k"])
    path.write_text(json.dumps(body))
    assert main(["certify", "--traj", str(path)]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("key", ["T", "dx_norm_sq"])
def test_certify_refuses_a_step_measure_on_the_last_point(
        tmp_path, instance_file, capsys, key):
    """The last point starts no step; a number stored there was dropped
    without a check."""
    body = json.loads(_run_to_file(tmp_path, instance_file, "3.0").read_text())
    body["points"][-1][key] = 123.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["certify", "--traj", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: %s: point 4: the last point starts no step, so its T and "
        "dx_norm_sq must be null\n" % bad)


@pytest.mark.parametrize("reason", [{"not": "a reason"}, "converged", None])
def test_certify_refuses_an_unknown_stop_reason(tmp_path, instance_file,
                                                capsys, reason):
    """Any stop_reason was stringified, so a file certified with exit 0 and
    echoed it in the report."""
    body = json.loads(_run_to_file(tmp_path, instance_file, "3.0").read_text())
    body["stop_reason"] = reason
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["certify", "--traj", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: %s: stop_reason = %r, not one of max_iters, criticality_tol, "
        "subproblem_unbounded\n" % (bad, reason))


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--fstar", "nan"),
    ("run", "--fstar", "inf"),
    ("run", "--check-tol", "nan"),
    ("run", "--tol", "nan"),
    ("certify", "--fstar", "-inf"),
    ("run", "--check-tol", "inf"),
    ("interp-check", "--tol", "nan"),
    ("run", "--tol", "-1"),
    ("run", "--check-tol", "-1e-300"),
    ("certify", "--check-tol", "-1"),
    ("interp-check", "--tol", "-1"),
    ("interp-check", "--tol", "-1e-300")])
def test_non_finite_fstar_or_tolerance_is_usage_error(tmp_path, instance_file,
                                                      capsys, command, flag, value):
    """A NaN or infinite F*, or a tolerance that is not a finite number
    >= 0, is malformed input, exit 1 naming the flag; it read as a failed
    certificate (exit 2) or, for --tol, as a run that never stops early
    (exit 0)."""
    argv = [command] + _command_argv(command, tmp_path, instance_file)
    capsys.readouterr()
    assert _main_code(argv + [flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    expected = "a finite number" + (" >= 0" if "tol" in flag else "")
    assert "argument %s: expected %s, got %r" % (flag, expected, value) in err


@pytest.mark.parametrize("command, flag", [
    ("run", "--tol"), ("run", "--check-tol"), ("certify", "--check-tol"),
    ("interp-check", "--tol")])
def test_a_zero_tolerance_of_either_sign_is_accepted(tmp_path, instance_file,
                                                     capsys, command, flag):
    """-0.0 is a tolerance >= 0: it runs as 0 does, to the same exit code
    and, once the echoed tolerance's sign is set aside, the same output."""
    argv = [command] + _command_argv(command, tmp_path, instance_file)
    if command == "interp-check":
        argv += ["--mu", "1.5"]
    capsys.readouterr()
    runs = []
    for value in ("0", "-0.0"):
        code = _main_code(argv + [flag, value])
        runs.append((code, capsys.readouterr().out.replace("-0.0", "0.0")))
    assert runs[0] == runs[1]
    assert runs[0][0] != 1


@pytest.mark.parametrize("fstar", [math.nan, INF, -INF])
def test_instance_file_with_non_finite_fstar_is_refused(tmp_path, instance_file,
                                                        capsys, fstar):
    body = json.loads(Path(instance_file).read_text())
    body["Fstar"] = fstar
    with pytest.raises(ValueError, match="Fstar must be finite"):
        instance_from_json(body)
    path = tmp_path / "fstar.json"
    path.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["run", "--instance", str(path), "--x0", "3", "--N", "2",
                 "--certify"]) == 1
    assert capsys.readouterr().err == (
        "error: %s: Fstar must be finite, got %r\n" % (path, fstar))


_PARAMS_VALUE = st.one_of(
    st.floats(), st.integers(-10 ** 400, 10 ** 400), st.none(), st.booleans(),
    st.sampled_from(["1", "inf", "-inf", "nan", "x", "", [], [1.0], {}]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["classify", "probe", "trend"]),
       st.sampled_from(sorted(ANCHORS)), st.data())
def test_params_file_fuzzed_keeps_exit_contract(tmp_path, capsys, command,
                                                anchor, data):
    """A --params file with numbers changed, keys dropped, values of the
    wrong type or NaN/inf ends in exit 0 or 1, with `error: ` first on
    standard error on 1, and never in an exception out of main."""
    body = ANCHORS[anchor].to_json_dict()
    for _ in range(data.draw(st.integers(1, 2))):
        key = data.draw(st.sampled_from(["mu1", "L1", "mu2", "L2"]))
        kind = data.draw(st.sampled_from(["scale"] * 3 + ["value", "drop"]))
        if kind == "drop":
            body.pop(key, None)
        elif kind == "value":
            body[key] = data.draw(_PARAMS_VALUE)
        elif isinstance(body.get(key), float):
            body[key] *= data.draw(st.floats(-4.0, 4.0))
    if data.draw(st.integers(0, 19)) == 0:
        body = data.draw(st.sampled_from([[body], list(body), 1.0, None]))
    path = tmp_path / "params.json"
    path.write_text(json.dumps(body))
    argv = [command, "--params", str(path)]
    if command != "classify":
        argv += ["--budget", "40", "--starts", "2"]
    if command == "trend":
        argv += ["--horizons", "1,2"]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ")


def test_probe_finds_no_violation_where_L_is_far_below_mu(capsys):
    argv = ["probe", "--mu1", "2", "--L1", "4", "--mu2", "-1", "--L2", "1e-20",
            "--budget", "40", "--starts", "2"]
    assert main(argv) == 0
