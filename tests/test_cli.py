import json
import math

import numpy as np
import pytest

from dcrates.cli import main
from dcrates.curvature import Curvature
from dcrates.interpolation import sample_triplets, triplets_to_json
from dcrates.oracles import (AbsPlusQuadratic, FunctionSpec, Quadratic,
                             instance_to_json, make_instance)

INF = math.inf


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


def test_classify_output(tmp_path, capsys):
    out = tmp_path / "cls.json"
    assert main(["classify", "--mu1", "0.5", "--L1", "2", "--mu2", "0",
                 "--L2", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "regime 1" in text
    d = json.loads(out.read_text())
    assert d["certificate"]["index"] == 1
    assert d["certificate"]["p"] == pytest.approx(5.0 / 3.0)
    assert "formula_revision" in d


def test_classify_invalid_params_exit_1(capsys):
    assert main(["classify", "--mu1", "1", "--L1", "1", "--mu2", "0",
                 "--L2", "1"]) == 1


def test_regime_map_csv(tmp_path, capsys):
    out = tmp_path / "map.csv"
    assert main(["regime-map", "--L1", "2", "--L2", "1",
                 "--grid", "-1:1.5:12", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "mu1,mu2,regime,p"
    assert len(lines) == 145


@pytest.mark.parametrize("grid", ["-1:2:0", "-1:2:-3", "2:-1:10", "-1:inf:10",
                                  "nan:1:10"])
def test_regime_map_rejects_bad_grid(tmp_path, capsys, grid):
    out = tmp_path / "map.csv"
    assert main(["regime-map", "--L1", "2", "--L2", "1", "--grid", grid,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_regime_map_rejects_nonpositive_L(tmp_path, capsys):
    assert main(["regime-map", "--L1", "-1", "--L2", "1", "--grid", "-1:2:5",
                 "--out", str(tmp_path / "map.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_classify_precondition_violated_exit_1(capsys):
    assert main(["classify", "--mu1", "0.5", "--L1", "2", "--mu2=-1",
                 "--L2", "1"]) == 1
    assert "error: " in capsys.readouterr().err


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


def test_run_csv_output(tmp_path, instance_file):
    csv_path = tmp_path / "traj.csv"
    assert main(["run", "--instance", instance_file, "--x0", "1.0",
                 "--N", "2", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,F,G_norm_sq,T,dx_norm_sq"
    assert len(lines) == 4


def test_interp_check_exit_codes(tmp_path, capsys):
    spec = FunctionSpec(Quadratic((2.0,), (0.0,)), Curvature(1.5, 2.5))
    trips = sample_triplets(spec, [np.array([t]) for t in (-1.0, 0.0, 1.0, 2.0)])
    path = tmp_path / "trips.json"
    path.write_text(json.dumps(triplets_to_json(trips)))
    assert main(["interp-check", "--triplets", str(path),
                 "--mu", "1.5", "--L", "2.5"]) == 0
    # under-declared smoothness must be flagged as infeasible
    assert main(["interp-check", "--triplets", str(path),
                 "--mu", "0", "--L", "1.0"]) == 2


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


def test_report_command(tmp_path, instance_file):
    out = tmp_path / "report.json"
    assert main(["report", "--instance", instance_file, "--x0", "1.0",
                 "--N", "3", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["certificates"]["holds"]
    assert d["regime"]["index"] >= 1


def test_missing_file_exit_1():
    assert main(["certify", "--traj", "/nonexistent/t.json"]) == 1
