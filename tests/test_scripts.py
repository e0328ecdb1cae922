"""The scripts under scripts/ have no other test: each is loaded by path and
run once on a small input, so a library change that breaks one fails here."""
import importlib.util
import json
from pathlib import Path


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / (name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_soundness_sweep_runs(capsys):
    sweep = _load_script("soundness_sweep")
    assert sweep.main(["--per-regime", "2", "--steps", "3"]) == 0
    assert "instances: 16," in capsys.readouterr().out


def test_tightness_trend_runs(tmp_path, capsys):
    trend = _load_script("tightness_trend")
    out = tmp_path / "trend.json"
    assert trend.main(["--mu1", "1", "--L1", "10", "--mu2=-0.8", "--L2", "2",
                       "--horizons", "1,2", "--budget", "300", "--starts",
                       "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["horizons"] == [1, 2]
