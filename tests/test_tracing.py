"""The benchmark's tracer (bench/tracing.py) wraps library functions at the
module attributes their callers look up.  Building a Tracer resolves every
one of those names, so a refactor that drops one fails here and not only in
a traced benchmark run.  Running one item of each workload under the
installed tracer checks that the library still calls through every one of
those names."""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name,
                                                  BENCH / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_resolves_every_patched_name():
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    assert len(tracer._patches) == len(tracing.PATCHES)
    for (mod, attr, orig, traced), (modname, name, _) in zip(tracer._patches,
                                                              tracing.PATCHES):
        assert mod.__name__ == modname and attr == name
        assert getattr(mod, attr) is orig and callable(orig)


def test_traced_gate_names_are_the_one_gate():
    """The tracer wraps the gate at dcrates.certificates.validate and
    dcrates.probe.require_valid; both must be curvature.validate itself, so
    a curvature.validate span always means the one parameter gate."""
    curvature, certificates, probe = (importlib.import_module("dcrates." + m)
                                      for m in ("curvature", "certificates",
                                                "probe"))
    assert certificates.validate is curvature.validate
    assert probe.require_valid is curvature.validate


def test_tracer_sees_every_layer(tmp_path):
    tracing, W = _load("tracing"), _load("workloads")
    smooth = W.verify_inputs(1)[0]      # regime 1: two quadratics
    api = W.make_api()          # untraced: only the library's own calls record
    tracer = tracing.Tracer()
    tracer.install()
    try:
        oks = [W.verify_item(api, smooth)[0]]
        verify_calls = Counter(span[0] for span in tracer.spans)
        oks += [W.probe_item(api, W.probe_inputs(1)[0])[0],
                W.atlas_item(api, W.atlas_inputs(1)[0], tmp_path / "map.csv")[0]]
    finally:
        tracer.uninstall()
    assert oks == [True, True, True]
    # a run is classified once: the report, the 25 replays and the rate
    # check share one certificate
    assert verify_calls["regimes.classify"] == 1
    seen = {span[0] for span in tracer.spans}
    assert {name for _, _, name in tracing.PATCHES} <= seen
