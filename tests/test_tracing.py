"""The benchmark's tracer (bench/tracing.py) wraps library functions at the
module attributes their callers look up.  Building a Tracer resolves every
one of those names, so a refactor that drops one fails here and not only in
a traced benchmark run.  The tracer is only built, never installed."""
import importlib.util
from pathlib import Path


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_resolves_every_patched_name():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    assert len(tracer._patches) == len(tracing.PATCHES)
    for (mod, attr, orig, traced), (modname, name, _) in zip(tracer._patches,
                                                              tracing.PATCHES):
        assert mod.__name__ == modname and attr == name
        assert getattr(mod, attr) is orig and callable(orig)
