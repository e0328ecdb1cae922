"""dcrates benchmark: closed-loop workloads over the public API.

    python3 bench/run.py --workload verify --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --smoke

One process, one client, one item at a time, BLAS pinned to one thread.
``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` alternates traced and untraced items and prints the per-layer
metrics.  Times are reported at a fixed reference speed: a small reference
kernel runs between items, and each item's time is scaled by the kernel's
nominal time over its measured time, raised to a per-workload exponent (see
README.md for why).

The last line of standard output is the result object; the line before it
records the environment and run details.  ``--workload all`` runs
every workload in both modes as child processes, prints every metric with
its unit, and fails if a declared metric is missing or the layer shares do
not sum to 1.  Metric names and units come from BENCHMARK.json.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:          # before numpy is imported, here or in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

T_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "probe", "atlas")
LAYERS = ("curvature", "regimes", "oracles", "engine", "interpolation",
          "certificates", "probe", "cli", "setup")
SETUP_REPEATS = 5        # child processes timed for setup_s
REF_NOMINAL_S = 0.40e-3  # reference_time() on a quiet 2-vCPU x86-64 host
REF_RUNS_ITEM = 3        # reference runs between two items
REF_SPAN = 6             # kernel blocks averaged on each side of an item
REF_RUNS_SETUP = 100     # reference runs on each side of a setup
# How strongly each kind of work slows down with the reference kernel: the
# least-squares slope of log time on log kernel time (see README.md).
REF_EXPONENT = {"verify": 1.0, "probe": 0.93, "atlas": 0.78, "setup": 0.4}
TAIL_PCT = {"verify": 95, "probe": 75, "atlas": 75}
MAX_TRACEBACKS = 3


def fail(msg):
    print("bench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at %s" % path)
    return json.loads(path.read_text())


def import_library():
    """Import dcrates from this checkout's src/; returns seconds taken."""
    if not (SRC / "dcrates" / "__init__.py").is_file():
        fail("no dcrates sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dcrates
    import dcrates.cli  # noqa: F401
    took = time.perf_counter() - t0
    if Path(dcrates.__file__).resolve().parent != SRC / "dcrates":
        fail("imported dcrates from %s, not this checkout" % dcrates.__file__)
    sys.path.insert(1, str(BENCH_DIR))
    return took


# ---------------------------------------------------------------------------
# one workload in this process

def reference_time(runs):
    """Mean seconds per run of a fixed mix of interpreter work and small
    numpy calls.  It never touches dcrates, so a change to the library cannot
    move it; it tracks how fast the machine runs right now."""
    import numpy as np
    a = np.arange(16.0)
    t0 = time.perf_counter()
    for _ in range(runs):
        s = 0.0
        for i in range(150):
            b = a * 1.5 + i
            s += float(b @ a)
    return (time.perf_counter() - t0) / runs


def workload_setup(name, seed, smoke, tmpdir):
    """The item function, warm-up inputs and timed inputs of one workload."""
    import workloads as W
    if name == "verify":
        inputs = W.verify_inputs(seed)
        warm = inputs[:W.VERIFY_ROWS]
        return W.verify_item, warm, warm if smoke else inputs
    if name == "probe":
        inputs = W.probe_inputs(seed)
        if smoke:    # the slope items plus one more
            inputs = [x for x in inputs if x[0] == W.SLOPE_REGIME
                      and x[2] == W.SLOPE_D] + [inputs[0]]
        return W.probe_item, [(1, 1, 1)], inputs
    inputs = W.atlas_inputs(seed)
    item = functools.partial(W.atlas_item, csv_path=Path(tmpdir) / "map.csv")
    return item, inputs[:1], inputs[:2] if smoke else inputs


def guarded(item, api, x, log):
    try:
        return item(api, x)
    except Exception:
        log.append(traceback.format_exc())
        return False, None


def speed_factor(ref_s, kind):
    """Multiplier taking a time measured while the reference kernel took
    ``ref_s`` to reference speed, for work of the given kind."""
    return (REF_NOMINAL_S / ref_s) ** REF_EXPONENT[kind]


def timed_loop(kind, item, inputs, seconds, whole_passes, smoke, api, tracer,
               traced_api, log):
    """Closed loop over the inputs for ``seconds`` (whole passes if asked).

    The reference kernel runs before every item and after the last one.
    With a tracer, items alternate between traced and untraced, flipping the
    pattern on each pass so every input is seen both ways.
    """
    n = len(inputs)
    rec = {"wall": [], "refs": [reference_time(REF_RUNS_ITEM)], "traced": [],
           "obs": [], "failed": 0, "span_items": []}
    i = 0
    t_begin = time.perf_counter()
    while True:
        if smoke:
            if i >= n:
                break
        elif (time.perf_counter() - t_begin >= seconds
              and (not whole_passes or i % n == 0)):
            break
        x = inputs[i % n]
        traced = tracer is not None and (i + i // n) % 2 == 0
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        t0 = time.perf_counter()
        ok, obs = guarded(item, traced_api if traced else api, x, log)
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            rec["span_items"].extend([i] * (len(tracer.spans) - first_span))
        rec["refs"].append(reference_time(REF_RUNS_ITEM))
        rec["wall"].append(dt)
        rec["traced"].append(traced)
        if obs is not None:
            rec["obs"].append(obs)
        rec["failed"] += not ok
        i += 1
    rec["window_s"] = time.perf_counter() - t_begin
    refs = rec["refs"]
    # Each item's time at reference speed, from the kernel blocks around it.
    # The host switches speed faster than one item, so a single block would
    # misjudge it; the blocks around it give the local level.
    rec["times"] = [
        dt * speed_factor(statistics.fmean(refs[max(0, k + 1 - REF_SPAN):
                                                k + 1 + REF_SPAN]), kind)
        for k, dt in enumerate(rec["wall"])]
    # Totals use the whole run's kernel mean instead: per-item scaling errors
    # are large in both directions and would not cancel in a sum.
    rec["run_factor"] = speed_factor(statistics.fmean(refs), kind)
    return rec


def tail(values, pct):
    """Nearest-rank percentile and the number of samples above it."""
    xs = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def measure_setup(name, seed):
    """Median seconds, at reference speed, from spawning a fresh process to
    its first timed item; also the raw wall-clock samples.  The speed is the
    reference kernel's just before the spawn and just after the child's
    warm-up."""
    samples, raw = [], []
    for _ in range(SETUP_REPEATS):
        ref = reference_time(REF_RUNS_SETUP)
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            fail("setup child failed:\n" + out.stderr)
        child = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(child["ready"] - t0)
        samples.append(raw[-1] * speed_factor(0.5 * (ref + child["ref"]),
                                              "setup"))
    return statistics.median(samples), raw


def environment():
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "dcrates").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
    }


def end_to_end_metrics(name, rec, setup_s):
    import workloads as W
    times = rec["times"]
    tail_s, beyond = tail(times, TAIL_PCT[name])
    values = {
        "setup_s": setup_s,
        "items_per_s": len(times) / (sum(rec["wall"]) * rec["run_factor"]),
        "item_p50_ms": statistics.median(times) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # defined on the probe workload only; neutral 1 elsewhere
        "probe_quality": 1.0,
        "probe_slope_ratio": 1.0,
    }
    if name == "probe":
        values["probe_quality"] = statistics.fmean(o["quality"] for o in rec["obs"])
        values["probe_slope_ratio"] = W.probe_slope_ratio(rec["obs"])
    details = {"item_tail_ms": tail_s * 1e3,
               "tail_percentile": TAIL_PCT[name], "tail_samples_beyond": beyond,
               "wall_items_per_s": len(times) / rec["window_s"],
               "wall_item_p50_ms": statistics.median(rec["wall"]) * 1e3,
               "wall_item_tail_ms": tail(rec["wall"], TAIL_PCT[name])[0] * 1e3}
    return values, details


def per_layer_metrics(rec, tracer, setup_parts):
    times = rec["times"]
    calls, incl, own = tracer.summary([times[i] / rec["wall"][i]
                                       for i in rec["span_items"]])
    counts = tracer.counts
    traced = [t for t, on in zip(times, rec["traced"]) if on]
    n_traced = len(traced)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def per_call(span, scale):
        return per(incl[span], calls[span], scale)

    setup_wall = sum(setup_parts.values())
    wall = setup_wall + sum(traced)
    self_s = {layer: 0.0 for layer in LAYERS}
    for span, t in own.items():
        self_s[span.split(".", 1)[0]] += t
    self_s["setup"] = setup_wall
    wall_on = sum(w for w, on in zip(rec["wall"], rec["traced"]) if on)
    wall_off = sum(rec["wall"]) - wall_on
    traced_rate = per(n_traced, wall_on * rec["run_factor"])
    untraced_rate = per(len(times) - n_traced, wall_off * rec["run_factor"])
    obs = rec["obs"]
    values = {
        "regimes.classify_us": per_call("regimes.classify", 1e6),
        "regimes.calls": per(calls["regimes.classify"], n_traced),
        "regimes.grid_ns_per_node": per(incl["regimes.grid_classify"],
                                        counts["regimes.grid_nodes"], 1e9),
        "regimes.regime_map_self_ms": per(own["regimes.regime_map"],
                                          calls["regimes.regime_map"], 1e3),
        "cli.regime_map_self_ms": per(own["cli.main"], calls["cli.main"], 1e3),
        "oracles.evaluate_us": per_call("oracles.evaluate", 1e6),
        "oracles.evaluate_calls": per(calls["oracles.evaluate"], n_traced),
        "oracles.subproblem_us": per_call("oracles.subproblem", 1e6),
        "oracles.infimum_us": per_call("oracles.infimum", 1e6),
        "engine.run_dca_self_ms": per(own["engine.run_dca"],
                                      calls["engine.run_dca"], 1e3),
        "engine.us_per_step": per(own["engine.run_dca"],
                                  counts["engine.steps"], 1e6),
        "certificates.report_ms": per_call("certificates.report", 1e3),
        "certificates.replay_us": per_call("certificates.replay", 1e6),
        "interpolation.check_ms": per_call("interpolation.check", 1e3),
        "interpolation.us_per_pair": per(incl["interpolation.check"],
                                         counts["interpolation.pairs"], 1e6),
        "interpolation.calls": per(calls["interpolation.check"], n_traced),
        "probe.us_per_eval": per(incl["probe.probe"], counts["probe.evals"], 1e6),
        "probe.evals": per(counts["probe.evals"], calls["probe.probe"]),
        "probe.minimize_calls": per(calls["probe.minimize"], calls["probe.probe"]),
        "probe.minimize_share": per(incl["probe.minimize"], incl["probe.probe"]),
        "probe.witness_rate": per(sum(o["witness"] for o in obs), len(obs)),
        "setup.import_ms": setup_parts["import"] * 1e3,
        "setup.inputs_ms": setup_parts["inputs"] * 1e3,
        "setup.warmup_ms": setup_parts["warmup"] * 1e3,
        "trace.items_per_s_traced": traced_rate,
        "trace.items_per_s_untraced": untraced_rate,
        "trace.overhead_frac": 1.0 - per(traced_rate, untraced_rate),
    }
    for layer in LAYERS:
        values[layer + ".self_share"] = self_s[layer] / wall
    values["unattributed.self_share"] = 1.0 - sum(self_s.values()) / wall
    details = {"traced_items": n_traced, "untraced_items": len(times) - n_traced,
               "spans": len(tracer.spans), "wall_s": wall}
    return values, details


def run_workload(args, spec):
    import_s = import_library()
    import workloads as W
    from tracing import Tracer
    with tempfile.TemporaryDirectory(dir=str(ROOT), prefix=".bench_tmp-") as tmp:
        t0 = time.perf_counter()
        item, warm, timed = workload_setup(args.workload, args.seed,
                                           args.smoke, tmp)
        inputs_s = time.perf_counter() - t0
        api = W.make_api()
        log = []
        t0 = time.perf_counter()
        warm_failed = sum(not guarded(item, api, x, log)[0] for x in warm)
        warm_s = time.perf_counter() - t0
        ready = time.monotonic()
        other_s = time.perf_counter() - T_START - import_s - inputs_s - warm_s
        ref = reference_time(REF_RUNS_SETUP)
        if args.setup_only:
            print(json.dumps({"ready": ready, "ref": ref}))
            return 0
        factor = speed_factor(ref, "setup")
        setup_parts = {"import": import_s * factor, "inputs": inputs_s * factor,
                       "warmup": warm_s * factor, "other": other_s * factor}
        tracer = Tracer() if args.trace else None
        traced_api = W.make_api(tracer) if tracer else None
        # The pre-generated inputs are long-lived; keep the collector from
        # rescanning them during items, which no real caller would pay.
        gc.collect()
        gc.freeze()
        rec = timed_loop(args.workload, item, timed, args.seconds,
                         args.workload == "probe", args.smoke, api, tracer,
                         traced_api, log)
    for tb in log[:MAX_TRACEBACKS]:
        print(tb, file=sys.stderr)
    attempted = len(warm) + len(rec["times"])
    failed = warm_failed + rec["failed"]
    details = {"items": len(rec["times"]), "window_s": rec["window_s"],
               "warmup_items": len(warm), "failed_frac": failed / attempted,
               "reference_ms_mean": statistics.fmean(rec["refs"]) * 1e3}
    if args.trace:
        values, more = per_layer_metrics(rec, tracer, setup_parts)
        kind = "per_layer"
    else:
        setup_s, samples = measure_setup(args.workload, args.seed)
        values, more = end_to_end_metrics(args.workload, rec, setup_s)
        more["setup_samples_s"] = samples
        kind = "end_to_end"
    details.update(more)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "environment": environment(),
                      "details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# every workload, both modes

def run_all(args, spec):
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            out = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                                 text=True, timeout=600)
            if out.returncode != 0:
                print("%s trace=%d: exit %d\n%s" % (name, trace, out.returncode,
                                                     out.stderr))
                status = 1
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            kind = "per_layer" if trace else "end_to_end"
            declared = {m["name"] for m in spec[kind]}
            problems = []
            if set(res["metrics"]) != declared:
                problems.append("metric names differ from BENCHMARK.json: %s"
                                % sorted(set(res["metrics"]) ^ declared))
            if not res["correct"]:
                problems.append("%d of %d items failed"
                                % (res["failed"], res["attempted"]))
            if trace:
                shares = sum(v["value"] for k, v in res["metrics"].items()
                             if k.endswith(".self_share"))
                if abs(shares - 1.0) > 1e-9:
                    problems.append("self shares sum to %r" % shares)
            print("== %s, trace %d: %d attempted, %d failed"
                  % (name, trace, res["attempted"], res["failed"]))
            for key, m in res["metrics"].items():
                print("  %-32s %14.6g  %s" % (key, m["value"], m["unit"]))
            for p in problems:
                print("  PROBLEM: " + p)
                status = 1
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few items per workload instead of --seconds")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)   # used to time setup_s
    args = ap.parse_args(argv)
    # unwind on SIGTERM too, so the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
