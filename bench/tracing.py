"""Span tracing from outside the library.

The traced run replaces public functions at the module attribute their
callers look up (``dcrates.engine.evaluate`` is what ``run_dca`` calls), and
wraps the top-level calls the benchmark makes itself.  Each call records one
span ``(name, start, end, parent)`` in memory; a span's self time is its
duration minus the durations of its direct children.  Calls run on one
thread and nest strictly, so children never overlap.

A span name is ``<layer>.<operation>``; the layer is a module of the package.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name): library-internal call sites to wrap.
PATCHES = (
    ("dcrates.engine", "evaluate", "oracles.evaluate"),
    ("dcrates.engine", "solve_dca_subproblem", "oracles.subproblem"),
    ("dcrates.certificates", "pair_lower_bound", "interpolation.pair_lower_bound"),
    ("dcrates.certificates", "one_step_certificate", "regimes.classify"),
    ("dcrates.certificates", "validate", "curvature.validate"),
    ("dcrates.regimes", "grid_classify", "regimes.grid_classify"),
    ("dcrates.cli", "regime_map", "regimes.regime_map"),
    ("dcrates.probe", "minimize", "probe.minimize"),
    ("dcrates.probe", "check_interpolation", "interpolation.check"),
    ("dcrates.probe", "one_step_certificate", "regimes.classify"),
    ("dcrates.probe", "require_valid", "curvature.validate"),
)

# Counts recorded at a span boundary, from the call's arguments and result.
COUNTERS = {
    "interpolation.check": lambda args, res: {"interpolation.pairs":
                                              len(args[0]) * (len(args[0]) - 1)},
    "regimes.grid_classify": lambda args, res: {"regimes.grid_nodes":
                                                int(res[0].size)},
    "engine.run_dca": lambda args, res: {"engine.steps": res.n_steps},
    "probe.probe": lambda args, res: {"probe.evals": res.evals},
}


class Tracer:
    """In-memory span recorder with install/uninstall of the library patches."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._patches = []       # (module, attribute, original, traced)
        for modname, attr, name in PATCHES:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._patches.append((mod, attr, orig, self.wrap(orig, name)))

    def wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)     # reserved, so children get later indices
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                # a tuple of atoms, which the garbage collector stops tracking
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
            if counter is not None:
                counts.update(counter(args, res))
            return res
        return traced

    def install(self):
        for mod, attr, _, traced in self._patches:
            setattr(mod, attr, traced)

    def uninstall(self):
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    def summary(self, scale):
        """Per span name: call count, inclusive seconds and self seconds.

        ``scale[i]`` multiplies span i's duration (the speed normalization
        of the item it belongs to).
        """
        dur = [(t1 - t0) * s for (_, t0, t1, _), s in zip(self.spans, scale)]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent), d in zip(self.spans, dur):
            if parent >= 0:
                child[parent] += d
        calls = Counter()
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for (name, _, _, _), d, c in zip(self.spans, dur, child):
            calls[name] += 1
            inclusive[name] += d
            own[name] += d - c
        return calls, inclusive, own
