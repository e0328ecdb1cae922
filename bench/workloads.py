"""The three workloads: seeded inputs, one closed-loop item, output checks.

Every input is generated from the workload seed before timing starts, so the
library only ever sees generated data.  Each ``*_item`` function runs one
item through the namespace ``make_api`` builds: span-recording wrappers in
the traced run, the plain functions otherwise.  It returns whether the
item's outputs passed their checks, plus observations the benchmark
aggregates (probe quality).
"""
from __future__ import annotations

import contextlib
import io
import math
from types import SimpleNamespace

import numpy as np

import dcrates.cli
from dcrates import (AbsPlusQuadratic, Curvature, FunctionSpec, InvalidParams,
                     Quadratic, analytic_infimum, asymptotic_constants,
                     certificate_report, check_interpolation, classify,
                     make_instance, make_params, make_triplet,
                     one_step_certificate, probe, replay_proof_combination,
                     run_dca, thresholds)
from dcrates.certificates import SLACK_TOL
from dcrates.regimes import NoRegime, PreconditionViolated

# Top-level calls the benchmark makes itself, with their span names.
TOP_LEVEL = {
    "analytic_infimum": (analytic_infimum, "oracles.infimum"),
    "run_dca": (run_dca, "engine.run_dca"),
    "certificate_report": (certificate_report, "certificates.report"),
    "replay_proof_combination": (replay_proof_combination, "certificates.replay"),
    "make_triplet": (make_triplet, "interpolation.make_triplet"),
    "check_interpolation": (check_interpolation, "interpolation.check"),
    "probe": (probe, "probe.probe"),
    "cli_main": (dcrates.cli.main, "cli.main"),
    "one_step_certificate": (one_step_certificate, "regimes.classify"),
    "thresholds": (thresholds, "regimes.thresholds"),
    "asymptotic_constants": (asymptotic_constants, "regimes.asymptotic"),
}


def make_api(tracer=None):
    """Namespace of top-level calls, span-wrapped when a tracer is given."""
    return SimpleNamespace(**{
        key: (fn if tracer is None else tracer.wrap(fn, name))
        for key, (fn, name) in TOP_LEVEL.items()})


def _with_swaps(anchors):
    out = {}
    for i, p in anchors.items():
        out[i] = p
        out[i + 1] = p.swapped()
    return out


# One point per odd regime, as in the acceptance tests; even regimes are the
# parameter swaps.
VERIFY_ANCHORS = _with_swaps({
    1: make_params(0.5, 2.0, 0.0, 1.0),
    3: make_params(2.0, 4.0, -1.0, 3.0),
    5: make_params(2.0, 10.0, -1.0, 1.5),
    7: make_params(3.0, 10.0, 0.5, 1.2),
})
# The probe uses the regime-5 point the asymptotic-trend criterion uses.
PROBE_ANCHORS = _with_swaps({
    1: make_params(0.5, 2.0, 0.0, 1.0),
    3: make_params(2.0, 4.0, -1.0, 3.0),
    5: make_params(1.0, 10.0, -0.8, 2.0),
    7: make_params(3.0, 10.0, 0.5, 1.2),
})


# ---------------------------------------------------------------------------
# verify: "certify my run"

VERIFY_N = 25
VERIFY_ROWS = 9          # regimes 1..8, then the both-nonsmooth row
VERIFY_POOL = 40 * VERIFY_ROWS


def _jitter_params(anchor, target_index, rng, scale=0.03, tries=200):
    # Same sampler as the acceptance tests' soundness sweep.
    for _ in range(tries):
        vals = []
        for v in (anchor.mu1, anchor.L1, anchor.mu2, anchor.L2):
            base = abs(v) if v != 0.0 else 0.5
            vals.append(v + rng.uniform(-scale, scale) * base)
        p = make_params(*vals)
        try:
            if classify(p).index == target_index:
                return p
        except (InvalidParams, PreconditionViolated, NoRegime):
            continue
    raise RuntimeError("could not sample regime %d near anchor" % target_index)


def _quad_instance_in(params, rng):
    d = int(rng.integers(1, 4))
    lo1 = max(params.mu1, 0.05 * params.L1)
    c1 = rng.uniform(lo1, params.L1, d)
    c2 = rng.uniform(params.mu2, params.L2, d)
    f1 = FunctionSpec(Quadratic(tuple(c1), tuple(rng.normal(size=d))),
                      Curvature(params.mu1, params.L1))
    f2 = FunctionSpec(Quadratic(tuple(c2), tuple(rng.normal(size=d))),
                      Curvature(params.mu2, params.L2))
    return make_instance(f1, f2)


def _nonsmooth_pair(rng, mu2_negative):
    # Abs-plus-quadratic pairs, as in the nonsmooth acceptance criterion.
    m1 = rng.uniform(0.5, 3.0)
    m2 = (-rng.uniform(0.05, 0.8) * m1 if mu2_negative
          else rng.uniform(0.0, 0.8) * m1)
    f1 = FunctionSpec(AbsPlusQuadratic(rng.uniform(0.0, 2.0), m1, rng.normal()),
                      Curvature(m1, math.inf))
    f2 = FunctionSpec(AbsPlusQuadratic(rng.uniform(0.0, 2.0), m2, rng.normal()),
                      Curvature(m2, math.inf))
    return make_instance(f1, f2)


def verify_inputs(seed):
    """(instance, x0) pairs cycling through the eight regimes and the
    both-nonsmooth row."""
    rng = np.random.default_rng(seed)
    items = []
    for k in range(VERIFY_POOL):
        row = k % VERIFY_ROWS + 1
        if row <= 8:
            params = _jitter_params(VERIFY_ANCHORS[row], row, rng)
            inst = _quad_instance_in(params, rng)
            x0 = rng.normal(size=inst.dimension)
        else:
            inst = _nonsmooth_pair(rng, mu2_negative=(k // VERIFY_ROWS) % 2 == 0)
            x0 = rng.normal(size=1) * 3.0
        items.append((inst, x0))
    return items


def verify_item(api, item):
    inst, x0 = item
    fstar = api.analytic_infimum(inst)
    traj = api.run_dca(inst, x0, VERIFY_N)
    report = api.certificate_report(traj, fstar=fstar)
    ok = bool(report["holds"])
    if report["mode"] == "smooth":
        for k in range(traj.n_steps):
            ok = ok and api.replay_proof_combination(traj, k) >= -SLACK_TOL
    pts = traj.points
    trip1 = [api.make_triplet(p.x, p.g1, p.f1) for p in pts]
    trip2 = [api.make_triplet(p.x, p.g2, p.f2) for p in pts]
    ok = ok and api.check_interpolation(trip1, inst.params.f1).feasible
    ok = ok and api.check_interpolation(trip2, inst.params.f2).feasible
    return ok, None


# ---------------------------------------------------------------------------
# probe: worst-case search at fixed settings

PROBE_BUDGET = 1200
PROBE_STARTS = 4
PROBE_SEED = 0
PROBE_NS = (1, 2, 4, 6)
PROBE_DS = (1, 2, 3)
SLOPE_REGIME, SLOPE_D = 5, 1


def probe_inputs(seed):
    """Every (regime, N, d) once, in a seeded order."""
    items = [(r, N, d) for r in range(1, 9) for N in PROBE_NS for d in PROBE_DS]
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


def probe_item(api, item):
    regime, N, d = item
    res = api.probe(PROBE_ANCHORS[regime], N=N, d=d, budget=PROBE_BUDGET,
                    seed=PROBE_SEED, starts=PROBE_STARTS)
    found = res.witness is not None
    ok = not res.certificate_violation and (
        not found or (res.feasibility[0].feasible and res.feasibility[1].feasible))
    ratio = res.best_ratio if found else 0.0
    return ok, {"item": item, "best_ratio": ratio, "witness": found,
                "quality": ratio / res.certified_bound}


def probe_slope_ratio(observations):
    """Least-squares slope of 1/best_ratio against N over the regime-5,
    d = 1 items that found a witness, divided by p5_inf."""
    pts = sorted({(o["item"][1], o["best_ratio"]) for o in observations
                  if o["item"][0] == SLOPE_REGIME and o["item"][2] == SLOPE_D
                  and o["witness"]})
    if len(pts) < 2:
        return math.nan
    Ns = np.array([n for n, _ in pts], dtype=float)
    inv = np.array([1.0 / r for _, r in pts])
    slope = np.polyfit(Ns, inv, 1)[0]
    return float(slope / asymptotic_constants(PROBE_ANCHORS[SLOPE_REGIME]).p5_inf)


# ---------------------------------------------------------------------------
# atlas: regime-map pages through the CLI, cross-checked against the scalar path

ATLAS_LO, ATLAS_HI, ATLAS_STEPS = -1.9871, 4.0137, 100   # off exact boundaries
ATLAS_GRID = "%r:%r:%d" % (ATLAS_LO, ATLAS_HI, ATLAS_STEPS)
ATLAS_NODES = 1000
ATLAS_INVALID_NODES = 200     # of ATLAS_NODES, outside the valid parameter set
ATLAS_PAGES = 40
ATLAS_L = (1.5, 6.0)           # L >= 1.5 leaves > 800 valid nodes


def atlas_inputs(seed):
    """(L1, L2, sampled nodes) pages; a node is (CSV row, params).

    The sample is stratified, a fixed count inside and outside the valid
    set (mu1 < L1, mu2 < L2, mu1 + mu2 > 0), so every page costs about the
    same whatever its (L1, L2).
    """
    rng = np.random.default_rng(seed)
    pts = np.linspace(ATLAS_LO, ATLAS_HI, ATLAS_STEPS)
    M1, M2 = (a.ravel() for a in np.meshgrid(pts, pts, indexing="ij"))
    pages = []
    for _ in range(ATLAS_PAGES):
        L1, L2 = (float(v) for v in rng.uniform(*ATLAS_L, 2))
        valid = (M1 < L1) & (M2 < L2) & (M1 + M2 > 0.0)
        rows = np.concatenate([
            rng.choice(np.flatnonzero(valid), ATLAS_NODES - ATLAS_INVALID_NODES,
                       replace=False),
            rng.choice(np.flatnonzero(~valid), ATLAS_INVALID_NODES,
                       replace=False)])
        nodes = [(int(r), make_params(float(M1[r]), L1, float(M2[r]), L2))
                 for r in rng.permutation(rows)]
        pages.append((L1, L2, nodes))
    return pages


def atlas_item(api, page, csv_path):
    L1, L2, nodes = page
    argv = ["regime-map", "--L1", repr(L1), "--L2", repr(L2),
            "--grid", ATLAS_GRID, "--out", str(csv_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = api.cli_main(argv)
    lines = csv_path.read_text().splitlines()
    ok = code == 0 and len(lines) == 1 + ATLAS_STEPS * ATLAS_STEPS
    for row, params in nodes:
        _, _, idx, p = lines[row + 1].split(",")
        try:
            cert = api.one_step_certificate(params)
        except (InvalidParams, PreconditionViolated):
            ok = ok and idx == "0"
            continue
        ok = (ok and int(idx) == cert.index
              and math.isclose(float(p), cert.p, rel_tol=1e-12))
        api.thresholds(params)
        api.asymptotic_constants(params)
    return ok, None
