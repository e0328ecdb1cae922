"""End-to-end acceptance checks.

Each test prints a single pass/fail line on the real stdout so the outcome
is visible even under pytest capture.  The asymptotic-trend check is
reported but does not gate the suite.
"""
import math
import sys

import numpy as np
import pytest

from dcrates.certificates import check_nonsmooth_rate, check_one_step, check_rate
from dcrates.curvature import Curvature, make_params
from dcrates.engine import Trajectory, run_dca
from dcrates.interpolation import check_interpolation
from dcrates.oracles import (AbsPlusQuadratic, FunctionSpec, MaxOfQuadratics,
                             Quadratic, analytic_infimum, evaluate,
                             make_instance)
from dcrates.probe import extremal_instance, probe, ratio_trend
from dcrates.regimes import asymptotic_constants, classify, grid_classify
from dcrates.sampling import ANCHORS, jitter_params, quad_instance_in

INF = math.inf


@pytest.fixture
def report(capfd):
    """Print a criterion status line on the real stdout, bypassing capture."""
    def _report(num, name, ok, extra=""):
        line = "criterion %d (%s): %s%s\n" % (num, name,
                                              "PASS" if ok else "FAIL",
                                              " " + extra if extra else "")
        with capfd.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    return _report


def test_criterion_1_convex_constant(report):
    rng = np.random.default_rng(101)
    ok = True
    worst = 0.0
    for _ in range(100):
        L1 = rng.uniform(0.05, 50.0)
        L2 = rng.uniform(0.05, 50.0)
        c = classify(make_params(0.0, L1, 0.0, L2))
        expect = 1.0 / L1 + 1.0 / L2
        rel = abs(c.p - expect) / expect
        worst = max(worst, rel)
        ok = ok and rel <= 1e-12
    report(1, "convex-case decrease constant", ok, "max rel err %.2e" % worst)
    assert ok


def test_criterion_2_partition_and_symmetry(report):
    pairs = [(2.0, 1.0), (4.0, 3.0), (1.0, 1.7), (5.0, 1.2), (3.0, 10.0)]
    swap_map = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 8, 8: 7}
    ok = True
    for L1, L2 in pairs:
        # irrational-ish endpoints keep grid nodes off regime boundaries
        m1 = np.linspace(-1.9871, 0.96 * L1 + 0.0137, 400)
        m2 = np.linspace(-1.9871, 0.96 * L2 + 0.0137, 400)
        M1, M2 = np.meshgrid(m1, m2, indexing="ij")
        M1, M2 = M1.ravel(), M2.ravel()
        idx, p, sig, sigp, nm = grid_classify(L1, L2, M1, M2)
        valid = idx > 0
        ok = ok and bool(np.all(nm[valid] == 1))
        jdx, q, tsig, tsigp, _ = grid_classify(L2, L1, M2, M1)
        both = valid & (jdx > 0)
        expect = np.vectorize(swap_map.get)(idx[both])
        # on exact ties (e.g. L1 == L2) both orientations resolve to the
        # lower index; the coefficient checks below still pin the values
        tie = jdx[both] == idx[both]
        ok = ok and bool(np.all((jdx[both] == expect) | tie))
        ok = ok and bool(np.all(np.abs(tsig[both] - sigp[both]) <= 1e-10))
        ok = ok and bool(np.all(np.abs(tsigp[both] - sig[both]) <= 1e-10))
        ok = ok and bool(np.all(np.abs(q[both] - p[both]) <= 1e-10))
    report(2, "regime partition uniqueness and swap symmetry", ok)
    assert ok


def test_criterion_3_soundness_sweep(report):
    rng = np.random.default_rng(303)
    per_regime = 1250
    failures = 0
    min_slack = math.inf
    for regime, anchor in ANCHORS.items():
        for _ in range(per_regime):
            params = jitter_params(anchor, regime, rng)
            inst = quad_instance_in(params, rng)
            x0 = rng.normal(size=inst.f1.dimension)
            traj = run_dca(inst, x0, 25)
            for k in range(traj.n_steps):
                chk = check_one_step(traj, k)
                min_slack = min(min_slack, chk.slack)
                if chk.slack < -1e-9:
                    failures += 1
            fs = analytic_infimum(inst)
            for N in (1, 5, 25):
                if N > traj.n_steps:
                    continue
                prefix = Trajectory(
                    traj.X[:N + 1], traj.G1[:N + 1], traj.G2[:N + 1],
                    traj.f1[:N + 1], traj.f2[:N + 1], traj.F[:N + 1],
                    traj.G_norm_sq[:N + 1], traj.T[:N], traj.dx_norm_sq[:N],
                    inst, traj.stop_reason)
                _, _, holds = check_rate(prefix, fstar=fs, tol=1e-9)
                if not holds:
                    failures += 1
    ok = failures == 0
    report(3, "certificate soundness on 10^4 quadratic instances", ok,
            "failures=%d min one-step slack %.2e" % (failures, min_slack))
    assert ok


def test_criterion_4_equality_witnesses(report):
    rng = np.random.default_rng(404)
    ok = True
    worst = 0.0
    for regime, anchor in ANCHORS.items():
        for _ in range(20):
            params = jitter_params(anchor, regime, rng, scale=0.25)
            cert = classify(params)
            w = extremal_instance(regime, params)
            gaps = np.sum((w.g1 - w.g2) ** 2, axis=1)
            bound = (cert.sigma * 0.5 * gaps[0]
                     + cert.sigma_plus * 0.5 * gaps[1])
            slack = abs(w.decrease() - bound)
            worst = max(worst, slack)
            ok = ok and slack <= 1e-7
            ok = ok and check_interpolation(list(zip(w.x, w.g1, w.f1)),
                                            params.f1, 1e-7).feasible
            ok = ok and check_interpolation(list(zip(w.x, w.g2, w.f2)),
                                            params.f2, 1e-7).feasible
    report(4, "one-step equality witnesses in all regimes", ok,
            "max |slack| %.2e" % worst)
    assert ok


def test_criterion_5_probe_consistency(report):
    ok = True
    notes = []
    for regime in (1, 2, 3, 4):
        d = 1 if regime <= 2 else 2
        r = probe(ANCHORS[regime], N=1, d=d, budget=200000, seed=0,
                  starts=32, warm=False)
        frac = r.best_ratio / r.certified_bound
        notes.append("r%d %.6f" % (regime, frac))
        ok = ok and frac >= 1.0 - 1e-3
        ok = ok and not r.certificate_violation
    r5 = probe(ANCHORS[5], N=3, d=2, budget=80000, seed=0, starts=16)
    cap = r5.certified_bound          # 1 / (3 p5)
    ok = ok and r5.best_ratio < cap
    notes.append("r5 N=3 ratio %.4f < %.4f" % (r5.best_ratio, cap))
    report(5, "worst-case probe recovers the one-step certificates", ok,
            "; ".join(notes))
    assert ok


def _nonsmooth_pair(rng, mu2_negative):
    m1 = rng.uniform(0.5, 3.0)
    m2 = -rng.uniform(0.05, 0.8) * m1 if mu2_negative \
        else rng.uniform(0.0, 0.8) * m1
    f1 = FunctionSpec(
        AbsPlusQuadratic(rng.uniform(0.0, 2.0), m1, rng.normal()),
        Curvature(m1, INF))
    f2 = FunctionSpec(
        AbsPlusQuadratic(rng.uniform(0.0, 2.0), m2, rng.normal()),
        Curvature(m2, INF))
    return make_instance(f1, f2)


def test_criterion_6_nonsmooth_suite(report):
    rng = np.random.default_rng(606)
    failures = 0
    for i in range(1000):
        inst = _nonsmooth_pair(rng, mu2_negative=(i % 2 == 0))
        fs = analytic_infimum(inst)
        assert fs is not None
        traj = run_dca(inst, rng.normal(size=1) * 3, 5)
        if traj.n_steps < 1:
            continue
        chk = check_nonsmooth_rate(traj, fstar=fs, tol=1e-9)
        if not chk.holds:
            failures += 1
        if inst.params.mu1 >= 0.0 or inst.params.mu2 >= 0.0:
            if any(pt.T < -1e-9 for pt in traj.points[:-1]):
                failures += 1
    ok = failures == 0
    report(6, "nonsmooth per-step and horizon bounds", ok,
            "failures=%d" % failures)
    assert ok


def _sampled(spec, xs):
    """(x, g, f) rows of spec at the points xs, from one stacked evaluate."""
    a = evaluate(spec, np.array(xs))
    return list(zip(xs, a.subgradient, a.value))


def test_criterion_7_interpolation_oracle(report):
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(10):
        d = int(rng.integers(1, 4))
        c = rng.uniform(-0.5, 3.0, d)
        mu, L = float(c.min()), float(c.max()) + 0.2
        spec = FunctionSpec(Quadratic(tuple(c), tuple(rng.normal(size=d))),
                            Curvature(mu, L))
        xs = [rng.normal(size=d) * 1.5 for _ in range(50)]
        ok = ok and check_interpolation(_sampled(spec, xs),
                                        spec.declared, 1e-9).feasible
    for _ in range(10):
        pieces = tuple((rng.uniform(0.2, 3.0), rng.normal(), rng.normal())
                       for _ in range(3))
        spec = FunctionSpec(MaxOfQuadratics(pieces),
                            Curvature(min(p[0] for p in pieces), INF))
        xs = [rng.normal(size=1) * 1.5 for _ in range(50)]
        ok = ok and check_interpolation(_sampled(spec, xs),
                                        spec.declared, 1e-9).feasible
    for _ in range(10):
        m = rng.uniform(-0.5, 2.0)
        spec = FunctionSpec(
            AbsPlusQuadratic(rng.uniform(0.1, 2.0), m, rng.normal()),
            Curvature(m, INF))
        xs = [rng.normal(size=1) * 1.5 for _ in range(50)]
        ok = ok and check_interpolation(_sampled(spec, xs),
                                        spec.declared, 1e-9).feasible

    # deliberately under-declared classes must be flagged
    xs = [np.array([t]) for t in np.linspace(-2.0, 2.0, 50)]
    tight_L = FunctionSpec(Quadratic((2.0,), (0.0,)), Curvature(0.0, 1.0))
    ok = ok and not check_interpolation(_sampled(tight_L, xs),
                                        tight_L.declared, 1e-9).feasible
    fake_mu = FunctionSpec(AbsPlusQuadratic(1.0, 0.5, 0.0),
                           Curvature(1.5, INF))
    ok = ok and not check_interpolation(_sampled(fake_mu, xs),
                                        fake_mu.declared, 1e-9).feasible
    report(7, "interpolation checker against exact oracles", ok)
    assert ok


def test_criterion_8_asymptotic_trend_soft(report):
    # Reported only: the desk-scale local search lower-bounds the true
    # worst-case ratios (their dimension grows with the horizon), so the
    # fitted slope overestimates the conjectured constant.
    params = make_params(1.0, 10.0, -0.8, 2.0)
    target = asymptotic_constants(params).p5_inf
    try:
        out = ratio_trend(params, Ns=(2, 4, 6, 8, 10), d=1,
                          budget=150000, seed=0, starts=16)
        a = out["a_fit"]
        rel = abs(a - target) / target
        report(8, "asymptotic slope trend (soft, non-gating)", rel <= 0.15,
                "fitted a=%.4f target %.4f rel err %.2f" % (a, target, rel))
    except Exception as exc:  # never gate the suite on the trend probe
        report(8, "asymptotic slope trend (soft, non-gating)", False,
                "probe error: %r" % exc)
