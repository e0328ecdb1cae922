import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from dcrates.cli import main
from dcrates.curvature import make_params
from dcrates.interpolation import check_interpolation, make_triplet, pair_matrix_cm
from dcrates.probe import (CERT_ALLOWANCE, FEAS_TOL, InfeasibleConstruction,
                           PepVariables, _chain_start, _feasibility,
                           _Objective, _pack, _stretch, extremal_instance,
                           minimize, probe, ratio_trend)
from dcrates.regimes import asymptotic_constants, classify, equality_gammas

INF = math.inf

REGIME_POINTS = {
    1: make_params(0.5, 2.0, 0.0, 1.0),
    3: make_params(2.0, 4.0, -1.0, 3.0),
    5: make_params(2.0, 10.0, -1.0, 1.5),
    7: make_params(3.0, 10.0, 0.5, 1.2),
}


@pytest.mark.parametrize("idx", sorted(REGIME_POINTS))
def test_extremal_hits_bound_and_interpolates(idx):
    params = REGIME_POINTS[idx]
    cert = classify(params)
    assert cert.index == idx
    w = extremal_instance(idx, params)
    gaps = np.sum((w.g1 - w.g2) ** 2, axis=1)
    bound = cert.sigma * 0.5 * gaps[0] + cert.sigma_plus * 0.5 * gaps[1]
    assert w.decrease() == pytest.approx(bound, abs=1e-7)
    assert check_interpolation(list(zip(w.x, w.g1, w.f1)), params.f1,
                               1e-7).feasible
    assert check_interpolation(list(zip(w.x, w.g2, w.f2)), params.f2,
                               1e-7).feasible


def _explicit_even_gammas(index, params):
    """The even-regime equality rows written out, independently of the swap."""
    L1, L2, m1, m2 = params.L1, params.L2, params.mu1, params.mu2
    if index == 2:
        return [(L1, L1)]
    if index == 4:
        g4 = L2 + L1 * m1 * (L2 - m2) / (m2 * (L1 + m1))
        return [(m1, g4), (L1, g4)]
    if index == 6:
        return [(m1, m2)]
    return [(L1, m2)]


def _outcome(rows, index, params):
    try:
        return rows(index, params)
    except ZeroDivisionError:
        return "ZeroDivisionError"


# the benchmark's regime anchors (even ones are the swaps), the regime-5
# trend point, and one point each with L1 = inf and L2 = inf
PIN_POINTS = ([p for q in REGIME_POINTS.values() for p in (q, q.swapped())]
              + [make_params(1.0, 10.0, -0.8, 2.0), make_params(-0.8, 2.0, 1.0, 10.0),
                 make_params(1.0, INF, -0.5, 2.0), make_params(-0.5, 2.0, 1.0, INF)])


@pytest.mark.parametrize("idx", sorted(REGIME_POINTS))
def test_extremal_mirror_regime(idx):
    params = REGIME_POINTS[idx].swapped()
    w = extremal_instance(idx + 1, params)
    ref = extremal_instance(idx, REGIME_POINTS[idx])
    assert w.decrease() == pytest.approx(ref.decrease(), rel=1e-10)
    for p in PIN_POINTS:
        got, want = (_outcome(f, idx + 1, p)
                     for f in (equality_gammas, _explicit_even_gammas))
        # exact; NaN (inf/inf in the regime-4 row) equals itself, and a zero
        # denominator (mu = 0 in the regime-4 row) must raise in both
        assert got == want or np.array_equal(got, want, equal_nan=True), (idx + 1, p)


def test_extremal_zero_denominator_is_infeasible():
    # the regime-4 row divides by mu2, which is 0 at the regime-1 anchor
    with pytest.raises(InfeasibleConstruction, match="zero denominator"):
        extremal_instance(4, REGIME_POINTS[1])


def test_equality_gammas_rejects_unknown_regime():
    for index in (0, 9):
        with pytest.raises(ValueError):
            equality_gammas(index, REGIME_POINTS[1])


def test_probe_deterministic():
    params = REGIME_POINTS[1]
    a = probe(params, N=1, d=1, budget=3000, seed=7, starts=4)
    b = probe(params, N=1, d=1, budget=3000, seed=7, starts=4)
    assert a.best_ratio == b.best_ratio
    assert a.evals == b.evals
    assert a.best_start == b.best_start
    c = probe(params, N=1, d=1, budget=3000, seed=8, starts=4)
    assert c.best_ratio == pytest.approx(a.best_ratio, rel=0.2)


def _zero_witness(N, d):
    return PepVariables(np.zeros((N + 1, d)), np.zeros((N + 2, d)),
                        np.zeros(N + 1), np.zeros(N + 1))


def test_probe_warm_start_recovers_one_step_bound():
    params = REGIME_POINTS[1]
    r = probe(params, N=1, d=1, budget=20000, seed=0, starts=8, warm=True)
    assert r.best_ratio <= r.certified_bound + 1e-6
    assert r.best_ratio >= (1.0 - 1e-6) * r.certified_bound
    assert not r.certificate_violation
    assert r.witness is not None
    rep1, rep2 = r.feasibility
    assert rep1.feasible and rep2.feasible
    # starts are: chain, extremal, then six random ones; the chain wins
    assert r.best_start == (0, "chain")
    assert r.elapsed_s > 0.0
    init = probe(params, N=1, d=1, budget=2000, seed=0, starts=3,
                 init=_zero_witness(1, 1))
    assert init.best_start in ((0, "init"), (1, "chain"), (2, "extremal"))
    cold = probe(params, N=1, d=1, budget=2000, seed=0, starts=3, warm=False)
    assert cold.best_start[0] in (0, 1, 2) and cold.best_start[1] == "random"


def test_probe_never_exceeds_certificate():
    rng = np.random.default_rng(2)
    for params in REGIME_POINTS.values():
        r = probe(params, N=1, d=1, budget=8000,
                  seed=int(rng.integers(100)), starts=4)
        assert r.best_ratio <= r.certified_bound + 1e-6
        assert not r.certificate_violation


def test_budget_exhausted_counts_the_polish_loop():
    # the start loop ends under budget here, and the polish loop spends the rest
    r = probe(REGIME_POINTS[1], N=2, d=1, budget=2000, seed=0, starts=3)
    assert r.evals >= 2000 and r.budget_exhausted
    for budget, starts in ((3000, 4), (100, 2), (5, 2)):
        r = probe(REGIME_POINTS[1], N=1, d=1, budget=budget, seed=7,
                  starts=starts)
        assert r.budget_exhausted == (r.evals >= budget)
    assert not r.budget_exhausted     # 5 evals leave no Nelder-Mead chunk


def test_ratio_within_allowance_above_bound_is_no_violation():
    """The witness is feasible within FEAS_TOL, so its ratio may exceed the
    certified bound by rounding; only more than CERT_ALLOWANCE is a violation."""
    r = probe(make_params(1.0, 10.0, -0.5, INF), N=1, d=1, budget=20000,
              seed=0, starts=8)
    assert r.gap == r.certified_bound - r.best_ratio
    assert r.gap < 0.0 and -r.gap <= CERT_ALLOWANCE
    assert not r.certificate_violation
    assert r.feasibility[0].feasible and r.feasibility[1].feasible


def test_probe_rejects_large_problems():
    with pytest.raises(ValueError):
        probe(REGIME_POINTS[1], N=11)
    with pytest.raises(ValueError):
        probe(REGIME_POINTS[1], d=4)


def test_probe_rejects_init_of_a_higher_dimension():
    with pytest.raises(ValueError, match="init has dimension 2, more than d = 1"):
        probe(REGIME_POINTS[1], N=2, d=1, budget=100, starts=2,
              init=_zero_witness(2, 2))


def test_ratio_trend_shape():
    out = ratio_trend(make_params(1.0, 10.0, -0.8, 2.0), Ns=(1, 2),
                      d=1, budget=4000, starts=4)
    assert set(out) >= {"a_fit", "b_fit", "results", "asymptotic"}
    assert set(out["results"]) == {1, 2}
    assert out["a_fit"] > 0.0
    assert out["asymptotic"] is not None


# The benchmark's probe anchors: as above, but regime 5 (and its swap 6) at
# the point of the asymptotic-trend criterion.
ANCHORS = {i + k: p.swapped() if k else p
           for i, p in {**REGIME_POINTS,
                        5: make_params(1.0, 10.0, -0.8, 2.0)}.items()
           for k in (0, 1)}


def _reference_parts(params, N, d, z):
    """(num, D, cyc) from one pair matrix per class and a plain
    Floyd-Warshall on each, with g1 = (g1^0, g2^0, ..., g2^{N-1})."""
    n = N + 1
    x = z[:n * d].reshape(n, d)
    g2 = z[(n + 1) * d:].reshape(n, d)
    g1 = np.vstack([z[n * d:(n + 1) * d], g2[:-1]])
    dist = []
    for g, cls in ((g1, params.f1), (g2, params.f2)):
        c = pair_matrix_cm(x.T, g.T, cls)
        for k in range(n):
            c = np.maximum(c, c[:, [k]] + c[[k], :])
        dist.append(c)
    num = 0.5 * float(np.min(np.sum((g1 - g2) ** 2, axis=1)))
    D = float(dist[0][0, -1] + dist[1][-1, 0])
    cyc = max(float(np.max(np.diag(dist[0]))), float(np.max(np.diag(dist[1]))))
    return num, D, cyc


@pytest.mark.parametrize("params", list(ANCHORS.values())
                         + [make_params(1.0, INF, -0.5, 2.0),
                            make_params(1.0, 10.0, -0.5, INF)],
                         ids=["r%d" % i for i in ANCHORS] + ["L1inf", "L2inf"])
def test_stacked_objective_matches_per_class_reference(params):
    """The stacked evaluation is bit-identical to evaluating each class on
    its own, on random points of the probe's start scales."""
    rng = np.random.default_rng(11)
    for N in (1, 2, 4, 6):
        for d in (1, 2, 3):
            obj = _Objective(params, N, d)
            for _ in range(12):
                z = rng.normal(size=(2 * N + 3) * d) * 10.0 ** rng.uniform(-1, 1)
                assert obj.parts(z)[:3] == _reference_parts(params, N, d, z)


@pytest.mark.parametrize("params", list(ANCHORS.values())
                         + [make_params(1.0, INF, -0.5, 2.0),
                            make_params(1.0, 10.0, -0.5, INF)],
                         ids=["r%d" % i for i in ANCHORS] + ["L1inf", "L2inf"])
def test_stack_of_points_matches_one_at_a_time(params):
    """An (m, nz) stack gives, bit for bit, the parts and merits of its m
    rows evaluated one at a time, and counts m evaluations."""
    rng = np.random.default_rng(11)
    for N in (1, 2, 4, 6):
        for d in (1, 2, 3):
            nz = (2 * N + 3) * d
            obj = _Objective(params, N, d)
            for m in (1, 4, nz + 1):
                Z = rng.normal(size=(m, nz)) * 10.0 ** rng.uniform(-1, 1, (m, 1))
                rows = [obj.parts(z) for z in Z]
                stacked = obj.parts(Z)
                for k in range(3):
                    assert np.array_equal(stacked[k], [r[k] for r in rows])
                singles = [obj.merit(z[None]) for z in Z]
                before = obj.evals
                assert obj.merit(Z) == [v for (v,) in singles]
                assert obj.evals == before + m


def _same_as_scipy(fun, stacked, x0, maxfev):
    """minimize(stacked) and scipy on fun agree on the bytes of x and of the
    final simplex and its values, and on the evaluation count."""
    from scipy import optimize      # the test extra's reference
    res = optimize.minimize(fun, x0, method="Nelder-Mead",
                            options={"adaptive": True, "xatol": 1e-13,
                                     "fatol": 1e-15, "maxfev": maxfev})
    ours, = minimize(stacked, x0[None], [maxfev])
    return ([a.tobytes() for a in (ours.x, ours.sim, ours.fsim)] + [ours.nfev]
            == [a.tobytes() for a in (res.x, *res.final_simplex)] + [res.nfev])


@pytest.mark.parametrize("N", (1, 2, 4, 6))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_minimize_is_scipy_nelder_mead_on_the_merit(N, d):
    """The in-house Nelder-Mead returns scipy's x, byte for byte, and its
    evaluation count, on the probe's merit from seeded starts, with budgets
    that cut the initial simplex, fall mid-search and run to the probe's
    chunk size and past it."""
    nz = (2 * N + 3) * d
    params = ANCHORS[5]
    rng = np.random.default_rng(100 * N + d)
    for maxfev in (nz // 2 + 1, nz + 3, 75, 300):
        z0 = rng.normal(size=nz) * 10.0 ** rng.uniform(-1, 1)
        ours, theirs = _Objective(params, N, d), _Objective(params, N, d)
        assert _same_as_scipy(lambda z: theirs.merit(z[None])[0], ours.merit,
                              z0, maxfev)
        assert ours.evals == theirs.evals <= maxfev


def _staircase(z):
    """Piecewise constant: contractions onto a plateau fail, so Nelder-Mead
    shrinks often."""
    return float(np.sum(np.floor(4.0 * z) ** 2))


def _kinked_staircase(z):
    return _staircase(z) + abs(float(z[0]))


def _stacked(fun, sizes):
    """fun over a stack of points, recording the stack sizes."""
    def stacked(Z):
        sizes.append(len(Z))
        return [fun(z) for z in Z]
    return stacked


@pytest.mark.parametrize("n", (2, 3))
def test_minimize_is_scipy_nelder_mead_at_every_budget(n):
    """Runs to their own stop, and every maxfev over the first 150
    evaluations: so the initial simplex is cut, and each expansion,
    contraction and shrink there is refused or cut part-way (scipy shrinks
    the first row it may not evaluate) at some budget."""
    x0 = np.random.default_rng(0).normal(size=n)
    for fun in (_staircase, _kinked_staircase):
        sizes = []
        assert _same_as_scipy(fun, _stacked(fun, sizes), x0, 10 ** 4)
        assert sum(sizes) < 10 ** 4         # it stopped on its own
    sizes = []
    stacked = _stacked(_staircase, sizes)
    assert _same_as_scipy(_staircase, stacked, x0, 150)
    assert sizes[0] == n + 1 and sizes[1:].count(n) >= 5    # shrinks
    assert all(_same_as_scipy(_staircase, stacked, x0, maxfev)
               for maxfev in range(1, 150))


def test_minimize_keeps_scipy_order_among_tied_values():
    """Over 16 vertices numpy's default sort is not stable, and the
    staircase ties many values, so the vertex order follows scipy's only
    through the same sorts."""
    x0 = np.random.default_rng(0).normal(size=20)
    stacked = _stacked(_kinked_staircase, [])
    assert all(_same_as_scipy(_kinked_staircase, stacked, x0, maxfev)
               for maxfev in (10, 21, 22, 40, 200))


def _result_bytes(res):
    return [a.tobytes() for a in (res.x, res.sim, res.fsim)] + [res.nfev]


def _counted(fun, calls):
    def counted(Z):
        calls.append(len(Z))
        return fun(Z)
    return counted


@pytest.mark.parametrize("fun", (_staircase, _kinked_staircase))
def test_lockstep_minimize_gives_each_rows_own_run(fun):
    """A (k, n) stack with one maxfev per row gives each row the x, simplex,
    values and evaluation count of its own run, byte for byte, in fewer
    calls: caps that cut the initial simplex, fall mid-search, and one so
    large that its row stops on its own tolerance."""
    n = 3
    X0 = np.random.default_rng(0).normal(size=(6, n))
    caps = [0, 2, n + 2, 40, 150, 10 ** 4]
    single_calls, calls = [], []
    singles = [minimize(_stacked(fun, single_calls), x0[None], [m])[0]
               for x0, m in zip(X0, caps)]
    assert singles[-1].nfev < caps[-1]     # it stopped on its own
    together = minimize(_stacked(fun, calls), X0, caps)
    assert [_result_bytes(r) for r in together] == [_result_bytes(r)
                                                    for r in singles]
    assert sum(calls) == sum(single_calls)
    assert len(calls) < len(single_calls)


@pytest.mark.parametrize("N,d", ((1, 1), (2, 2), (4, 3)))
def test_lockstep_minimize_on_the_merit(N, d):
    """The same on the probe's merit from seeded starts of the probe's
    scales, which evaluates a stack as one broadcast pass."""
    nz = (2 * N + 3) * d
    rng = np.random.default_rng(100 * N + d)
    Z0 = rng.normal(size=(4, nz)) * 10.0 ** rng.uniform(-1, 1, (4, 1))
    caps = [nz // 2 + 1, nz + 3, 75, 300]
    ours, theirs = _Objective(ANCHORS[5], N, d), _Objective(ANCHORS[5], N, d)
    single_calls, calls = [], []
    singles = [minimize(_counted(theirs.merit, single_calls), z[None], [m])[0]
               for z, m in zip(Z0, caps)]
    together = minimize(_counted(ours.merit, calls), Z0, caps)
    assert [_result_bytes(r) for r in together] == [_result_bytes(r)
                                                    for r in singles]
    assert ours.evals == theirs.evals == sum(calls)
    assert len(calls) < len(single_calls)


def _start_major(params, N, d, budget, seed, starts, warm=True, init=None):
    """The probe's search with every chunk of every start in its own
    minimize call, start by start: the reference for probe's lockstep
    schedule.  Each chunk's cap is what the budget leaves after every
    earlier chunk's cap and ratio evaluation (its planned spend), so
    evaluations a chunk leaves unspent go to the polish loop only.  Returns
    (best_ratio, evals, best_start, witness) as probe reports them, and what
    the run did: starts entered, the caps of the start loop's chunks, chunks
    that stopped short of their cap, polish rounds."""
    cert = classify(params)
    obj = _Objective(params, N, d)
    rng = np.random.default_rng(seed)
    nz = (2 * N + 3) * d
    inits = [] if init is None else [(_stretch(init, N, d), "init")]
    if warm:
        gamma = equality_gammas(cert.index, params)[0][0]
        if math.isfinite(gamma):
            inits.append((_chain_start(gamma, N, d), "chain"))
        try:
            inits.append((_stretch(extremal_instance(cert.index, params), N, d),
                          "extremal"))
        except InfeasibleConstruction:
            pass
    while len(inits) < starts:
        z = rng.normal(size=nz)
        inits.append((10.0 ** rng.uniform(-1, 1) * z, "random"))
    restarts = 4
    per_chunk = max(0, budget // (max(1, len(inits)) * restarts))
    did = {"entered": 0, "caps": [], "short": 0, "polish": 0}
    planned = 0

    def search(z, spent):
        cap = min(per_chunk, budget - spent)
        res, = minimize(obj.merit, z[None], [cap])
        did["short"] += res.nfev < cap
        if not did["polish"]:
            did["caps"].append(cap)
        return res.x, cap

    best = (-math.inf, -1, None)
    for idx, (z, _) in enumerate(inits):
        did["entered"] += 1
        planned += 1
        best = max(best, (obj.ratio(z[None])[0], idx, z), key=lambda b: b[0])
        for _ in range(restarts):
            if per_chunk == 0 or planned >= budget:
                break
            z, cap = search(z, planned)
            planned += cap
        planned += 1
        best = max(best, (obj.ratio(z[None])[0], idx, z), key=lambda b: b[0])
        if planned >= budget:
            break
    while best[2] is not None and obj.evals < budget and per_chunk > 0:
        did["polish"] += 1
        z, _ = search(best[2], obj.evals)
        r, = obj.ratio(z[None])
        if r <= best[0]:
            break
        best = (r, best[1], z)
    ratio = max(best[0], 0.0)
    w = obj.witness(best[2]) if best[2] is not None else None
    if w is not None and not all(
            check_interpolation(list(zip(w.x, g, f)), cls, FEAS_TOL).feasible
            for g, f, cls in ((w.g1, w.f1, params.f1),
                              (w.g2, w.f2, params.f2))):
        w, ratio = None, 0.0
    start = None if best[2] is None else (best[1], inits[best[1]][1])
    return (ratio.hex(), obj.evals, start, _witness_bytes(w)), did


def _witness_bytes(w):
    return None if w is None else [a.tobytes() for a in (w.x, w.W, w.f1, w.f2)]


# (regime, N, d, budget, starts, options), and what the start-major run must
# do there
SCHEDULES = {
    "bench": ((3, 2, 2, 1200, 4, {}), {"caps": [75] * 15 + [68]}),
    # the last chunk ends exactly at the budget, with the last start's
    # final ratio still to come
    "exact_fill": ((3, 2, 2, 1207, 4, {}), {"entered": 4,
                                            "caps": [75] * 16}),
    "cut_mid_start": ((5, 1, 1, 34, 4, {}), {"caps": [2] * 13 + [1]}),
    "start_skipped": ((1, 1, 1, 70, 8, {}), {"entered": 7}),
    "no_chunk": ((1, 1, 1, 5, 2, {}), {"entered": 2, "caps": []}),
    "polish": ((1, 2, 1, 2000, 3, {}), {"polish": 1}),
    "init": ((1, 1, 1, 2000, 3, {"init": _zero_witness(1, 1)}),
             {"entered": 3}),
    "cold": ((1, 1, 1, 2000, 3, {"warm": False}), {"entered": 3}),
    "stops_short": ((1, 1, 1, 20000, 4, {}), {"short": 12}),
    # chunks stop short, and the last chunk is still cut to its planned cap
    "short_then_cut": ((5, 1, 1, 12200, 0, {}), {"short": 4,
                                                 "caps": [1525] * 7 + [1522]}),
}


@pytest.mark.parametrize("case", sorted(SCHEDULES))
def test_probe_matches_the_start_major_reference(case):
    """probe's lockstep rounds give the start-by-start run's best_ratio,
    evals, best_start and witness bytes, also where the budget cuts a chunk
    mid-start, skips a later start, leaves no chunk at all, leaves budget to
    the polish loop, is met exactly by the last chunk, and where chunks stop
    short of their cap, also before a chunk the budget cuts."""
    (regime, N, d, budget, starts, options), expect = SCHEDULES[case]
    params = ANCHORS[regime]
    want, did = _start_major(params, N, d, budget, 0, starts, **options)
    assert {k: did[k] for k in expect} == expect
    r = probe(params, N=N, d=d, budget=budget, seed=0, starts=starts,
              **options)
    assert (r.best_ratio.hex(), r.evals, r.best_start,
            _witness_bytes(r.witness)) == want


def test_probe_runs_the_benchmark_budget_in_four_minimize_calls(monkeypatch):
    """Budget 1200 over 4 starts: four lockstep rounds of 75-evaluation
    chunks, the last start's last chunk capped at 68."""
    caps = []

    def recording(fun, x0, maxfev):
        caps.append(maxfev)
        return minimize(fun, x0, maxfev)

    # the package's probe names the function, so the module comes by import
    monkeypatch.setattr(importlib.import_module("dcrates.probe"), "minimize",
                        recording)
    probe(ANCHORS[3], N=2, d=2, budget=1200, seed=0, starts=4)
    assert caps == [[75] * 4] * 3 + [[75, 75, 75, 68]]


def test_every_objective_call_takes_a_stack(monkeypatch):
    """merit and ratio get (m, nz) stacks only, in the lockstep rounds and in
    the polish, which runs here: the chunks stop short of their caps.  The
    rounds score every start's opening in one ratio call and every closing
    in another; the polish scores one-row stacks."""
    calls = []
    for name in ("merit", "ratio"):
        def recording(self, Z, name=name, method=getattr(_Objective, name)):
            calls.append((name, np.shape(Z)))
            return method(self, Z)
        monkeypatch.setattr(_Objective, name, recording)
    probe(ANCHORS[1], N=1, d=1, budget=20000, seed=0, starts=4)
    assert all(len(shape) == 2 for _, shape in calls)
    ratios = [shape for name, shape in calls if name == "ratio"]
    assert ratios[:2] == [(4, 5), (4, 5)]
    assert len(ratios) > 2 and set(ratios[2:]) == {(1, 5)}  # polish steps


@pytest.mark.parametrize("refused", [0, 1], ids=["f1", "f2"])
def test_probe_drops_a_witness_the_checker_refuses(monkeypatch, refused):
    """When check_interpolation refuses the witness of either class, the
    probe reports no witness, no feasibility and ratio 0, so the refused
    ratio cannot pass for a lower bound or a violation."""
    params = REGIME_POINTS[3]
    kept = probe(params, N=1, d=1, budget=300, seed=0, starts=2)
    assert kept.witness is not None and kept.best_ratio > 0.0
    calls = []

    def refuse_one(triplets, curv, tol):
        rep = check_interpolation(triplets, curv, tol)
        if not np.array_equal([x for x, _, _ in triplets], kept.witness.x):
            return rep           # the warm starts' equality constructions
        calls.append(curv)
        return dataclasses.replace(rep, feasible=False) if len(calls) - 1 == refused else rep

    # the package's probe names the function, so the module comes by import
    monkeypatch.setattr(importlib.import_module("dcrates.probe"), "check_interpolation",
                        refuse_one)
    r = probe(params, N=1, d=1, budget=300, seed=0, starts=2)
    assert calls == [params.f1, params.f2]
    assert (r.best_ratio, r.witness, r.feasibility) == (0.0, None, None)
    assert r.gap == r.certified_bound and not r.certificate_violation
    assert (r.evals, r.best_start) == (kept.evals, kept.best_start)


def test_probe_without_starts_has_no_witness():
    r = probe(ANCHORS[1], budget=100, starts=0, warm=False)
    assert r.evals == 0 and r.witness is None and r.best_start is None


def test_probe_spends_at_most_one_evaluation_past_the_budget():
    """Only a start's closing ratio, or the polish loop's, may go past the
    budget, by one; budget 0 still enters the first start, for its two
    ratio evaluations."""
    for starts in (0, 1, 3, 6):
        assert probe(REGIME_POINTS[1], budget=0, starts=starts).evals == 2
        for budget in (1, 2, 3, 5, 8, 13, 21, 40, 99, 250):
            r = probe(REGIME_POINTS[1], budget=budget, seed=3, starts=starts)
            assert r.evals <= budget + 1, (budget, starts, r.evals)


@pytest.mark.parametrize("flag,value", (("budget", -5), ("starts", -3),
                                        ("seed", -1)))
def test_negative_budget_or_starts_is_refused(flag, value, capsys):
    with pytest.raises(ValueError, match="must be >= 0"):
        probe(REGIME_POINTS[1], **{flag: value})
    assert main(["probe", "--mu1", "0.5", "--L1", "2", "--mu2", "0",
                 "--L2", "1", "--" + flag, str(value)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_probe_one_nonsmooth_term():
    """L2 = inf: the regime-3 equality pattern needs a finite L2, so the
    warm starts that use it are skipped instead of crashing the search."""
    params = make_params(1.0, 10.0, -0.5, INF)
    cert = classify(params)
    assert cert.index == 3 and cert.p == pytest.approx(1.0 / 11.0)
    with pytest.raises(InfeasibleConstruction):
        extremal_instance(3, params)
    r = probe(params, N=1, d=1, budget=3000, seed=0, starts=4)
    assert not r.certificate_violation
    assert r.witness is not None
    assert r.feasibility[0].feasible and r.feasibility[1].feasible
    assert r.best_ratio >= 0.99 * r.certified_bound


def test_probe_cli_one_nonsmooth_term(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert main(["probe", "--mu1", "1", "--L1", "10", "--mu2", "-0.5",
                 "--L2", "inf", "--budget", "3000", "--starts", "4",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert not payload["certificate_violation"]
    w = payload["witness"]
    params = make_params(1.0, 10.0, -0.5, INF)
    for cls, g, f in ((params.f1, w["g1"], w["f1"]),
                      (params.f2, w["g2"], w["f2"])):
        trips = [make_triplet(*t) for t in zip(w["x"], g, f)]
        assert check_interpolation(trips, cls, FEAS_TOL).feasible
    assert payload["starts"] == 4
    assert payload["best_start"]["kind"] == "random"
    assert payload["elapsed_s"] > 0.0


def _bytes(values):
    """The bytes of a sequence of arrays or floats, which tell -0.0 from 0.0
    and one NaN from another."""
    return [np.asarray(v).tobytes() for v in values]


def test_witness_does_not_alias_the_reused_buffer():
    """The objective reuses one workspace per stack shape for every
    evaluation.  Stacks of interleaved shapes and a single vector give a
    fresh objective's bits whatever was evaluated before them, and a
    witness, a parts result and a merit list are the caller's own, so later
    evaluations of the same shape leave them unchanged.  At an anchor and at
    p17, whose f1 is nonsmooth."""
    N, d = 2, 2
    nz = (2 * N + 3) * d
    for params in (ANCHORS[5], make_params(1.0, INF, -0.5, 2.0)):
        obj = _Objective(params, N, d)
        r = probe(params, N=N, d=d, budget=600, seed=0, starts=2)
        w = obj.witness(_pack(r.witness.x, r.witness.W))
        assert w is not None
        kept = [((w.x, w.W, w.f1, w.f2), _bytes((w.x, w.W, w.f1, w.f2)))]
        rng = np.random.default_rng(5)
        for shape in [(4, nz), (1, nz), (nz + 1, nz), (4, nz), (nz,)] * 2:
            Z = rng.normal(size=shape) * 10.0 ** rng.uniform(-1, 1)
            parts = obj.parts(Z)
            assert _bytes(parts) == _bytes(_Objective(params, N, d).parts(Z))
            kept.append((parts, _bytes(parts)))
            if len(shape) == 2:
                merit = obj.merit(Z)
                assert _bytes(merit) == _bytes(_Objective(params, N, d).merit(Z))
                kept.append((merit, _bytes(merit)))
        for result, before in kept:
            assert _bytes(result) == before


# (regime, N, d): best_ratio.hex(), evals, best_start of the benchmark's
# probe call (budget 1200, 4 starts, seed 0).  Any change to the arithmetic
# of one evaluation, or to the search, moves the Nelder-Mead path and shows
# here first.  Only odd regimes are searched; an even one gives its mirror's
# path (test_probe_searches_an_even_regime_in_its_odd_mirror).
SEARCH_PATH = {
    (3, 1, 3): ("0x1.a22aa99939892p+0", 1201, (0, "chain")),
    (3, 2, 1): ("0x1.9dcbaec4ada68p-1", 1201, (0, "chain")),
    (3, 2, 2): ("0x1.951ed3a8ea0f7p-1", 1201, (0, "chain")),
    (5, 2, 1): ("0x1.3e3ac1905e576p-1", 1201, (0, "chain")),
    (5, 4, 3): ("0x1.a5c4f96d83836p-3", 1201, (0, "chain")),
    (7, 2, 1): ("0x1.7146118ef1d43p-5", 1201, (0, "chain")),
    # the largest stacks: initial simplices of 46 rows at N = 6, d = 3
    (1, 6, 3): ("0x1.999999999999ap-4", 1201, (0, "chain")),
    (5, 6, 3): ("0x1.17246517f2362p-3", 1201, (0, "chain")),
    (3, 4, 2): ("0x1.8c62affb87adcp-2", 1201, (0, "chain")),
}


@pytest.mark.parametrize("item", sorted(SEARCH_PATH), ids=str)
def test_search_path_is_pinned(item):
    regime, N, d = item
    r = probe(ANCHORS[regime], N=N, d=d, budget=1200, seed=0, starts=4)
    assert (r.best_ratio.hex(), r.evals, r.best_start) == SEARCH_PATH[item]


def _mirror_bytes(w):
    """The witness bytes of w read backwards with f1 and f2 exchanged."""
    return None if w is None else [a[::-1].tobytes()
                                   for a in (w.x, w.W, w.f2, w.f1)]


def _same_up_to_the_swap(a, b, params):
    """a is a probe of params and b of params.swapped(): the same search,
    witnesses related by the time-reversal map, and each feasible against
    params once in params' orientation."""
    assert (a.best_ratio.hex(), a.evals, a.best_start) == (
        b.best_ratio.hex(), b.evals, b.best_start)
    assert a.certified_bound == b.certified_bound
    assert a.mirrored != b.mirrored
    assert _witness_bytes(a.witness) == _mirror_bytes(b.witness)
    if a.witness is not None:
        assert all(rep.feasible for rep in a.feasibility)
        assert all(rep.feasible for rep in _feasibility(b.witness.mirror(), params))


# every benchmark anchor, and a p17 point whose swap is p28
SWAP_POINTS = [*ANCHORS.values(), make_params(1.0, INF, -0.5, 2.0)]


@pytest.mark.parametrize("params", SWAP_POINTS,
                         ids=["r%d" % i for i in ANCHORS] + ["p17"])
def test_probe_searches_an_even_regime_in_its_odd_mirror(params):
    """A run read backwards with f1 and f2 exchanged is a run of the swapped
    problem, so probe searches an even regime in its odd mirror: probe(P)
    and probe(P.swapped()) make the same search either way round."""
    found = 0
    for N in (1, 2, 4):
        for d in (1, 3):
            a = probe(params, N=N, d=d, budget=1200, seed=0, starts=4)
            b = probe(params.swapped(), N=N, d=d, budget=1200, seed=0, starts=4)
            assert a.mirrored == (classify(params).index % 2 == 0)
            _same_up_to_the_swap(a, b, params)
            found += a.witness is not None
    assert found      # the witness map is exercised at every point


@pytest.mark.parametrize("regime", (3, 4))
def test_a_callers_init_is_mapped_into_the_mirror(regime):
    """init is in the caller's orientation: the caller's own witness, given
    back as init, is the start that wins either way round."""
    params = ANCHORS[regime]
    N, d = 2, 2
    w = probe(params, N=N, d=d, budget=1200, seed=0, starts=4).witness
    a = probe(params, N=N, d=d, budget=600, seed=0, starts=3, init=w)
    b = probe(params.swapped(), N=N, d=d, budget=600, seed=0, starts=3,
              init=w.mirror())
    _same_up_to_the_swap(a, b, params)
    assert a.best_start == (0, "init")


@pytest.mark.parametrize("regime", (7, 8))
@pytest.mark.parametrize("d", (2, 3))
def test_a_lower_dimensional_witness_seeds_a_higher_dimensional_probe(regime, d):
    """The d = 1 witness, zero-padded to d, starts a d-dimensional search
    that finds at least its ratio and a feasible witness; regime 8 takes it
    through the mirror."""
    params = ANCHORS[regime]
    one = probe(params, N=2, d=1, budget=1200, seed=0, starts=4)
    r = probe(params, N=2, d=d, budget=1200, seed=0, starts=4,
              init=one.witness)
    assert r.best_ratio >= one.best_ratio > 0.0
    assert r.witness.x.shape == (3, d)
    assert all(rep.feasible for rep in r.feasibility)


@pytest.mark.parametrize("regime", (3, 4, 5, 6))
def test_ratio_trend_fixes_the_orientation_once(regime):
    """Every horizon is searched in one orientation, each warm-started from
    the last witness as searched; the asymptotic constants stay the
    caller's."""
    params = ANCHORS[regime]
    a, b = (ratio_trend(p, Ns=(2, 4), d=1, budget=600, starts=4)
            for p in (params, params.swapped()))
    for N in (2, 4):
        _same_up_to_the_swap(a["results"][N], b["results"][N], params)
    assert (a["a_fit"], a["b_fit"]) == (b["a_fit"], b["b_fit"])
    assert a["asymptotic"] == asymptotic_constants(params)


def test_probe_cli_finds_a_regime_4_witness(tmp_path):
    """The regime-4 anchor at N = 4: the search in regime 3 finds a witness
    (ratio 0.3811 against the bound 0.4167) that is feasible for the
    caller's classes."""
    out = tmp_path / "probe.json"
    assert main(["probe", "--mu1", "-1", "--L1", "3", "--mu2", "2", "--L2", "4",
                 "--N", "4", "--d", "1", "--budget", "1200", "--starts", "4",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["mirrored"] is True
    assert payload["best_ratio"] == pytest.approx(0.3811, abs=1e-4)
    assert payload["certified_bound"] == pytest.approx(5 / 12)
    w = payload["witness"]
    params = ANCHORS[4]
    for cls, g, f in ((params.f1, w["g1"], w["f1"]),
                      (params.f2, w["g2"], w["f2"])):
        trips = [make_triplet(*t) for t in zip(w["x"], g, f)]
        assert check_interpolation(trips, cls, FEAS_TOL).feasible


def test_trend_cli_prints_the_swaps_ratios(tmp_path, capsys):
    """dcrates trend on an even anchor prints its swap's horizon and fit
    lines; only the asymptotic constants, the caller's, differ."""
    lines = []
    for params in (ANCHORS[4], ANCHORS[3]):
        args = [v for k, x in params.to_json_dict().items()
                for v in ("--" + k, str(x))]
        out = tmp_path / ("trend%d.json" % len(lines))
        assert main(["trend", *args, "--horizons", "2,4", "--budget", "600",
                     "--starts", "4", "--out", str(out)]) == 0
        lines.append(capsys.readouterr().out.splitlines()[:3])
        assert json.loads(out.read_text())["mirrored"] is (params is ANCHORS[4])
    assert lines[0] == lines[1]
    assert lines[0][0].startswith("N= 2  best ratio ")
