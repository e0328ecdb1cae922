import dataclasses
import json
import math

import numpy as np
import pytest

from dcrates.certificates import (EQ_TOL, SLACK_TOL, OneStepCheck,
                                  certificate_report, check_nonsmooth_rate,
                                  check_one_step, check_rate,
                                  replay_proof_combination)
from dcrates.curvature import Curvature, InvalidParams
from dcrates.engine import run_dca, trajectory_to_json
from dcrates.interpolation import pair_lower_bound
from dcrates.oracles import (AbsPlusQuadratic, FunctionSpec, MaxOfQuadratics,
                             Quadratic, Unbounded, analytic_infimum,
                             is_subgradient, make_instance,
                             solve_dca_subproblem)
from dcrates.regimes import BothNonsmooth, PreconditionViolated, classify
from dcrates.sampling import ANCHORS, jitter_params, quad_instance_in

INF = math.inf


def quad_instance(c1, cls1, c2, cls2, b1=None, b2=None, fstar=None):
    c1 = np.atleast_1d(np.asarray(c1, dtype=float))
    c2 = np.atleast_1d(np.asarray(c2, dtype=float))
    b1 = np.zeros_like(c1) if b1 is None else np.atleast_1d(b1)
    b2 = np.zeros_like(c2) if b2 is None else np.atleast_1d(b2)
    f1 = FunctionSpec(Quadratic(tuple(c1), tuple(b1)), cls1)
    f2 = FunctionSpec(Quadratic(tuple(c2), tuple(b2)), cls2)
    return make_instance(f1, f2, fstar=fstar)


def halving_instance():
    # f1 = x^2, f2 = x^2/2: the step map is x -> x/2
    return quad_instance(2.0, Curvature(1.5, 2.5), 1.0, Curvature(0.5, 1.5))


def test_one_step_fields_consistent():
    traj = run_dca(halving_instance(), np.array([1.0]), 1)
    chk = check_one_step(traj)
    assert chk.lhs == pytest.approx(traj.points[0].F - traj.points[1].F)
    r = chk.regime
    rhs = (r.sigma * 0.5 * traj.points[0].G_norm_sq
           + r.sigma_plus * 0.5 * traj.points[1].G_norm_sq)
    assert chk.rhs == pytest.approx(rhs)
    assert chk.slack == pytest.approx(chk.lhs - chk.rhs)
    assert chk.holds


def test_replay_slack_nonnegative_random():
    rng = np.random.default_rng(29)
    for _ in range(200):
        mu1 = rng.uniform(-1.0, 2.0)
        mu2 = rng.uniform(-1.0, 2.0)
        if mu1 + mu2 <= 0.05:
            continue
        L1 = max(mu1, 0.1) + rng.uniform(0.3, 5.0)
        L2 = max(mu2, 0.1) + rng.uniform(0.3, 5.0)
        lo1, hi1 = max(mu1, 1e-3), L1
        lo2, hi2 = max(mu2, 1e-3), L2
        d = int(rng.integers(1, 4))
        c1 = rng.uniform(lo1, hi1, d)
        c2 = rng.uniform(lo2, hi2, d)
        inst = quad_instance(c1, Curvature(mu1, L1), c2, Curvature(mu2, L2),
                             b1=rng.normal(size=d), b2=rng.normal(size=d))
        traj = run_dca(inst, rng.normal(size=d), 2)
        if traj.n_steps < 1:
            continue
        for k in range(traj.n_steps):
            assert replay_proof_combination(traj, k) >= -1e-9
            assert check_one_step(traj, k).slack >= -1e-9


def test_rate_single_step():
    traj = run_dca(halving_instance(), np.array([1.0]), 1)
    pred, observed, holds = check_rate(traj)
    F0, F1 = traj.points[0].F, traj.points[1].F
    assert pred.N == 1
    assert pred.bound_no_fstar == pytest.approx((F0 - F1) / pred.p_used)
    assert observed == pytest.approx(0.5 * traj.G_norm_sq.min())
    assert holds


def test_rate_bound_scales_inversely_with_n():
    inst = halving_instance()
    t2 = run_dca(inst, np.array([1.0]), 2)
    t4 = run_dca(inst, np.array([1.0]), 4)
    p2, _, _ = check_rate(t2)
    p4, _, _ = check_rate(t4)
    dec2 = t2.points[0].F - t2.points[-1].F
    dec4 = t4.points[0].F - t4.points[-1].F
    assert p2.bound_no_fstar == pytest.approx(dec2 / (p2.p_used * 2))
    assert p4.bound_no_fstar == pytest.approx(dec4 / (p4.p_used * 4))


def test_rate_with_fstar_variant():
    inst = quad_instance(2.0, Curvature(1.5, 2.5), 1.0, Curvature(0.5, 1.5),
                         fstar=0.0)
    traj = run_dca(inst, np.array([1.0]), 3)
    pred, observed, holds = check_rate(traj)
    extra = 1.0 / (2.5 - 0.5)
    expect = (traj.points[0].F - 0.0) / (pred.p_used * 3 + extra)
    assert pred.bound_with_fstar == pytest.approx(expect)
    assert holds


def test_precondition_violation_raises():
    inst = quad_instance(1.0, Curvature(0.5, 2.0), 1.0, Curvature(-1.0, 1.5))
    traj = run_dca(inst, np.array([1.0]), 1)
    with pytest.raises(PreconditionViolated):
        check_one_step(traj)


@pytest.mark.parametrize("k", [-1, 2])
def test_step_index_outside_trajectory_raises(k):
    traj = run_dca(halving_instance(), np.array([1.0]), 2)
    assert traj.n_steps == 2
    for check in (check_one_step, replay_proof_combination):
        with pytest.raises(InvalidParams, match="trajectory has no step %d" % k):
            check(traj, k)


@pytest.mark.parametrize("case", ["invalid", "precondition", "both_nonsmooth"])
def test_replay_and_rate_refuse_what_the_regime_gate_refuses(case):
    """replay_proof_combination and check_rate are gated by the regime
    classification they start with."""
    if case == "invalid":      # f1 declares mu = L
        inst = quad_instance(2.0, Curvature(2.0, 2.0), 1.0, Curvature(0.5, 1.5))
        exc = InvalidParams
    elif case == "precondition":       # mu1 + mu2 < 0
        inst = quad_instance(1.0, Curvature(0.5, 2.0), -2.0, Curvature(-2.5, 1.0))
        exc = PreconditionViolated
    else:
        inst, exc = nonsmooth_instance(+1), BothNonsmooth
    traj = run_dca(inst, np.array([1.0]), 2)
    with pytest.raises(exc):
        replay_proof_combination(traj, 0)
    with pytest.raises(exc):
        check_rate(traj)


def test_linear_regime_warning_flag():
    inst = quad_instance(5.0, Curvature(3.0, 10.0), 1.0, Curvature(0.5, 1.2))
    traj = run_dca(inst, np.array([1.0]), 2)
    pred, _, _ = check_rate(traj)
    assert pred.linear_regime_warning


def nonsmooth_instance(mu2_sign):
    if mu2_sign >= 0:
        # f1 = x^2, f2 = x: equality case of the per-step bound
        f1 = FunctionSpec(AbsPlusQuadratic(0.0, 2.0, 0.0), Curvature(2.0, INF))
        f2 = FunctionSpec(AbsPlusQuadratic(0.0, 0.0, 1.0), Curvature(0.0, INF))
        return make_instance(f1, f2, fstar=-0.25)
    # f1 = x^2, f2 = 0.5|x| - 0.25 x^2
    f1 = FunctionSpec(AbsPlusQuadratic(0.0, 2.0, 0.0), Curvature(2.0, INF))
    f2 = FunctionSpec(AbsPlusQuadratic(0.5, -0.5, 0.0), Curvature(-0.5, INF))
    return make_instance(f1, f2, fstar=-0.05)


def test_nonsmooth_equality_example():
    inst = nonsmooth_instance(+1)
    traj = run_dca(inst, np.array([0.0]), 1)
    assert traj.points[0].T == pytest.approx(0.25)
    chk = check_nonsmooth_rate(traj)
    assert chk.branch == "mu2_nonneg"
    assert chk.per_step_slacks[0] == pytest.approx(0.0, abs=1e-12)
    assert chk.holds


def test_nonsmooth_observed_is_the_least_per_step_sum():
    """With mu2 >= 0 the per-step bounds sum to a bound on
    min_k (T_k + mu2/2 ||dx_k||^2), and that is the value reported.  The
    two minima taken apart, min T + mu2/2 min ||dx||^2, give 1.056640625."""
    f1 = FunctionSpec(AbsPlusQuadratic(0.5, 1.0, -1.0), Curvature(1.0, INF))
    f2 = FunctionSpec(AbsPlusQuadratic(0.5, 0.25, 0.5), Curvature(0.25, INF))
    traj = run_dca(make_instance(f1, f2), np.array([-1.0]), 2)
    chk = check_nonsmooth_rate(traj, fstar=-1.5)
    assert chk.branch == "mu2_nonneg" and chk.holds
    assert (chk.n_step_observed, chk.n_step_bound) == (1.07666015625, 1.6875)
    assert chk.n_step_observed == min(p.T + 0.125 * p.dx_norm_sq
                                      for p in traj.points[:-1])


def test_nonsmooth_hypoconvex_branch():
    inst = nonsmooth_instance(-1)
    traj = run_dca(inst, np.array([1.0]), 5)
    chk = check_nonsmooth_rate(traj)
    assert chk.branch == "mu2_neg"
    assert all(s >= -1e-9 for s in chk.per_step_slacks)
    # the T bound carries the mu1/(mu1+mu2) inflation factor
    expect = 2.0 / 1.5 * (traj.points[0].F - (-0.05)) / traj.n_steps
    assert chk.n_step_bound == pytest.approx(expect)
    assert chk.holds


def test_report_smooth_and_nonsmooth():
    traj = run_dca(halving_instance(), np.array([1.0]), 3)
    rep = certificate_report(traj)
    assert rep["mode"] == "smooth"
    assert rep["holds"]
    assert len(rep["per_step_slacks"]) == traj.n_steps

    traj2 = run_dca(nonsmooth_instance(-1), np.array([1.0]), 3)
    rep2 = certificate_report(traj2)
    assert rep2["mode"] == "nonsmooth"
    assert rep2["holds"]


def _one_nonsmooth_pair(rng, abs_first):
    """An abs_quadratic term and a 1-D quadratic, the abs term first or second.
    The declared classes are drawn first; the functions inside them have a
    convex f1 (a solvable subproblem) more curved than f2 (F bounded below)."""
    while True:
        mu_abs, mu_q = rng.uniform(-1.0, 3.0, 2)
        L_q = max(mu_q, 0.0) + rng.uniform(0.05, 3.0)
        mu1, mu2 = (mu_abs, mu_q) if abs_first else (mu_q, mu_abs)
        lo1, hi1 = max(mu1, mu2 + 0.1, 0.1), (mu1 + 3.0 if abs_first else L_q)
        if mu1 + mu2 > 0.05 and lo1 < hi1:
            break
    c1 = rng.uniform(lo1, hi1)
    c2 = rng.uniform(mu2, min(c1 - 0.1, L_q if abs_first else mu2 + 3.0))

    def spec(c, mu, smooth):
        if smooth:
            return FunctionSpec(Quadratic((c,), (rng.normal(),)), Curvature(mu, L_q))
        return FunctionSpec(AbsPlusQuadratic(rng.uniform(0.0, 2.0), c, rng.normal()),
                            Curvature(mu, INF))
    return make_instance(spec(c1, mu1, not abs_first), spec(c2, mu2, abs_first))


def _hypoconvex_max_pair(rng):
    """f1 a max of a concave and a convex quadratic (mu1 < 0, L1 = inf)."""
    cn, cp = -rng.uniform(0.1, 1.0), rng.uniform(1.5, 3.0)
    c2 = rng.uniform(0.05 - cn, cp - 0.1)
    f1 = FunctionSpec(MaxOfQuadratics(((cn, rng.normal(), rng.normal()),
                                       (cp, rng.normal(), rng.normal()))),
                      Curvature(cn, INF))
    f2 = FunctionSpec(Quadratic((c2,), (rng.normal(),)),
                      Curvature(c2, c2 + rng.uniform(0.05, 4.0)))
    return make_instance(f1, f2)


def test_one_nonsmooth_soundness_sweep():
    rng = np.random.default_rng(2024)
    instances = ([_one_nonsmooth_pair(rng, i % 2 == 0) for i in range(1000)]
                 + [_hypoconvex_max_pair(rng) for _ in range(100)])
    rows = set()
    for inst in instances:
        traj = run_dca(inst, rng.normal(size=1) * 3.0, 8)
        assert traj.n_steps == 8
        rep = certificate_report(traj)
        rows.add(rep["regime"]["label"])
        assert rep["holds"], inst
        assert min(rep["per_step_slacks"]) >= -1e-9, inst
    assert rows == {"p17", "p28", "p3", "p4", "p5", "p6"}


def _scaled(inst, s):
    """inst with f1, f2 and their classes scaled by s."""
    def spec(f):
        fam = f.family
        if isinstance(fam, Quadratic):
            fam = Quadratic(tuple(s * c for c in fam.c), tuple(s * b for b in fam.b))
        else:
            fam = AbsPlusQuadratic(s * fam.a, s * fam.m, s * fam.b)
        return FunctionSpec(fam, Curvature(s * f.declared.mu, s * f.declared.L))
    return make_instance(spec(inst.f1), spec(inst.f2))


def test_certificates_hold_on_runs_scaled_by_2_30():
    """Scaling f1 and f2 by 2^30 scales every slack by 2^30, and F values of
    about 2^30 carry rounding of about eps |F|, above an absolute 1e-9: the
    tolerance is relative to max(1, |f1|, |f2|) over the points a slack is
    computed from.  An absolute one failed 57 of the 160 smooth runs and 30
    of the 40 abs-plus-quadratic runs here."""
    rng = np.random.default_rng(30)
    for k in range(200):
        if k < 160:
            row = k % 8 + 1
            inst = quad_instance_in(jitter_params(ANCHORS[row], row, rng), rng)
        else:
            m1 = rng.uniform(0.5, 3.0)
            inst = make_instance(*(
                FunctionSpec(AbsPlusQuadratic(rng.uniform(0.0, 2.0), m, rng.normal()),
                             Curvature(m, INF))
                for m in (m1, rng.uniform(-0.8, 0.8) * m1)))
        x0 = rng.normal(size=inst.dimension) * 3.0
        inst = _scaled(inst, 2.0 ** 30)
        rep = certificate_report(run_dca(inst, x0, 25), analytic_infimum(inst))
        assert rep["holds"], (k, rep["mode"])


def test_nonsmooth_per_step_slack_is_sized_by_its_own_step():
    """From x = 1e4, |f(x^0)| is about 1e8 and the last step's F is -0.05.
    A 1e-6 shortfall in that step's decrease is a real violation there; a
    tolerance sized by the whole run (1e-9 * 1e8) would let it through."""
    traj = run_dca(nonsmooth_instance(-1), np.array([1e4]), 10)
    assert check_nonsmooth_rate(traj).holds
    F = traj.F.copy()
    F[-1] += 1e-6
    assert not check_nonsmooth_rate(dataclasses.replace(traj, F=F)).holds


def _max_subproblem(rng, k):
    """A max-of-quadratics f1 and a g, cycling through integer coefficients
    (ties), curvatures equal to within 1e-9, coefficients scaled 1e-6 to
    1e6, and g at one end of the subdifferential where two pieces meet."""
    kind = k % 4
    n = int(rng.integers(1 if kind < 3 else 2, 6))
    if kind == 0:
        pieces = [tuple(map(float, rng.integers(-3, 4, 3))) for _ in range(n)]
        g = float(rng.integers(-8, 9)) / 2
    else:
        scale = 10.0 ** rng.uniform(-6, 6) if kind == 2 else 1.0
        c = (rng.uniform(0.2, 3.0) + rng.uniform(-1e-9, 1e-9, n) if kind == 1
             else rng.uniform(-1.0, 3.0, n))
        pieces = [(scale * p, scale * q, scale * r) for p, q, r in
                  zip(c, rng.normal(size=n), rng.normal(size=n))]
        g = scale * rng.normal()
    if kind == 3:
        (c0, b0, a0), (c1, b1, a1) = pieces[:2]
        disc = (b0 - b1) ** 2 - 2.0 * (c0 - c1) * (a0 - a1)
        if disc >= 0.0:
            w = (b1 - b0 + math.sqrt(disc)) / (c0 - c1)
            g = c0 * w + b0    # piece 0's slope where pieces 0 and 1 meet
    spec = FunctionSpec(MaxOfQuadratics(tuple(pieces)),
                        Curvature(min(p[0] for p in pieces), INF))
    return spec, np.array([g])


def test_dca_step_passes_the_link_test():
    """The max-of-quadratics subproblem returns only points at which g passes
    is_subgradient, the test run_dca asserts on the link g1^{k+1} = g2^k, so
    no hypoconvex max-of-quadratics run is refused at that link."""
    rng = np.random.default_rng(22)
    solved = 0
    for k in range(4000):
        spec, g = _max_subproblem(rng, k)
        try:
            w = solve_dca_subproblem(spec, g)
        except Unbounded:
            continue
        assert is_subgradient(spec, w, g), (spec, g, w)
        solved += 1
    assert solved > 3000
    for _ in range(200):
        traj = run_dca(_hypoconvex_max_pair(rng), rng.normal(size=1) * 3.0, 8)
        assert traj.n_steps == 8


@pytest.fixture
def classify_calls(monkeypatch):
    """Calls to the classifier, counted at the name certificates calls."""
    import dcrates.certificates as certificates
    calls = []
    orig = certificates.one_step_certificate

    def counting(params):
        calls.append(params)
        return orig(params)
    monkeypatch.setattr(certificates, "one_step_certificate", counting)
    return calls


def test_run_is_classified_once(classify_calls):
    inst = quad_instance([2.0, 3.0], Curvature(1.5, 3.5), [1.0, 0.5],
                         Curvature(0.25, 1.5), b1=[0.0, 1.0], b2=[1.0, -1.0])
    traj = run_dca(inst, np.array([1.0, -2.0]), 25)
    assert traj.n_steps == 25
    before = (repr(traj), json.dumps(trajectory_to_json(traj)))
    rep = certificate_report(traj)
    assert rep["mode"] == "smooth" and rep["holds"]
    assert rep["regime"] == classify(inst.params).to_json_dict()
    assert classify_calls == [inst.params]
    for k in range(traj.n_steps):
        assert replay_proof_combination(traj, k) >= -1e-9
        assert check_one_step(traj, k).holds
    assert check_rate(traj)[2]
    assert len(classify_calls) == 1
    # the stored certificate is no field: repr and JSON are as before
    assert (repr(traj), json.dumps(trajectory_to_json(traj))) == before


def test_replaced_instance_is_classified_anew(classify_calls):
    traj = run_dca(halving_instance(), np.array([1.0]), 2)
    first = certificate_report(traj)["regime"]
    other = quad_instance(2.0, Curvature(0.5, 2.5), 1.0, Curvature(0.5, 1.5))
    assert other.params != traj.instance.params
    moved = dataclasses.replace(traj, instance=other)
    second = certificate_report(moved)["regime"]
    assert len(classify_calls) == 2 and classify_calls[1] is other.params
    assert second == classify(other.params).to_json_dict() != first
    # the first run keeps its own certificate, and its instance cannot be
    # reassigned
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.instance = other
    assert certificate_report(traj)["regime"] == first
    assert len(classify_calls) == 2


def test_check_one_step_gates_on_the_runs_own_regime():
    # check_one_step classifies the run's own params, so a run outside the
    # decrease precondition and a run with both terms nonsmooth are refused
    inst = quad_instance(1.0, Curvature(0.5, 2.0), 1.0, Curvature(-1.0, 1.5))
    traj = run_dca(inst, np.array([1.0]), 1)
    with pytest.raises(PreconditionViolated):
        check_one_step(traj, 0)
    traj = run_dca(nonsmooth_instance(+1), np.array([0.0]), 1)
    with pytest.raises(BothNonsmooth):
        check_one_step(traj, 0)


# ---------------------------------------------------------------------------
# the stacked pass against a per-step reference

def _ref_f_scale(points):
    return max(1.0, *(abs(v) for p in points for v in (p.f1, p.f2)))


def _ref_one_step(traj, k, tol=SLACK_TOL):
    """The one-step certificate of step k, from its two points."""
    regime = classify(traj.instance.params)
    a, b = traj.points[k], traj.points[k + 1]
    lhs = a.F - b.F
    rhs = regime.decrease_bound(a.G_norm_sq, b.G_norm_sq)
    slack = lhs - rhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return OneStepCheck(regime, lhs, rhs, slack,
                        bool(abs(slack) <= EQ_TOL * scale),
                        bool(slack >= -tol * _ref_f_scale((a, b))))


def _ref_replay(traj, k):
    """The replayed combination of step k, one pair at a time."""
    params = traj.instance.params
    regime = classify(params)
    alpha = regime.alpha
    a, b = traj.points[k], traj.points[k + 1]
    dx = a.x - b.x
    G, Gp = a.g1 - a.g2, b.g1 - b.g2
    B1 = pair_lower_bound(params.f1, dx, G)
    B2 = pair_lower_bound(params.f2, -dx, -Gp)
    if regime.index % 2 == 1:
        rhs = B1 + (1.0 + 2.0 * alpha) * B2 - alpha * float(Gp @ dx)
    else:
        rhs = B2 + (1.0 + 2.0 * alpha) * B1 - alpha * float(G @ dx)
    return (a.F - b.F) - rhs


def _ref_report(traj, fstar, tol):
    """certificate_report with every per-step number taken step by step."""
    params = traj.instance.params
    pts = traj.points
    out = {"tol": tol, "n_steps": traj.n_steps, "stop_reason": traj.stop_reason}
    if math.isinf(params.L1) and math.isinf(params.L2):
        m1, m2 = params.mu1, params.mu2
        fstar = traj.instance.fstar if fstar is None else fstar
        lhs = [m2 * 0.5 * a.dx_norm_sq + a.T if m2 >= 0.0
               else (m1 + m2) / m1 * a.T for a in pts[:-1]]
        slacks = [(a.F - b.F) - v for a, b, v in zip(pts, pts[1:], lhs)]
        N = traj.n_steps
        if m2 >= 0.0:
            observed, bound = min(lhs), (pts[0].F - fstar) / N
        else:
            observed = min(a.T for a in pts[:-1])
            bound = m1 / (m1 + m2) * (pts[0].F - fstar) / N
        holds = (all(s >= -tol * _ref_f_scale((a, b))
                     for s, a, b in zip(slacks, pts, pts[1:]))
                 and bool(observed <= bound + tol * _ref_f_scale(pts)))
        out.update(mode="nonsmooth",
                   branch="mu2_nonneg" if m2 >= 0.0 else "mu2_neg",
                   per_step_slacks=slacks, n_step_bound=bound,
                   n_step_observed=observed, holds=holds)
        return out
    checks = [_ref_one_step(traj, k, tol) for k in range(traj.n_steps)]
    regime, N = checks[0].regime, traj.n_steps
    bound = (pts[0].F - pts[-1].F) / (regime.p * N)
    fstar = traj.instance.fstar if fstar is None else fstar
    bound_star = None
    if fstar is not None and params.L1 > params.mu2:
        extra = 0.0 if math.isinf(params.L1) else 1.0 / (params.L1 - params.mu2)
        bound_star = (pts[0].F - fstar) / (regime.p * N + extra)
    observed = 0.5 * min(p.G_norm_sq for p in pts)
    rate_ok = bool(observed <= bound + tol) and (
        bound_star is None or bool(observed <= bound_star + tol))
    out.update(
        mode="smooth", regime=regime.to_json_dict(),
        per_step_slacks=[c.slack for c in checks],
        equality_hits=[c.equality_hit for c in checks],
        rate={"bound_no_fstar": bound, "bound_with_fstar": bound_star,
              "p": regime.p, "N": N,
              "linear_regime_warning": regime.index in (7, 8),
              "observed": observed},
        holds=all(c.holds for c in checks) and rate_ok)
    return out


def _pin_runs(rng):
    """Quadratic runs of each regime, runs with one nonsmooth term, and
    runs of both nonsmooth branches."""
    insts = [quad_instance_in(jitter_params(ANCHORS[row], row, rng), rng)
             for row in range(1, 9) for _ in range(10)]
    insts += [_one_nonsmooth_pair(rng, i % 2 == 0) for i in range(8)]
    insts += [make_instance(*(
        FunctionSpec(AbsPlusQuadratic(rng.uniform(0.0, 2.0), m, rng.normal()),
                     Curvature(m, INF))
        for m in (m1, rng.uniform(-0.8, 0.8) * m1)))
        for m1 in rng.uniform(0.5, 3.0, 8)]
    insts += [nonsmooth_instance(+1), nonsmooth_instance(-1)]
    return [run_dca(inst, rng.normal(size=inst.dimension) * 3.0, 12)
            for inst in insts]


def _bits(chk):
    return (chk.regime, *(float(v).hex() for v in (chk.lhs, chk.rhs, chk.slack)),
            chk.equality_hit, chk.holds)


def test_stacked_certificates_are_bit_identical_to_a_per_step_reference():
    """certificate_report's JSON, every replay_proof_combination(traj, k) and
    every check_one_step(traj, k) equal the per-step reference bit for bit
    (JSON writes each float's repr, which tells every float and -0.0
    apart)."""
    runs = _pin_runs(np.random.default_rng(26))
    seen = set()
    for traj in runs:
        params = traj.instance.params
        nonsmooth = math.isinf(params.L1) and math.isinf(params.L2)
        fstar = analytic_infimum(traj.instance)
        for tol in (SLACK_TOL, 0.0):
            got = certificate_report(traj, fstar, tol)
            assert json.dumps(got) == json.dumps(_ref_report(traj, fstar, tol))
        if nonsmooth:
            seen.add(got["branch"])
            continue
        seen.add((got["regime"]["index"], traj.X.shape[1]))
        for k in range(traj.n_steps):
            assert (replay_proof_combination(traj, k).hex()
                    == _ref_replay(traj, k).hex())
            for tol in (SLACK_TOL, 0.0):
                assert (_bits(check_one_step(traj, k, tol))
                        == _bits(_ref_one_step(traj, k, tol)))
    assert {"mu2_nonneg", "mu2_neg"} <= seen
    assert {(r, d) for r in range(1, 9) for d in (1, 2, 3)} <= seen


def test_stacked_pass_is_computed_anew_and_never_stale():
    """A replaced trajectory is certified anew; no field can be assigned,
    and a column, or a point read from it, cannot be edited in place."""
    traj = run_dca(halving_instance(), np.array([1.0]), 3)
    first = [replay_proof_combination(traj, k) for k in range(3)]
    moved = dataclasses.replace(traj, instance=quad_instance(
        2.0, Curvature(0.5, 2.5), 1.0, Curvature(0.5, 1.5)))
    again = [replay_proof_combination(moved, k) for k in range(3)]
    assert again == [_ref_replay(moved, k) for k in range(3)] != first
    scaled = dataclasses.replace(moved, F=2.0 * moved.F)
    assert [check_one_step(scaled, k) for k in range(3)] == [
        _ref_one_step(scaled, k) for k in range(3)]
    assert [replay_proof_combination(traj, k) for k in range(3)] == first
    for field in dataclasses.fields(traj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(traj, field.name, getattr(moved, field.name))
    for column in (traj.F, traj.X, traj.points[0].x, traj.points[0].g1):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0
    with pytest.raises(AttributeError):
        traj.points[-1].F += 1e-6
