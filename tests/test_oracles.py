import json
import math

import numpy as np
import pytest

from dcrates.curvature import Curvature, InvalidParams
from dcrates.oracles import (AbsPlusQuadratic, FunctionSpec, MaxOfQuadratics,
                             Quadratic, Unbounded, analytic_infimum, evaluate,
                             instance_from_json, instance_to_json,
                             make_instance, solve_dca_subproblem,
                             subgradient_interval)

INF = math.inf


def quad_spec(c, b, mu=None, L=None):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    mu = float(c.min()) if mu is None else mu
    L = float(c.max()) if L is None else L
    if mu >= L:
        L = mu + 1.0
    return FunctionSpec(Quadratic(tuple(c), tuple(b)), Curvature(mu, L))


def test_evaluate_quadratic_example():
    a = evaluate(quad_spec(2.0, 0.0), 3.0)
    assert a.value == 9.0
    assert a.subgradient[0] == 6.0


def test_abs_least_norm_at_kink():
    spec = FunctionSpec(AbsPlusQuadratic(1.0, 0.0, 0.0), Curvature(0.0, INF))
    a = evaluate(spec, 0.0)
    assert a.value == 0.0 and a.subgradient[0] == 0.0
    assert evaluate(spec, 0.0, "leftmost").subgradient[0] == -1.0
    assert evaluate(spec, 0.0, "rightmost").subgradient[0] == 1.0
    assert evaluate(spec, 0.0, 0.25).subgradient[0] == pytest.approx(-0.5)


def test_max_quadratics_crossing_policies():
    # pieces x^2/2 and x^2/2 - 2x + 1 cross at x = 0.5 with slopes 0.5, -1.5
    spec = FunctionSpec(MaxOfQuadratics(((1.0, 0.0, 0.0), (1.0, -2.0, 1.0))),
                        Curvature(1.0, INF))
    lo, hi = subgradient_interval(spec, 0.5)
    assert (lo, hi) == (-1.5, 0.5)
    assert evaluate(spec, 0.5, "leftmost").subgradient[0] == -1.5
    assert evaluate(spec, 0.5, "rightmost").subgradient[0] == 0.5


def test_subproblem_examples():
    assert solve_dca_subproblem(quad_spec(2.0, 0.0), 1.0)[0] == 0.5
    assert solve_dca_subproblem(quad_spec(1.0, 0.0), 0.0)[0] == 0.0
    spec = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(1.0, INF))
    assert solve_dca_subproblem(spec, 0.5)[0] == 0.0  # 0.5 in [-1, 1]


def test_subproblem_unbounded():
    with pytest.raises(Unbounded):
        solve_dca_subproblem(quad_spec(0.0, 1.0, mu=0.0, L=1.0), 0.0)


def _random_specs(rng):
    kind = rng.integers(3)
    if kind == 0:
        d = int(rng.integers(1, 4))
        c = rng.uniform(-1.0, 3.0, d)
        return quad_spec(c, rng.normal(size=d))
    if kind == 1:
        pieces = tuple((rng.uniform(0.2, 3.0), rng.normal(), rng.normal())
                       for _ in range(int(rng.integers(2, 5))))
        mu = min(p[0] for p in pieces)
        return FunctionSpec(MaxOfQuadratics(pieces), Curvature(mu, INF))
    a, m = rng.uniform(0.1, 2.0), rng.uniform(-1.0, 2.0)
    return FunctionSpec(AbsPlusQuadratic(a, m, rng.normal()), Curvature(m, INF))


def test_oracle_validity_lemma_bounds():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        spec = _random_specs(rng)
        x = rng.normal(size=spec.dimension) * 2
        y = rng.normal(size=spec.dimension) * 2
        fx = evaluate(spec, x).value
        ay = evaluate(spec, y)
        dist_sq = float(np.sum((x - y) ** 2))
        gap = fx - ay.value - float(ay.subgradient @ (x - y))
        mu, L = spec.declared.mu, spec.declared.L
        assert gap >= mu / 2 * dist_sq - 1e-9 * max(1.0, abs(gap))
        if math.isfinite(L):
            assert gap <= L / 2 * dist_sq + 1e-9 * max(1.0, abs(gap))
        checked += 1


def test_subproblem_optimality_sampling():
    rng = np.random.default_rng(5)
    for _ in range(50):
        spec = _random_specs(rng)
        if spec.family.curvature_range()[0] <= 0.0:
            continue
        g = rng.normal(size=spec.dimension)
        try:
            xp = solve_dca_subproblem(spec, g)
        except Unbounded:
            continue
        ref = evaluate(spec, xp).value - float(g @ xp)
        for _ in range(20):
            w = xp + rng.normal(size=spec.dimension) * rng.uniform(0.01, 5)
            val = evaluate(spec, w).value - float(g @ w)
            assert val >= ref - 1e-10 * max(1.0, abs(ref))


def test_hypoconvex_subgradient_monotone_after_shift():
    rng = np.random.default_rng(9)
    spec = FunctionSpec(AbsPlusQuadratic(0.5, -1.0, 0.3), Curvature(-1.0, INF))
    for _ in range(200):
        x, y = rng.normal() * 3, rng.normal() * 3
        gx = evaluate(spec, x).subgradient[0] + 1.0 * x
        gy = evaluate(spec, y).subgradient[0] + 1.0 * y
        assert (gx - gy) * (x - y) >= -1e-12


def test_certify_declared():
    ok = quad_spec([1.0, 2.0], [0.0, 0.0])
    assert ok.certify_declared() == []
    bad = FunctionSpec(Quadratic((2.0,), (0.0,)), Curvature(0.0, 1.0))
    assert bad.certify_declared()


def test_instance_rejects_false_declared_class():
    f1 = FunctionSpec(Quadratic((1.0,), (0.0,)), Curvature(1.0, 1.2))
    f2 = FunctionSpec(Quadratic((0.95,), (0.0,)), Curvature(0.0, 0.1))
    with pytest.raises(InvalidParams) as exc:
        make_instance(f1, f2)
    assert str(exc.value) == "f2: actual upper curvature 0.95 exceeds declared L=0.1"
    f1_low = FunctionSpec(Quadratic((1.0,), (0.0,)), Curvature(1.1, 1.2))
    with pytest.raises(InvalidParams, match="^f1: declared mu=1.1 exceeds"):
        make_instance(f1_low, FunctionSpec(Quadratic((0.95,), (0.0,)),
                                           Curvature(0.0, 1.0)))


def test_analytic_infimum_quadratic():
    f1 = quad_spec([2.0, 3.0], [0.0, 1.0])
    f2 = quad_spec([1.0, 1.0], [1.0, 0.0])
    inst = make_instance(f1, f2)
    # F = x1^2/2 - x1 + x2^2 + x2 per coordinate -> -1/2 - 1/4... compute:
    # coord1: dc=1, db=-1 -> -1/2; coord2: dc=2, db=1 -> -1/4
    assert analytic_infimum(inst) == pytest.approx(-0.75)


def test_analytic_infimum_abs_pair():
    f1 = FunctionSpec(AbsPlusQuadratic(2.0, 1.0, 0.0), Curvature(1.0, INF))
    f2 = FunctionSpec(AbsPlusQuadratic(1.0, 0.5, 0.3), Curvature(0.5, INF))
    inst = make_instance(f1, f2)
    # F = |x| + 0.25 x^2 - 0.3 x, minimized at 0
    assert analytic_infimum(inst) == 0.0


def test_instance_json_round_trip():
    f1 = quad_spec([2.0], [0.0])
    f2 = FunctionSpec(AbsPlusQuadratic(1.0, 0.5, 0.0), Curvature(0.5, INF))
    inst = make_instance(f1, f2, fstar=-1.0)
    blob = json.dumps(instance_to_json(inst))
    back = instance_from_json(json.loads(blob))
    assert back.params == inst.params
    assert back.fstar == -1.0
    assert back.f2.family == inst.f2.family
