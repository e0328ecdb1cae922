import json
import math

import numpy as np
import pytest

from dcrates.curvature import Curvature
from dcrates.interpolation import (check_interpolation, make_triplet,
                                   pair_lower_bound, pair_slack,
                                   sample_triplets, triplets_from_json,
                                   triplets_to_json)
from dcrates.oracles import (AbsPlusQuadratic, FunctionSpec, MaxOfQuadratics,
                             Quadratic)

INF = math.inf


def test_pair_lower_bound_smooth_example():
    # mu=1, L=2, dx=1, dg=2: dg^2/(2L) + mu/(2L(L-mu)) (dg - L dx)^2 = 1.0
    val = pair_lower_bound(Curvature(1.0, 2.0), np.array([1.0]),
                           np.array([2.0]))
    assert val == pytest.approx(1.0, rel=1e-12)


def test_pair_lower_bound_nonsmooth_limit():
    cls = Curvature(0.5, INF)
    dx, dg = np.array([2.0]), np.array([7.0])
    assert pair_lower_bound(cls, dx, dg) == pytest.approx(1.0, rel=1e-12)
    # large finite L approaches the limit
    near = pair_lower_bound(Curvature(0.5, 1e8), dx, dg)
    assert near == pytest.approx(1.0, abs=1e-6)


def test_slack_detects_underdeclared_curvature():
    # f = x^2 has curvature 2; declare L = 1 and the pair (0, 1) fails by 1.
    t0 = make_triplet([0.0], [0.0], 0.0)
    t1 = make_triplet([1.0], [2.0], 1.0)
    s = pair_slack(Curvature(0.0, 1.0), t0, t1)
    assert s == pytest.approx(-1.0, rel=1e-12)
    rep = check_interpolation([t0, t1], Curvature(0.0, 1.0))
    assert not rep.feasible
    rep_ok = check_interpolation([t0, t1], Curvature(0.0, 2.5))
    assert rep_ok.feasible


def _random_triplets(rng, n, d=2):
    return [make_triplet(rng.normal(size=d), rng.normal(size=d), rng.normal())
            for _ in range(n)]


@pytest.mark.parametrize("cls", [Curvature(-0.5, 2.0), Curvature(0.3, INF)])
def test_slack_matrix_matches_pair_slack(cls):
    rng = np.random.default_rng(41)
    t = _random_triplets(rng, 8)
    S = check_interpolation(t, cls).slack
    for i in range(8):
        assert S[i, i] == 0.0
        for j in range(8):
            if i != j:
                assert S[i, j] == pytest.approx(pair_slack(cls, t[i], t[j]),
                                                rel=1e-12)


def test_min_slack_excludes_diagonal():
    # f = x^2 declared in a looser class than its own: every pair is slack
    cls = Curvature(-1.0, 4.0)
    t = [make_triplet([x], [2.0 * x], x * x) for x in (-1.0, 0.5, 2.0)]
    ref = min(pair_slack(cls, a, b) for a in t for b in t if a is not b)
    assert ref > 0.0
    assert check_interpolation(t, cls).min_slack == pytest.approx(ref, rel=1e-12)


def _spec_samples(rng):
    kind = rng.integers(3)
    if kind == 0:
        d = int(rng.integers(1, 4))
        c = rng.uniform(-1.0, 3.0, d)
        mu, L = float(c.min()), float(c.max())
        if mu >= L:
            L = mu + 1.0
        spec = FunctionSpec(Quadratic(tuple(c), tuple(rng.normal(size=d))),
                            Curvature(mu, L))
    elif kind == 1:
        pieces = tuple((rng.uniform(0.2, 3.0), rng.normal(), rng.normal())
                       for _ in range(3))
        spec = FunctionSpec(MaxOfQuadratics(pieces),
                            Curvature(min(p[0] for p in pieces), INF))
    else:
        spec = FunctionSpec(
            AbsPlusQuadratic(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 2.0),
                             rng.normal()),
            Curvature(None, INF))
        spec = FunctionSpec(spec.family, Curvature(spec.family.m, INF))
    return spec


def test_soundness_all_families():
    rng = np.random.default_rng(23)
    for _ in range(30):
        spec = _spec_samples(rng)
        xs = [rng.normal(size=spec.dimension) * 2 for _ in range(50)]
        trips = sample_triplets(spec, xs)
        rep = check_interpolation(trips, spec.declared, tol=1e-9,
                                  scale_aware=True)
        assert rep.feasible, rep.min_slack


def test_monotone_under_class_enlargement():
    rng = np.random.default_rng(31)
    t = [make_triplet(rng.normal(size=2), rng.normal(size=2), rng.normal())
         for _ in range(6)]
    tight = check_interpolation(t, Curvature(0.5, 2.0)).min_slack
    loose = check_interpolation(t, Curvature(-1.0, 9.0)).min_slack
    assert loose >= tight - 1e-12


def test_json_round_trip():
    t = [make_triplet([1.0, 2.0], [0.5, -0.5], 3.0),
         make_triplet([0.0, 0.0], [0.0, 0.0], 0.0)]
    blob = json.dumps(triplets_to_json(t))
    back = triplets_from_json(json.loads(blob))
    assert len(back) == 2
    assert np.allclose(back[0].x, t[0].x)
    assert back[0].f == 3.0


def test_rejects_nonfinite():
    with pytest.raises(Exception):
        make_triplet([float("nan")], [0.0], 0.0)
