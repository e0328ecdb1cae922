import json
import math

import numpy as np
import pytest

from dcrates.curvature import Curvature
from dcrates.engine import (STOP_CRITICALITY, STOP_MAX_ITERS, STOP_UNBOUNDED,
                            run_dca, t_measure, trajectory_from_json,
                            trajectory_to_csv, trajectory_to_json)
from dcrates.oracles import (AbsPlusQuadratic, FunctionSpec, Quadratic,
                             make_instance)

INF = math.inf


def quad_instance(c1, b1, c2, b2, fstar=None):
    def spec(c, b):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        mu, L = float(c.min()), float(c.max())
        if mu >= L:
            L = mu + 1.0
        return FunctionSpec(Quadratic(tuple(c), tuple(b)), Curvature(mu, L))
    return make_instance(spec(c1, b1), spec(c2, b2), fstar=fstar)


def test_single_step_example():
    # f1 = x^2, f2 = x^2/2 + x: x+ = (g2 + b1)/c1 with g2 = x0 + 1
    inst = quad_instance(2.0, 0.0, 1.0, 1.0)
    traj = run_dca(inst, np.array([0.0]), 1)
    p0, p1 = traj.points
    assert p1.x[0] == 0.5
    assert p0.F == pytest.approx(0.0)
    assert p1.F == pytest.approx(-0.375)
    assert p0.G_norm_sq == pytest.approx(1.0)
    assert p0.T == pytest.approx(0.25)
    assert p0.dx_norm_sq == pytest.approx(0.25)


def test_critical_point_is_fixed():
    inst = quad_instance(2.0, 0.0, 1.0, 0.0)
    traj = run_dca(inst, np.array([0.0]), 5, tol=1e-14)
    assert traj.n_steps <= 1
    assert traj.stop_reason == STOP_CRITICALITY
    assert abs(traj.points[-1].x[0]) == 0.0


def test_geometric_halving():
    # f1 = x^2, f2 = x^2/2: x+ = x/2 each step
    inst = quad_instance(2.0, 0.0, 1.0, 0.0)
    traj = run_dca(inst, np.array([1.0]), 6)
    assert traj.stop_reason == STOP_MAX_ITERS
    for k, pt in enumerate(traj.points):
        assert pt.x[0] == pytest.approx(2.0 ** (-k), rel=1e-12)


def test_t_measure_matches_definition():
    inst = quad_instance(2.0, 0.0, 1.0, 1.0)
    traj = run_dca(inst, np.array([0.0]), 1)
    p0, p1 = traj.points
    direct = t_measure(inst, p0.x, p1.x, p1.g1)
    assert p0.T == pytest.approx(direct, rel=1e-12)
    assert direct >= 0.0


def test_decrease_sandwich():
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        c1 = rng.uniform(0.5, 3.0, d)
        c2 = rng.uniform(-0.4, 2.0, d)
        if (c1 + c2).min() <= 0.05:
            continue
        inst = quad_instance(c1, rng.normal(size=d), c2, rng.normal(size=d))
        traj = run_dca(inst, rng.normal(size=d), 4)
        mu1, L1 = inst.params.mu1, inst.params.L1
        mu2, L2 = inst.params.mu2, inst.params.L2
        for a, b in zip(traj.points, traj.points[1:]):
            dec = a.F - b.F
            dx2 = a.dx_norm_sq
            assert dec >= (mu1 + mu2) / 2 * dx2 - 1e-9
            assert dec <= (L1 + L2) / 2 * dx2 + 1e-9
            assert dec >= -1e-12  # objective never increases


def test_link_constraint_recorded():
    inst = quad_instance([2.0, 3.0], [0.1, -0.2], [1.0, 0.5], [0.3, 0.0])
    traj = run_dca(inst, np.array([1.0, -1.0]), 5)
    for prev, cur in zip(traj.points, traj.points[1:]):
        assert np.allclose(cur.g1, prev.g2, atol=1e-10)


def test_nonsmooth_f1_runs():
    f1 = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(1.0, INF))
    f2 = FunctionSpec(Quadratic((0.5,), (0.8,)), Curvature(0.4, 0.6))
    inst = make_instance(f1, f2)
    traj = run_dca(inst, np.array([2.0]), 10, tol=1e-12, stop_on="t_measure")
    assert traj.points[-1].F <= traj.points[0].F
    assert traj.stop_reason in (STOP_MAX_ITERS, STOP_CRITICALITY)


@pytest.mark.parametrize("policy", ["bogus", "1.5", -0.1, None])
def test_bad_policy_is_refused_before_the_first_step(policy):
    """Checked at entry, as stop_on is: from a start off any kink (the
    quadratic pair never meets one) and from one on the kink of |x| at 0."""
    f1 = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(1.0, INF))
    f2 = FunctionSpec(Quadratic((0.5,), (0.8,)), Curvature(0.4, 0.6))
    for inst, x0 in ((quad_instance(2.0, 0.0, 1.0, 0.0), 1.0),
                     (make_instance(f1, f2), 0.0)):
        with pytest.raises(ValueError, match="leftmost, rightmost, least_norm "
                                             "or a weight in \\[0, 1\\]"):
            run_dca(inst, np.array([x0]), 3, policy=policy)


def test_unbounded_subproblem_partial_trajectory():
    inst = quad_instance(0.0, 0.0, 1.0, 1.0)  # linear f1, drifting g2
    traj = run_dca(inst, np.array([1.0]), 5)
    assert traj.stop_reason == STOP_UNBOUNDED
    assert len(traj.points) >= 1


def test_summary_minima():
    inst = quad_instance(2.0, 0.0, 1.0, 0.0)
    traj = run_dca(inst, np.array([1.0]), 4)
    gaps = [p.G_norm_sq for p in traj.points]
    assert traj.min_grad_gap_sq() == pytest.approx(min(gaps))
    ts = [p.T for p in traj.points[:-1]]
    assert traj.min_t() == pytest.approx(min(ts))


def test_csv_and_json_round_trip():
    inst = quad_instance(2.0, 0.0, 1.0, 1.0, fstar=-0.5)
    traj = run_dca(inst, np.array([0.0]), 3)
    csv = trajectory_to_csv(traj)
    lines = csv.strip().splitlines()
    assert lines[0] == "k,F,G_norm_sq,T,dx_norm_sq"
    assert len(lines) == len(traj.points) + 1

    back = trajectory_from_json(trajectory_to_json(traj))
    assert back.stop_reason == traj.stop_reason
    assert back.instance.fstar == -0.5
    for a, b in zip(traj.points, back.points):
        assert np.allclose(a.x, b.x)
        assert a.F == pytest.approx(b.F, rel=1e-15)
    again = trajectory_from_json(json.loads(json.dumps(
        trajectory_to_json(traj))))
    assert again.n_steps == traj.n_steps
