import dataclasses
import json
import math

import numpy as np
import pytest

import dcrates.engine as engine
from dcrates.curvature import Curvature, InvalidParams
from dcrates.engine import (LINK_TOL, RECORD_TOL, STOP_CRITICALITY,
                            STOP_MAX_ITERS, STOP_UNBOUNDED, Trajectory,
                            TrajectoryPoint, run_dca,
                            trajectory_from_json, trajectory_to_csv,
                            trajectory_to_json)
from dcrates.oracles import (AbsPlusQuadratic, FunctionSpec, MaxOfQuadratics,
                             Quadratic, Unbounded, evaluate, is_subgradient,
                             kink_policy, make_instance, solve_dca_subproblem,
                             subgradient)

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
    """Each T^k of a run is f1(x^k) - f1(x^{k+1}) - <g1^{k+1}, x^k - x^{k+1}>
    bit for bit, with f1 from evaluate at each point, and a DCA step on a
    convex f1 never makes it negative."""
    abs_f1 = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(1.0, INF))
    quad_f2 = FunctionSpec(Quadratic((0.5,), (0.01,)), Curvature(0.0, 1.0))
    for inst, x0 in ((quad_instance(2.0, 0.0, 1.0, 1.0), [0.0]),
                     (quad_instance([2.0, 3.0], [0.1, -0.2], [1.0, 0.5],
                                    [0.3, 0.0]), [1.0, -1.0]),
                     (make_instance(abs_f1, quad_f2), [1.0])):
        traj = run_dca(inst, np.array(x0), 4)
        for k in range(traj.n_steps):
            x, xq = traj.X[k], traj.X[k + 1]
            T = (evaluate(inst.f1, x).value - evaluate(inst.f1, xq).value
                 - float(traj.G1[k + 1] @ (x - xq)))
            assert traj.T[k] == T and T >= 0.0


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


COLUMNS = ("X", "G1", "G2", "f1", "f2", "F", "G_norm_sq", "T", "dx_norm_sq")


def test_a_column_others_can_write_is_stored_as_a_read_only_copy():
    """The record's columns are frozen, so a changed run shares them; a
    column something else can still write to (a writable array, a read-only
    view of a writable base, an integer array, a list) is stored as a
    read-only float copy, which editing the original leaves unchanged."""
    traj = run_dca(quad_instance([2.0, 3.0], [0.5, -1.0], [1.0, 0.5],
                                 [0.0, 0.2]), np.array([1.0, -2.0]), 4)
    moved = dataclasses.replace(traj, stop_reason=STOP_CRITICALITY)
    assert all(getattr(moved, name) is getattr(traj, name) for name in COLUMNS)
    given = {name: getattr(traj, name).copy() for name in COLUMNS}
    built = Trajectory(**given, instance=traj.instance,
                       stop_reason=traj.stop_reason)
    for name in COLUMNS:
        kept = getattr(traj, name)
        base = kept.copy()
        view = base[...]
        view.setflags(write=False)
        copies = [(built, given[name]),
                  (dataclasses.replace(traj, **{name: view}), base)]
        for run, original in copies:
            original[...] = 7.0
            column = getattr(run, name)
            assert np.array_equal(column, kept) and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[...] = 0.0
    ints = np.array([[1, 2]] * len(traj.X))
    for X in (ints, ints.tolist()):
        stored = dataclasses.replace(traj, X=X).X
        assert stored.dtype == float and not stored.flags.writeable
        assert np.array_equal(stored, ints)
        ints[0, 0] = 5
        assert stored[0, 0] == 1.0
        ints[0, 0] = 1


# ---------------------------------------------------------------------------
# run_dca and trajectory_from_json against a point-at-a-time reference

FIELDS = ("k", "f1", "f2", "F", "G_norm_sq", "T", "dx_norm_sq")


def _ref_record(points, inst, x, policy="least_norm", g1=None, g2=None):
    """Append the point at x from single-point oracle calls: f1, then f2,
    then each given subgradient's test; T and dx_norm_sq of the point
    before it are set here."""
    a1, a2 = evaluate(inst.f1, x, policy), evaluate(inst.f2, x, policy)
    for name, spec, g in (("g1", inst.f1, g1), ("g2", inst.f2, g2)):
        if g is not None and not is_subgradient(spec, x, g):
            raise InvalidParams("step %d: %s = %r is not a subgradient of f%s "
                                "at x" % (len(points), name, g.tolist(), name[1]))
    g1 = a1.subgradient if g1 is None else g1
    g2 = a2.subgradient if g2 is None else g2
    if points:
        prev = points[-1]
        points[-1] = prev._replace(
            T=prev.f1 - a1.value - float(g1 @ (prev.x - x)),
            dx_norm_sq=float(np.add.reduce((prev.x - x) * (prev.x - x))))
    points.append(TrajectoryPoint(len(points), x, a1.value, a2.value,
                                  a1.value - a2.value, g1, g2,
                                  float(np.add.reduce((g1 - g2) * (g1 - g2)))))
    return points[-1]


def _ref_run(inst, x0, N, tol=0.0, policy="least_norm", stop_on="grad_gap",
             solve=solve_dca_subproblem):
    """DCA recorded one point at a time, each step's link tested as its
    point is recorded: (points, stop_reason)."""
    policy = kink_policy(policy)
    points = []
    _ref_record(points, inst, np.atleast_1d(np.asarray(x0, dtype=float)),
                policy)
    for _ in range(N):
        cur = points[-1]
        try:
            x_new = solve(inst.f1, cur.g2)
        except Unbounded:
            return points, STOP_UNBOUNDED
        nxt = _ref_record(points, inst, x_new, policy, g1=cur.g2.copy())
        if tol > 0.0:
            crit = (math.sqrt(nxt.G_norm_sq) if stop_on == "grad_gap"
                    else points[-2].T)
            if crit <= tol:
                return points, STOP_CRITICALITY
    return points, STOP_MAX_ITERS


def _ref_check(inst, pts):
    """trajectory_from_json's checks in their order: every point recorded
    again with its stored subgradients, then per point the link and the
    stored numbers, each relative to the size of its own terms."""
    fresh = []
    for p in pts:
        _ref_record(fresh, inst, p.x, g1=p.g1, g2=p.g2)
    for p, exact, q, nxt in zip(pts, fresh, pts[1:] + [None],
                                fresh[1:] + [None]):
        size = {"f1": abs(exact.f1), "f2": abs(exact.f2),
                "F": abs(exact.f1) + abs(exact.f2),
                "G_norm_sq": exact.G_norm_sq, "dx_norm_sq": exact.dx_norm_sq}
        if nxt is not None:
            size["T"] = (abs(exact.f1) + abs(nxt.f1)
                         + abs(float(nxt.g1 @ (exact.x - nxt.x))))
        if q is not None:
            gap = float(np.linalg.norm(q.g1 - p.g2))
            if gap > LINK_TOL * float(np.linalg.norm(p.g2)):
                raise InvalidParams("step %d: stored g1 of the next point "
                                    "differs from g2 by %g (link "
                                    "g1^{k+1} = g2^k)" % (p.k, gap))
        for name in FIELDS[1:]:
            stored, want = getattr(p, name), getattr(exact, name)
            if want is not None and not (
                    abs(stored - want) <= RECORD_TOL * size[name]):
                raise InvalidParams("step %d: stored %s = %r, recomputed %r"
                                    % (p.k, name, stored, want))


def _assert_same_points(got, want):
    """Every field equal with ==, of the same type, and every vector of the
    same shape."""
    assert len(got) == len(want)
    for p, r in zip(got, want):
        for name in FIELDS:
            a, b = getattr(p, name), getattr(r, name)
            assert a == b and type(a) is type(b), (p.k, name, a, b)
        for name in ("x", "g1", "g2"):
            a, b = getattr(p, name), getattr(r, name)
            assert a.shape == b.shape and (a == b).all(), (p.k, name, a, b)


def _pin_instances(rng):
    """Seeded instances with f1 of each family: quadratics of d = 1, 2, 3,
    abs-plus-quadratic and max-of-quadratics; with the start for each."""
    out = []
    for d in (1, 2, 3):
        c1 = rng.uniform(0.5, 3.0, d)
        c2 = rng.uniform(-0.4, 0.45, d) * c1
        out.append((quad_instance(c1, rng.normal(size=d), c2,
                                  rng.normal(size=d)), rng.normal(size=d)))
    m1 = rng.uniform(0.5, 3.0)
    f1 = FunctionSpec(AbsPlusQuadratic(rng.uniform(0.2, 2.0), m1, rng.normal()),
                      Curvature(m1, INF))
    for f2 in (FunctionSpec(AbsPlusQuadratic(rng.uniform(0.0, 2.0), 0.5 * m1,
                                             rng.normal()),
                            Curvature(0.5 * m1, INF)),
               FunctionSpec(Quadratic((-0.3 * m1,), (rng.normal(),)),
                            Curvature(-0.3 * m1, 0.0))):
        out.append((make_instance(f1, f2), np.array([0.0])))   # on the kink
    cn, cp = -rng.uniform(0.1, 1.0), rng.uniform(1.5, 3.0)
    c2 = rng.uniform(0.05 - cn, cp - 0.1)
    f1 = FunctionSpec(MaxOfQuadratics(((cn, rng.normal(), rng.normal()),
                                       (cp, rng.normal(), rng.normal()))),
                      Curvature(cn, INF))
    f2 = FunctionSpec(Quadratic((c2,), (rng.normal(),)), Curvature(c2, c2 + 1.0))
    out.append((make_instance(f1, f2), rng.normal(size=1) * 3.0))
    return out


@pytest.mark.parametrize("policy", ["leftmost", "rightmost", "least_norm",
                                    0.25, "0.75"])
def test_run_dca_is_bit_identical_to_a_point_at_a_time_record(policy):
    """The loop keeps only f2's answer and the subproblem, and one stacked
    pass records the rest: every field of every point, the stop reason and
    the point count equal those of a record built one point at a time."""
    rng = np.random.default_rng(25)
    stops = set()
    for _ in range(8):
        for inst, x0 in _pin_instances(rng):
            for tol, stop_on in ((0.0, "grad_gap"), (1e-3, "grad_gap"),
                                 (1e-3, "t_measure")):
                traj = run_dca(inst, x0, 12, tol, policy, stop_on)
                want, stop = _ref_run(inst, x0, 12, tol, policy, stop_on)
                assert traj.stop_reason == stop
                _assert_same_points(traj.points, want)
                stops.add(stop)
    assert stops == {STOP_MAX_ITERS, STOP_CRITICALITY}


def _solver(bad_steps):
    """A subproblem solver whose step k returns bad_steps[k](x) of the true
    solution x, or raises it when it is an exception class."""
    calls = []

    def solve(spec, g):
        k = len(calls)
        calls.append(k)
        x = solve_dca_subproblem(spec, g)
        if k not in bad_steps:
            return x
        if isinstance(bad_steps[k], type):
            raise bad_steps[k]("step %d" % k)
        return bad_steps[k](x)
    return solve


def _patch_solver(monkeypatch, bad_steps):
    """Give run_dca a solver with these bad steps; return a fresh one with
    the same steps for the reference."""
    monkeypatch.setattr(engine, "solve_dca_subproblem", _solver(bad_steps))
    return _solver(bad_steps)


def _raised(fn, *args, **kwargs):
    with pytest.raises(InvalidParams) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


@pytest.mark.parametrize("later", ["point", "f1"])
@pytest.mark.parametrize("tol, stop_on", [(0.0, "grad_gap"),
                                          (1e-300, "t_measure")])
def test_link_failure_is_raised_before_a_later_failure(monkeypatch, tol,
                                                       stop_on, later):
    """Step 1's subproblem answer is off, so the link fails at point 2.  Step
    3's answer fails later: it is not finite, which the loop meets first,
    or f1 overflows there while f2, flat, does not, which only the stacked
    pass meets when the stopping rule does not read f1.  The error is still
    the link's at step 2."""
    if later == "point":
        inst = quad_instance([2.0, 3.0], [0.1, -0.2], [1.0, 0.5], [0.3, 0.0])
        x0, bad = np.array([1.0, -1.0]), lambda x: x * np.inf
    else:
        f1 = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(1.0, INF))
        f2 = FunctionSpec(Quadratic((0.0,), (0.5,)), Curvature(0.0, 0.5))
        inst = make_instance(f1, f2)
        x0, bad = np.array([2.0]), lambda x: np.array([1e200])
    solve = _patch_solver(monkeypatch, {1: lambda x: x + 1.0, 3: bad})
    got = _raised(run_dca, inst, x0, 6, tol, stop_on=stop_on)
    assert got.startswith("step 2: g1 = ")
    assert got == _raised(_ref_run, inst, x0, 6, tol, stop_on=stop_on,
                          solve=solve)


@pytest.mark.parametrize("tol, stop_on", [(0.0, "grad_gap"),
                                          (1e-300, "t_measure")])
def test_f1_error_comes_before_f2_error_at_one_point(monkeypatch, tol,
                                                     stop_on):
    """At x = 1e200 both values overflow; the error names f1's gradient."""
    inst = quad_instance([2.0, 3.0], [0.1, -0.2], [1.0, 0.5], [0.3, 0.0])
    solve = _patch_solver(monkeypatch, {1: lambda x: np.full(2, 1e200)})
    with np.errstate(over="ignore"):
        got = _raised(run_dca, inst, np.array([1.0, -1.0]), 5, tol,
                      stop_on=stop_on)
        assert got == _raised(evaluate, inst.f1, np.full(2, 1e200))
        assert got == _raised(_ref_run, inst, np.array([1.0, -1.0]), 5, tol,
                              stop_on=stop_on, solve=solve)


@pytest.mark.parametrize("tol, stop_on", [(0.0, "grad_gap"),
                                          (1e-300, "grad_gap"),
                                          (1e-300, "t_measure")])
def test_f2_value_overflow_is_raised_at_its_step(tol, stop_on):
    """f1 = x^2/2 and f2 = 2x^2 from x0 = 6.25e152: x^k = 4^k x0, so at step
    2 f2's value overflows while its gradient and f1 stay finite, and at
    step 3 f1 overflows too.  The loop, which asks f2 only for its gradient,
    runs past step 2; the error is still f2's at step 2, as a point-at-a-time
    record raises it."""
    inst = quad_instance(1.0, 0.0, 4.0, 0.0)
    x0 = np.array([6.25e152])
    with np.errstate(over="ignore"):
        x2 = np.array([16.0 * 6.25e152])
        assert math.isfinite(evaluate(inst.f1, x2).value)
        assert np.isfinite(subgradient(inst.f2, x2, "least_norm")).all()
        got = _raised(run_dca, inst, x0, 6, tol, stop_on=stop_on)
        assert got.startswith("value inf or subgradient ")
        assert got == _raised(evaluate, inst.f2, x2)
        assert got == _raised(_ref_run, inst, x0, 6, tol, stop_on=stop_on)


def test_unbounded_stop_keeps_the_prefix(monkeypatch):
    inst = quad_instance([2.0, 3.0], [0.1, -0.2], [1.0, 0.5], [0.3, 0.0])
    solve = _patch_solver(monkeypatch, {3: Unbounded})
    traj = run_dca(inst, np.array([1.0, -1.0]), 8)
    want, stop = _ref_run(inst, np.array([1.0, -1.0]), 8, solve=solve)
    assert traj.stop_reason == stop == STOP_UNBOUNDED
    assert len(traj.points) == 4
    _assert_same_points(traj.points, want)


def test_trajectory_from_json_names_the_same_first_mismatch():
    """Two stored numbers or vectors changed at random points: the error is
    the one the point-at-a-time checks meet first (a subgradient test at any
    point before any link or stored number), or none for both."""
    rng = np.random.default_rng(7)
    keys = ("x", "f1", "f2", "F", "g1", "g2", "G_norm_sq", "T", "dx_norm_sq")
    errors = set()
    for trial in range(300):
        inst, x0 = _pin_instances(rng)[trial % 6]
        body = trajectory_to_json(run_dca(inst, x0, 6))
        pts = body["points"]
        for _ in range(2):
            q = pts[int(rng.integers(len(pts) - 1))]
            key = keys[int(rng.integers(len(keys)))]
            if key in ("x", "g1", "g2"):
                q[key] = [v + float(rng.choice([1e-9, 1e-3])) for v in q[key]]
            else:
                q[key] *= 1.0 + float(rng.choice([1e-9, 1e-3]))
        ref = [TrajectoryPoint(q["k"], *[np.array(q[key]) if key in
                                         ("x", "g1", "g2") else q[key]
                                         for key in ("x", "f1", "f2", "F",
                                                     "g1", "g2", "G_norm_sq",
                                                     "T", "dx_norm_sq")])
               for q in pts]
        try:
            _ref_check(inst, ref)
            want = None
        except InvalidParams as exc:
            want = str(exc)
        try:
            trajectory_from_json(body)
            got = None
        except InvalidParams as exc:
            got = str(exc)
        assert got == want
        errors.add(None if want is None else want.split(":")[1].split()[0])
    assert {"g1", "g2", "stored"} <= errors


def test_t_measure_is_the_two_point_record():
    """T^k of a run is the T of the two-point record (x^k, x^{k+1}) with
    the run's g1^{k+1}, which that record checks."""
    inst = quad_instance([2.0, 3.0], [0.1, -0.2], [1.0, 0.5], [0.3, 0.0])
    traj = run_dca(inst, np.array([1.0, -1.0]), 4)
    for k in range(traj.n_steps):
        step = engine._record(inst, traj.X[k:k + 2], g1=traj.G1[k + 1:k + 2])
        assert step.T.tolist() == [traj.T[k]]
    with pytest.raises(InvalidParams, match="^step 1: g1 = "):
        engine._record(inst, traj.X[k:k + 2], g1=traj.G1[k + 1:k + 2] + 1.0)


def test_stored_link_is_checked_relative_to_g2():
    """f1 = |x| + x^2/2 and f2 = x^2/4 + 0.01 x from x = 1 reach the kink
    at 0 in one step and stay there, with g2 = 0.01.  A stored g1 at point 2
    moved by 1e-13 is still a subgradient of f1 there and changes no stored
    number past RECORD_TOL, but it breaks the link by 1e-11 of g2, which a
    LINK_TOL * max(1, ||g2||) check let through."""
    f1 = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(1.0, INF))
    f2 = FunctionSpec(Quadratic((0.5,), (0.01,)), Curvature(0.5, 1.0))
    body = trajectory_to_json(run_dca(make_instance(f1, f2), np.array([1.0]), 3))
    assert [p["x"] for p in body["points"]] == [[1.0], [0.0], [0.0], [0.0]]
    trajectory_from_json(body)
    body["points"][2]["g1"][0] += 1e-13
    with pytest.raises(InvalidParams, match="^step 1: stored g1 of the next "
                                            "point differs from g2 by "):
        trajectory_from_json(body)


def test_stored_numbers_are_sized_by_their_own_terms():
    """f1 = 1e-20 (x^2/2 + x) and f2 = 0.5e-20 x^2/2 from x = 1: every value
    is about 1e-20.  Point 1's stored f1 doubled, with F made to agree, is
    off by 4e-21, which a RECORD_TOL * max(1, |f1|) bound let through."""
    inst = quad_instance(1e-20, 1e-20, 0.5e-20, 0.0)
    body = trajectory_to_json(run_dca(inst, np.array([1.0]), 3))
    trajectory_from_json(body)
    q = body["points"][1]
    q["f1"] *= 2.0
    q["F"] = q["f1"] - q["f2"]
    with pytest.raises(InvalidParams, match="^step 1: stored f1 = "):
        trajectory_from_json(body)
