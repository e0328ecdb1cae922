"""DCA driver: run the iteration and record everything the certificates read.

Each iteration linearizes f2 at the current point and minimizes
f1(w) - <g2, w> exactly; the optimality condition of that subproblem gives the
link identity g1^{k+1} = g2^k.  That step is the only sequential work, so the
loop keeps f2's value and subgradient at each point, and one stacked pass
over the finished run evaluates f1, asserts the link at every step and forms
F, G_norm_sq, T and dx_norm_sq.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import InvalidParams
from .oracles import (LINK_TOL, DcInstance, OracleAnswer, Policy, Unbounded,
                      _dot, _norm, evaluate, instance_from_json,
                      instance_to_json, is_subgradient, kink_policy,
                      solve_dca_subproblem)

RECORD_TOL = 1e-12   # relative; stored numbers against their recomputation

STOP_MAX_ITERS = "max_iters"
STOP_CRITICALITY = "criticality_tol"
STOP_UNBOUNDED = "subproblem_unbounded"


@dataclass
class TrajectoryPoint:
    k: int
    x: np.ndarray
    f1: float
    f2: float
    F: float
    g1: np.ndarray
    g2: np.ndarray
    G_norm_sq: float
    T: Optional[float] = None
    dx_norm_sq: Optional[float] = None  # ||x^k - x^{k+1}||^2, set once known


@dataclass
class Trajectory:
    points: list
    instance: DcInstance
    stop_reason: str = STOP_MAX_ITERS

    @property
    def n_steps(self) -> int:
        return len(self.points) - 1

    def min_grad_gap_sq(self) -> float:
        return min(p.G_norm_sq for p in self.points)

    def min_t(self) -> float:
        """min T(x^k) over k = 0..N-1 (the points that took a step)."""
        return min(p.T for p in self.points[:-1])


def _sq_dist(a: np.ndarray, b: np.ndarray):
    """||a - b||^2 of two vectors, or of each pair of rows of two stacks."""
    d = a - b
    return np.add.reduce(d * d, axis=-1)


def t_measure(instance: DcInstance, x, x_plus, g1_plus) -> float:
    """Linearization gap f1(x) - f1(x+) - <g1+, x - x+> of a genuine step:
    T of the two-point record (x, x+), where g1+ must be a subgradient of f1
    at x+."""
    X = np.array([np.atleast_1d(x), np.atleast_1d(x_plus)], dtype=float)
    g1 = np.atleast_1d(np.asarray(g1_plus, dtype=float))[None]
    return _record(instance, X, g1=g1)[0].T


def _record(instance: DcInstance, X: np.ndarray, policy: Policy = "least_norm",
            g1=None, g2=None, f2: Optional[OracleAnswer] = None,
            k0: int = 0) -> list:
    """The points at the rows of the (n, d) stack X, numbered from k0.

    g1 holds the g1 of the last len(g1) points and g2 the g2 of every point;
    each given one must be a subgradient, and the rest are the oracles'
    picks.  f2, the answer of f2's oracle at X when the caller has it, spares
    evaluating it again.  F and G_norm_sq, and T and dx_norm_sq of every
    point but the last, are computed here and nowhere else.  A point is
    checked in the order f1's evaluation, f2's, then g1's and g2's tests; a
    stack whose evaluation fails is recorded again one point at a time, so
    InvalidParams is always that of the first failing point.
    """
    n = len(X)
    m = 0 if g1 is None else len(g1)
    try:
        a1 = evaluate(instance.f1, X, policy)
        a2 = evaluate(instance.f2, X, policy) if f2 is None else f2
    except InvalidParams:
        for k in range(n if n > 1 else 0):
            j = k - (n - m)       # the row of g1 that point k has, if j >= 0
            _record(instance, X[k:k + 1], policy,
                    g1[j:j + 1] if j >= 0 else None,
                    None if g2 is None else g2[k:k + 1], k0=k0 + k)
        raise
    fails = []
    for name, spec, start, g, a in (("g1", instance.f1, n - m, g1, a1),
                                    ("g2", instance.f2, 0, g2, a2)):
        if g is not None and len(g):
            ok = is_subgradient(spec, X[start:], g, a.subgradient[start:])
            if not ok.all():
                i = int(np.argmin(ok))
                fails.append((start + i, name, g[i]))
    if fails:   # the first failing point; at a tie, g1 (listed first)
        k, name, g = min(fails, key=lambda f: f[0])
        raise InvalidParams("step %d: %s = %r is not a subgradient of f%s "
                            "at x" % (k0 + k, name, g.tolist(), name[1]))
    G1 = a1.subgradient if not m else np.concatenate(
        [a1.subgradient[:n - m], g1])
    G2 = a2.subgradient if g2 is None else g2
    f1, dX = a1.value, X[:-1] - X[1:]
    T = f1[:-1] - f1[1:] - _dot(G1[1:], dX)
    return [TrajectoryPoint(k0 + k, *row) for k, row in enumerate(zip(
        X, f1.tolist(), a2.value.tolist(), (f1 - a2.value).tolist(), G1, G2,
        _sq_dist(G1, G2).tolist(), T.tolist() + [None],
        _sq_dist(X[:-1], X[1:]).tolist() + [None]))]


def run_dca(instance: DcInstance, x0, N: int, tol: float = 0.0,
            policy: Policy = "least_norm", stop_on: str = "grad_gap") -> Trajectory:
    """Run at most N DCA iterations from x0.

    tol > 0 stops early on criticality: ||g1 - g2|| <= tol when
    stop_on="grad_gap", or T(x^k) <= tol when stop_on="t_measure".  The loop
    evaluates f2 at each point and solves the subproblem for the next, plus
    f1 when the stopping rule reads T; the finished run is then recorded in
    one stacked pass.  Its errors are those of the first failing step, even
    when the loop has run past it.
    """
    if N < 1:
        raise InvalidParams("N must be >= 1")
    if stop_on not in ("grad_gap", "t_measure"):
        raise InvalidParams("stop_on must be 'grad_gap' or 't_measure'")
    policy = kink_policy(policy)
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (instance.dimension,):
        raise InvalidParams("x0 has dimension %d, instance needs %d"
                            % (x.size, instance.dimension))

    X, F1, F2, G2 = [x], [], [], []
    stop = STOP_MAX_ITERS
    try:
        for k in range(N + 1):
            if tol > 0.0 and stop_on == "t_measure":
                F1.append(evaluate(instance.f1, X[k], policy).value)
            a2 = evaluate(instance.f2, X[k], policy)
            F2.append(a2.value)
            G2.append(a2.subgradient)
            if k and tol > 0.0:
                # with the link g1^k = g2^{k-1}: ||G^k||, or T(x^{k-1})
                crit = (math.sqrt(_sq_dist(G2[k - 1], G2[k]))
                        if stop_on == "grad_gap" else
                        F1[k - 1] - F1[k] - _dot(G2[k - 1], X[k - 1] - X[k]))
                if crit <= tol:
                    stop = STOP_CRITICALITY
                    break
            if k == N:
                break
            try:
                X.append(solve_dca_subproblem(instance.f1, G2[k]))
            except Unbounded:
                stop = STOP_UNBOUNDED
                break
    except InvalidParams:
        # the loop runs past a step whose f1 or link fails: the points it
        # finished come first, then f1 where f2 (or f1 itself) failed
        done = len(G2)
        if done:
            _record(instance, np.array(X[:done]), policy,
                    np.array(G2[:done - 1]))
        if len(X) > done:
            evaluate(instance.f1, X[done], policy)
        raise
    # the record asserts each DCA link: g2^k is a subgradient of f1 at x^{k+1}
    G2 = np.array(G2)
    points = _record(instance, np.array(X), policy, g1=G2[:-1],
                     f2=OracleAnswer(np.array(F2), G2))
    return Trajectory(points, instance, stop)


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = ["k", "F", "G_norm_sq", "T", "dx_norm_sq"]


def trajectory_to_csv(traj: Trajectory) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(CSV_HEADER)
    for p in traj.points:
        w.writerow([p.k, repr(p.F), repr(p.G_norm_sq),
                    "" if p.T is None else repr(p.T),
                    "" if p.dx_norm_sq is None else repr(p.dx_norm_sq)])
    return buf.getvalue()


def trajectory_to_json(traj: Trajectory) -> dict:
    return {
        "instance": instance_to_json(traj.instance),
        "stop_reason": traj.stop_reason,
        "points": [{
            "k": p.k, "x": p.x.tolist(), "f1": p.f1, "f2": p.f2, "F": p.F,
            "g1": p.g1.tolist(), "g2": p.g2.tolist(),
            "G_norm_sq": p.G_norm_sq, "T": p.T, "dx_norm_sq": p.dx_norm_sq,
        } for p in traj.points],
    }


def trajectory_from_json(d: dict) -> Trajectory:
    inst = instance_from_json(d["instance"])
    pts = []
    for q in d["points"]:
        vecs = [np.array(q[key], dtype=float) for key in ("x", "g1", "g2")]
        if any(v.shape != (inst.dimension,) for v in vecs):
            raise InvalidParams("point %r: x, g1 and g2 need dimension %d"
                                % (q["k"], inst.dimension))
        t_dx = [None if q.get(key) is None else float(q[key])
                for key in ("T", "dx_norm_sq")]
        pts.append(TrajectoryPoint(
            int(q["k"]), vecs[0], float(q["f1"]), float(q["f2"]),
            float(q["F"]), vecs[1], vecs[2], float(q["G_norm_sq"]), *t_dx))
    if not pts or any(p.T is None or p.dx_norm_sq is None for p in pts[:-1]):
        raise InvalidParams("trajectory needs points, each but the last "
                            "with T and dx_norm_sq")
    _check_recorded(inst, pts)
    return Trajectory(pts, inst, str(d["stop_reason"]))


def _check_recorded(inst: DcInstance, pts: list) -> None:
    """Record the points again from the instance at their stored x, with
    their stored subgradients, as run_dca records them; check the link
    g1^{k+1} = g2^k (run_dca writes g1^{k+1} as a copy of g2^k) and
    compare.  InvalidParams names the first mismatch."""
    stack = lambda key: np.array([getattr(p, key) for p in pts])
    fresh = _record(inst, stack("x"), g1=stack("g1"), g2=stack("g2"))
    for p, exact, q in zip(pts, fresh, pts[1:] + [None]):
        if q is not None:
            # the DCA link: g1 at the next point is the current g2
            gap = _norm(q.g1 - p.g2)
            if gap > LINK_TOL * _norm(p.g2):
                raise InvalidParams("step %d: stored g1 of the next point "
                                    "differs from g2 by %g (link "
                                    "g1^{k+1} = g2^k)" % (p.k, gap))
        for name in ("f1", "f2", "F", "G_norm_sq", "T", "dx_norm_sq"):
            stored, want = getattr(p, name), getattr(exact, name)
            if want is not None and not (
                    abs(stored - want) <= RECORD_TOL * max(1.0, abs(want))):
                raise InvalidParams("step %d: stored %s = %r, recomputed %r"
                                    % (p.k, name, stored, want))
