"""DCA driver: run the iteration and record everything the certificates read.

Each iteration linearizes f2 at the current point and minimizes
f1(w) - <g2, w> exactly; the optimality condition of that subproblem gives the
link identity g1^{k+1} = g2^k.  That step is the only sequential work, so the
loop asks f2 only for its subgradient at each point, and one stacked pass
over the finished run evaluates f1 and f2, asserts the link at every step
and forms F, G_norm_sq, T and dx_norm_sq.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .curvature import InvalidParams
from .oracles import (LINK_TOL, DcInstance, Policy, Unbounded, _dot, _norm,
                      evaluate, instance_from_json, instance_to_json,
                      is_subgradient, kink_policy, solve_dca_subproblem,
                      subgradient)

RECORD_TOL = 1e-12   # relative; stored numbers against their recomputation

STOP_MAX_ITERS = "max_iters"
STOP_CRITICALITY = "criticality_tol"
STOP_UNBOUNDED = "subproblem_unbounded"
STOP_REASONS = (STOP_MAX_ITERS, STOP_CRITICALITY, STOP_UNBOUNDED)


class TrajectoryPoint(NamedTuple):
    """Point k of a run, as Trajectory.points reads it from the columns; the
    per-point API, kept for per-point callers (the JSON and CSV writers and
    the benchmark's verify item, bench/workloads.py)."""
    k: int
    x: np.ndarray
    f1: float
    f2: float
    F: float
    g1: np.ndarray
    g2: np.ndarray
    G_norm_sq: float
    T: Optional[float] = None
    dx_norm_sq: Optional[float] = None  # ||x^k - x^{k+1}||^2; None on the last


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A finished run as columns: row k of X, G1, G2 (n, d) and of f1, f2,
    F, G_norm_sq (n,) is point k, and T, dx_norm_sq (n - 1,) hold one entry
    per step.  Each column is stored read-only, as given when it is a
    read-only float array owning its memory, which nothing else can write,
    else as a copy.  No field can be assigned, so what is derived from a run
    is never stale; dataclasses.replace makes a changed run."""
    X: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    F: np.ndarray
    G_norm_sq: np.ndarray
    T: np.ndarray
    dx_norm_sq: np.ndarray
    instance: DcInstance
    stop_reason: str

    def __post_init__(self):
        for f in fields(self)[:9]:      # the columns
            column = getattr(self, f.name)
            if (type(column) is not np.ndarray or column.dtype != np.float64
                    or column.flags.writeable or column.base is not None):
                column = np.array(column, dtype=float)
                column.setflags(write=False)
                object.__setattr__(self, f.name, column)

    @cached_property
    def points(self) -> tuple:
        """One read-only TrajectoryPoint per point, built on first read: the
        per-point API, kept for per-point callers (the JSON and CSV writers
        and the benchmark's verify item); the columns are the run."""
        return tuple(map(TrajectoryPoint._make, zip(
            range(len(self.X)), self.X, self.f1.tolist(), self.f2.tolist(),
            self.F.tolist(), self.G1, self.G2, self.G_norm_sq.tolist(),
            self.T.tolist() + [None], self.dx_norm_sq.tolist() + [None])))

    @property
    def n_steps(self) -> int:
        return len(self.X) - 1


def _sq_dist(a: np.ndarray, b: np.ndarray):
    """||a - b||^2 of two vectors, or of each pair of rows of two stacks."""
    d = a - b
    return np.add.reduce(d * d, axis=-1)


def _record(instance: DcInstance, X: np.ndarray, policy: Policy = "least_norm",
            g1=None, g2=None, k0: int = 0,
            stop_reason: str = STOP_MAX_ITERS) -> Trajectory:
    """The run through the rows of the (n, d) stack X, whose errors number
    its points from k0.

    g1 holds the g1 of the last len(g1) points and g2 the g2 of every point;
    each given one must be a subgradient, and the rest are the oracles'
    picks.  F and G_norm_sq, and T and dx_norm_sq of every
    point but the last, are computed here and nowhere else.  A point is
    checked in the order f1's evaluation, f2's, then g1's and g2's tests; a
    stack whose evaluation fails is recorded again one point at a time, so
    InvalidParams is always that of the first failing point.
    """
    n = len(X)
    m = 0 if g1 is None else len(g1)
    try:
        a1 = evaluate(instance.f1, X, policy)
        a2 = evaluate(instance.f2, X, policy)
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
    f1, f2, dX = a1.value, a2.value, X[:-1] - X[1:]
    columns = (X, G1, G2, f1, f2, f1 - f2, _sq_dist(G1, G2),
               f1[:-1] - f1[1:] - _dot(G1[1:], dX),
               np.add.reduce(dX * dX, axis=-1))
    for a in columns[1:]:   # made here, but for X and a given g2
        if a is not g2:
            a.setflags(write=False)
    return Trajectory(*columns, instance, stop_reason)


def run_dca(instance: DcInstance, x0, N: int, tol: float = 0.0,
            policy: Policy = "least_norm", stop_on: str = "grad_gap") -> Trajectory:
    """Run at most N DCA iterations from x0.

    tol > 0 stops early on criticality: ||g1 - g2|| <= tol when
    stop_on="grad_gap", or T(x^k) <= tol when stop_on="t_measure".  The loop
    takes f2's subgradient at each point and solves the subproblem for the
    next, plus f1's value when the stopping rule reads T; the finished run,
    f2's values with it, is then recorded in one stacked pass.  Its errors
    are those of the first failing step, even when the loop has run past
    it.
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

    X, F1, G2 = [x], [], []
    stop = STOP_MAX_ITERS
    try:
        for k in range(N + 1):
            if tol > 0.0 and stop_on == "t_measure":
                F1.append(evaluate(instance.f1, X[k], policy).value)
            G2.append(subgradient(instance.f2, X[k], policy))
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
        # the loop runs past a step whose f1, f2's value or link fails:
        # recording the points it reached raises the first failing step's
        # error
        _record(instance, np.array(X), policy, np.array(G2[:len(X) - 1]))
        raise
    # the record asserts each DCA link: g2^k is a subgradient of f1 at x^{k+1}
    return _record(instance, np.array(X), policy, g1=np.array(G2[:-1]),
                   stop_reason=stop)


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
        "points": [dict(p._asdict(), x=p.x.tolist(), g1=p.g1.tolist(),
                        g2=p.g2.tolist()) for p in traj.points],
    }


def trajectory_from_json(d: dict) -> Trajectory:
    """The run stored in d, checked; point k must be its k-th entry, k an
    integer (a JSON number without a fraction), and the last point, which
    starts no step, has neither T nor dx_norm_sq."""
    inst = instance_from_json(d["instance"])
    pts = d["points"]
    for i, q in enumerate(pts):
        k = q["k"]
        # int(k) before k != i, so an infinite k raises OverflowError
        if type(k) not in (int, float) or int(k) != i or k != i:
            raise InvalidParams("point %d: k = %r, not its position" % (i, k))
        if any(np.shape(q[key]) != (inst.dimension,)
               for key in ("x", "g1", "g2")):
            raise InvalidParams("point %d: x, g1 and g2 need dimension %d"
                                % (i, inst.dimension))
    if not pts or any(q.get(key) is None for q in pts[:-1]
                      for key in ("T", "dx_norm_sq")):
        raise InvalidParams("trajectory needs points, each but the last "
                            "with T and dx_norm_sq")
    if any(pts[-1].get(key) is not None for key in ("T", "dx_norm_sq")):
        raise InvalidParams("point %d: the last point starts no step, so its "
                            "T and dx_norm_sq must be null" % (len(pts) - 1))
    if d["stop_reason"] not in STOP_REASONS:
        raise InvalidParams("stop_reason = %r, not one of %s"
                            % (d["stop_reason"], ", ".join(STOP_REASONS)))
    vec = lambda key: np.array([q[key] for q in pts], dtype=float)
    num = lambda key, rows=pts: [float(q[key]) for q in rows]
    traj = Trajectory(vec("x"), vec("g1"), vec("g2"),
                      *map(num, ("f1", "f2", "F", "G_norm_sq")),
                      num("T", pts[:-1]), num("dx_norm_sq", pts[:-1]),
                      inst, d["stop_reason"])
    _check_recorded(traj)
    return traj


def _check_recorded(traj: Trajectory) -> None:
    """Record the run again from the instance at its stored x, with its
    stored subgradients, as run_dca records it; check the link
    g1^{k+1} = g2^k (run_dca writes g1^{k+1} as a copy of g2^k) and compare
    every stored number with its recomputation, relative to the terms it is
    computed from: f1, f2, G_norm_sq and dx_norm_sq their own, F
    |f1| + |f2| and T |f1^k| + |f1^{k+1}| + |<g1^{k+1}, x^k - x^{k+1}>|.
    One pass over the columns; InvalidParams names the first mismatch,
    point by point, each point's link first."""
    fresh = _record(traj.instance, traj.X, g1=traj.G1, g2=traj.G2)
    with np.errstate(invalid="ignore", over="ignore"):
        gap = _norm(traj.G1[1:] - traj.G2[:-1])
        a1, a2 = np.abs(fresh.f1), np.abs(fresh.f2)
        inner = np.abs(_dot(traj.G1[1:], traj.X[:-1] - traj.X[1:]))
        size = {"f1": a1, "f2": a2, "F": a1 + a2,
                "G_norm_sq": fresh.G_norm_sq, "T": a1[:-1] + a1[1:] + inner,
                "dx_norm_sq": fresh.dx_norm_sq}
        bad = np.zeros((len(traj.X), 1 + len(size)), dtype=bool)
        bad[:-1, 0] = gap > LINK_TOL * _norm(traj.G2[:-1])
        for j, (name, s) in enumerate(size.items(), 1):
            diff = np.abs(getattr(traj, name) - getattr(fresh, name))
            bad[:len(s), j] = ~(diff <= RECORD_TOL * s)
    i, j = divmod(int(np.argmax(bad)), bad.shape[1])
    if j:
        name = list(size)[j - 1]
        raise InvalidParams("step %d: stored %s = %r, recomputed %r"
                            % (i, name, float(getattr(traj, name)[i]),
                               float(getattr(fresh, name)[i])))
    if bad[i, 0]:
        raise InvalidParams("step %d: stored g1 of the next point differs "
                            "from g2 by %g (link g1^{k+1} = g2^k)"
                            % (i, gap[i]))
