"""DCA driver: run the iteration and record everything the certificates read.

Each iteration linearizes f2 at the current point and minimizes
f1(w) - <g2, w> exactly; the optimality condition of that subproblem gives the
link identity g1^{k+1} = g2^k, recorded and asserted at every step.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import InvalidParams
from .oracles import (LINK_TOL, DcInstance, Policy, Unbounded, _norm,
                      evaluate, instance_from_json, instance_to_json,
                      is_subgradient, kink_policy, solve_dca_subproblem)

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


def _sq_dist(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.add.reduce(d * d))


def t_measure(instance: DcInstance, x, x_plus, g1_plus) -> float:
    """Linearization gap f1(x) - f1(x+) - <g1+, x - x+> of a genuine step."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    xp = np.atleast_1d(np.asarray(x_plus, dtype=float))
    gp = np.atleast_1d(np.asarray(g1_plus, dtype=float))
    f1x = evaluate(instance.f1, xv).value
    f1p = evaluate(instance.f1, xp).value
    return f1x - f1p - float(gp @ (xv - xp))


def _record(points: list, instance: DcInstance, x: np.ndarray,
            policy: Policy = "least_norm", g1=None, g2=None) -> TrajectoryPoint:
    """Append the point at x: values from the oracles, and g1, g2 the
    oracles' picks unless given, in which case each must be a subgradient.
    F and G_norm_sq, and T and dx_norm_sq of the point before it, are
    computed here and nowhere else."""
    a1, a2 = evaluate(instance.f1, x, policy), evaluate(instance.f2, x, policy)
    for name, spec, g, a in (("g1", instance.f1, g1, a1),
                             ("g2", instance.f2, g2, a2)):
        if g is not None and not is_subgradient(spec, x, g, a.subgradient):
            raise InvalidParams("step %d: %s = %r is not a subgradient of f%s "
                                "at x" % (len(points), name, g.tolist(), name[1]))
    g1 = a1.subgradient if g1 is None else g1
    g2 = a2.subgradient if g2 is None else g2
    if points:
        prev = points[-1]
        prev.T = prev.f1 - a1.value - float(g1 @ (prev.x - x))
        prev.dx_norm_sq = _sq_dist(prev.x, x)
    pt = TrajectoryPoint(len(points), x, a1.value, a2.value,
                         a1.value - a2.value, g1, g2, _sq_dist(g1, g2))
    points.append(pt)
    return pt


def run_dca(instance: DcInstance, x0, N: int, tol: float = 0.0,
            policy: Policy = "least_norm", stop_on: str = "grad_gap") -> Trajectory:
    """Run at most N DCA iterations from x0.

    tol > 0 stops early on criticality: ||g1 - g2|| <= tol when
    stop_on="grad_gap", or T(x^k) <= tol when stop_on="t_measure".
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

    points = []
    _record(points, instance, x, policy)
    stop = STOP_MAX_ITERS

    for _ in range(N):
        cur = points[-1]
        try:
            x_new = solve_dca_subproblem(instance.f1, cur.g2)
        except Unbounded:
            stop = STOP_UNBOUNDED
            break
        # the subproblem optimality condition supplies g1 at the new point,
        # the link g1^{k+1} = g2^k; past the precision of the instance's
        # numbers (|b| near 2^53) it is no subgradient, and the run is refused
        nxt = _record(points, instance, x_new, policy, g1=cur.g2.copy())
        if tol > 0.0:
            crit = math.sqrt(nxt.G_norm_sq) if stop_on == "grad_gap" else cur.T
            if crit <= tol:
                stop = STOP_CRITICALITY
                break
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
    """Rebuild each point from the instance at its stored x, with its stored
    subgradients, as run_dca records it; check the link g1^{k+1} = g2^k and
    compare.  InvalidParams names the first mismatch."""
    fresh = []
    for p in pts:
        _record(fresh, inst, p.x, g1=p.g1, g2=p.g2)
    for p, exact, q in zip(pts, fresh, pts[1:] + [None]):
        if q is not None:
            # the DCA link: g1 at the next point is the current g2
            gap = _norm(q.g1 - p.g2)
            if gap > LINK_TOL * max(1.0, _norm(p.g2)):
                raise InvalidParams("step %d: stored g1 of the next point "
                                    "differs from g2 by %g (link "
                                    "g1^{k+1} = g2^k)" % (p.k, gap))
        for name in ("f1", "f2", "F", "G_norm_sq", "T", "dx_norm_sq"):
            stored, want = getattr(p, name), getattr(exact, name)
            if want is not None and not (
                    abs(stored - want) <= RECORD_TOL * max(1.0, abs(want))):
                raise InvalidParams("step %d: stored %s = %r, recomputed %r"
                                    % (p.k, name, stored, want))

