"""Pairwise interpolation checks for the curvature classes.

A set of triplets (x, g, f) extends to some member of the class with lower
curvature mu and upper curvature L iff for every ordered pair (i, j)

    f_i - f_j - <g_j, x_i - x_j>
        >= 1/(2L) ||g_i - g_j||^2
         + mu/(2L(L-mu)) ||g_i - g_j - L (x_i - x_j)||^2,

with the L = inf limit   f_i - f_j - <g_j, x_i - x_j> >= mu/2 ||x_i - x_j||^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import Curvature, InvalidParams

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Triplet:
    x: np.ndarray
    g: np.ndarray
    f: float


def make_triplet(x, g, f) -> Triplet:
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    gv = np.atleast_1d(np.asarray(g, dtype=float))
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(gv))
            and math.isfinite(float(f))):
        raise InvalidParams("triplet entries must be finite")
    return Triplet(xv, gv, float(f))


@dataclass(frozen=True)
class InterpReport:
    slack: np.ndarray       # slack[i, j] = LHS - RHS of the (i, j) inequality
    min_slack: float
    feasible: bool
    tol: float


def _lower_bound(cls, dx: np.ndarray, dg: np.ndarray):
    """Right-hand side of the inequality for differences dx = x_i - x_j,
    dg = g_i - g_j, summed over the last axis: one pair or a grid of pairs.

    cls may also be a sequence of classes, one per leading entry of a stacked
    dg that shares dx; each entry is then bounded with its own class.
    """
    if not isinstance(cls, Curvature):
        return np.stack([_lower_bound(c, dx, g) for c, g in zip(cls, dg)])
    mu, L = cls.mu, cls.L
    if math.isinf(L):
        return 0.5 * mu * (dx * dx).sum(-1)
    r = dg - L * dx
    return ((dg * dg).sum(-1) / (2.0 * L)
            + mu / (2.0 * L * (L - mu)) * (r * r).sum(-1))


def pair_lower_bound(cls: Curvature, dx: np.ndarray, dg: np.ndarray) -> float:
    """Right-hand side of the inequality for one pair."""
    return float(_lower_bound(cls, dx, dg))


def pair_slack(cls: Curvature, ti: Triplet, tj: Triplet) -> float:
    dx = ti.x - tj.x
    lhs = ti.f - tj.f - float(tj.g @ dx)
    return lhs - pair_lower_bound(cls, dx, ti.g - tj.g)


def pair_matrix(X: np.ndarray, G: np.ndarray, cls) -> np.ndarray:
    """c[i, j]: minimal feasible f^i - f^j given the (x, g) data.

    G may also be a stack (k, n, d) of gradient sets at the same points X,
    with cls a sequence of k classes; c is then (k, n, n).
    """
    dX = X[:, None, :] - X[None, :, :]
    dG = G[..., :, None, :] - G[..., None, :, :]
    c = np.einsum("...jd,ijd->...ij", G, dX) + _lower_bound(cls, dX, dG)
    np.einsum("...ii->...i", c)[...] = 0.0     # a view of the diagonal(s)
    return c


def check_interpolation(triplets, cls: Curvature, tol: float = DEFAULT_TOL,
                        scale_aware: bool = False) -> InterpReport:
    """Evaluate all n(n-1) ordered-pair inequalities.

    scale_aware divides each slack by max(1, magnitudes of the pair's data)
    before comparing against tol, for use on probe witnesses of wild scale.
    """
    n = len(triplets)
    if n < 2:
        return InterpReport(np.zeros((n, n)), 0.0, True, tol)
    X = np.array([t.x for t in triplets])
    G = np.array([t.g for t in triplets])
    F = np.array([t.f for t in triplets])
    S = F[:, None] - F[None, :] - pair_matrix(X, G, cls)
    eff = S
    if scale_aware:
        dX = X[:, None, :] - X[None, :, :]
        dG = G[:, None, :] - G[None, :, :]
        absF = np.abs(F)
        scale = np.maximum(np.maximum(1.0, np.sum(dG * dG, axis=-1)),
                           np.maximum(np.sum(dX * dX, axis=-1),
                                      np.maximum(absF[:, None], absF[None, :])))
        eff = S / scale
    off = ~np.eye(n, dtype=bool)
    return InterpReport(S, float(np.min(S[off])),
                        bool(np.min(eff[off]) >= -tol), tol)


def sample_triplets(spec, xs) -> list:
    """Exact triplets of a function family at the given points."""
    from .oracles import evaluate
    out = []
    for x in xs:
        a = evaluate(spec, x)
        out.append(make_triplet(x, a.subgradient, a.value))
    return out


def triplets_to_json(triplets) -> list:
    return [{"x": t.x.tolist(), "g": t.g.tolist(), "f": t.f} for t in triplets]


def triplets_from_json(rows) -> list:
    return [make_triplet(r["x"], r["g"], r["f"]) for r in rows]
