"""Pairwise interpolation checks for the curvature classes.

A set of triplets (x, g, f) extends to some member of the class with lower
curvature mu and upper curvature L iff for every ordered pair (i, j)

    f_i - f_j - <g_j, x_i - x_j>
        >= mu/2 ||x_i - x_j||^2 + 1/(2(L-mu)) ||g_i - g_j - mu (x_i - x_j)||^2,

with the L = inf limit   f_i - f_j - <g_j, x_i - x_j> >= mu/2 ||x_i - x_j||^2
(Taylor, Hendrickx & Glineur 2017).  Neither term grows like 1/L, so the
bound keeps its accuracy however far L is below |mu|.

Both cases are one expression in four per-class coefficients (a, b, p, q):
with s = p dg - q dx, the right-hand side is

    ||s||^2 / a + b ||dx||^2,

(a, b, p, q) = (2(L-mu), mu/2, 1, mu) for finite L and (inf, mu/2, 0, 0)
for L = inf, where s = 0 exactly.  One L = inf class on its own skips s
and is b ||dx||^2, so it never reads dg, and pair_matrix_cm never forms it.
For a stack of k classes each coefficient is an array with one entry per
class, so k gradient sets at the same points are bounded in one broadcast
pass (pair_matrix_cm), each with its own class, by the same arithmetic as one
finite-L class on its own.

The pair kernel (pair_matrix_cm) is coordinate-major: (..., d, n) points and
gradients, (..., d, n, n) differences.  Its sums over coordinates run in one
order whatever the memory layout: that of numpy's einsum on d-last C-ordered
data up to d = 7, even coordinates then odd ones ((0 + 2) + 1 at d = 3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .curvature import Curvature, InvalidParams

DEFAULT_TOL = 1e-9


class Triplet(NamedTuple):
    x: np.ndarray
    g: np.ndarray
    f: float


def make_triplet(x, g, f) -> Triplet:
    """x and g as float arrays of at least one axis, each in one
    conversion (an ndarray of floats is taken as it is), and f as a float;
    every entry must be finite.  The per-point API, kept for per-point
    callers: triplets_from_json and the benchmark's verify item.
    check_interpolation also takes plain (x, g, f) rows of arrays."""
    xv = np.array(x, dtype=float, ndmin=1, copy=None)
    gv = np.array(g, dtype=float, ndmin=1, copy=None)
    f = float(f)
    entries = xv.ravel().tolist() + gv.ravel().tolist()
    if not (all(map(math.isfinite, entries)) and math.isfinite(f)):
        raise InvalidParams("triplet entries must be finite")
    return Triplet(xv, gv, f)


@dataclass(frozen=True)
class InterpReport:
    slack: np.ndarray       # slack[i, j] = LHS - RHS of the (i, j) inequality
    min_slack: float
    feasible: bool
    tol: float


class BoundCoefficients(NamedTuple):
    """The (a, b, p, q) of the module docstring: (2(L-mu), mu/2, 1, mu) for
    finite L and (inf, mu/2, 0, 0) for L = inf.  Floats for one class; for
    a sequence of k classes, arrays shaped to broadcast over a stack of k
    pair grids: a and b over the (k, n, n) sums, p and q over the (k, d, n, n)
    differences."""
    a: Any
    b: Any
    p: Any
    q: Any


def bound_coefficients(cls) -> BoundCoefficients:
    """Coefficients of one Curvature or of a sequence of them (a stack)."""
    if not isinstance(cls, Curvature):
        a, b, p, q = np.array([bound_coefficients(c) for c in cls]).T
        return BoundCoefficients(a[:, None, None], b[:, None, None],
                                 p[:, None, None, None], q[:, None, None, None])
    mu, L = cls.mu, cls.L
    if math.isinf(L):
        return BoundCoefficients(L, mu / 2.0, 0.0, 0.0)
    return BoundCoefficients(2.0 * (L - mu), mu / 2.0, 1.0, mu)


def _reads_no_dg(coef: BoundCoefficients) -> bool:
    """One L = inf class: its bound is b ||dx||^2 alone."""
    return isinstance(coef.a, float) and math.isinf(coef.a)


def _lower_bound(coef: BoundCoefficients, dx: np.ndarray, dg, axis: int = -1):
    """Right-hand side of the inequality for differences dx = x_i - x_j,
    dg = g_i - g_j, summed over the coordinate axis: one pair, a grid of
    pairs, or a stack of grids with one class each (see bound_coefficients).
    dg may be None where _reads_no_dg(coef)."""
    a, b, p, q = coef
    if _reads_no_dg(coef):
        return b * np.add.reduce(dx * dx, axis)
    s = p * dg - q * dx
    return np.add.reduce(s * s, axis) / a + b * np.add.reduce(dx * dx, axis)


def pair_lower_bound(cls: Curvature, dx: np.ndarray, dg: np.ndarray):
    """Right-hand side of the inequality for one pair, as a float, or for
    each row of (n, d) stacks dx and dg, as an (n,) array."""
    rhs = _lower_bound(bound_coefficients(cls), dx, dg)
    return float(rhs) if dx.ndim == 1 else rhs


def pair_matrix_cm(X: np.ndarray, G: np.ndarray, cls, out=None) -> np.ndarray:
    """c[i, j]: minimal feasible f^i - f^j given coordinate-major points X
    (d, n) and gradients G (d, n); each difference is coordinate-major when
    X and G are.

    G may also be a stack (k, d, n) of gradient sets at the same points X,
    with cls a sequence of k classes; c is then (k, n, n).  Both may carry
    further leading axes that broadcast, as X (m, 1, d, n) against G
    (m, k, d, n) for m point sets with k classes each, c (m, k, n, n).  cls
    may be given as its bound_coefficients, and c written into out.
    """
    coef = cls if isinstance(cls, BoundCoefficients) else bound_coefficients(cls)
    dX = X[..., :, None] - X[..., None, :]
    dG = None if _reads_no_dg(coef) else G[..., :, None] - G[..., None, :]
    # <g_j, x_i - x_j> as einsum sums it, from +0.0 (reduce's start value)
    gdx = G[..., None, :] * dX
    inner = np.add.reduce(gdx[..., ::2, :, :], -3)
    if gdx.shape[-3] > 1:
        inner += np.add.reduce(gdx[..., 1::2, :, :], -3)
    c = np.add(inner, _lower_bound(coef, dX, dG, -3), out=out)
    np.einsum("...ii->...i", c)[...] = 0.0     # a view of the diagonal(s)
    return c


def check_interpolation(triplets, cls: Curvature,
                        tol: float = DEFAULT_TOL) -> InterpReport:
    """Evaluate all n(n-1) ordered-pair inequalities of a sequence of
    (x, g, f) rows: Triplets, or plain tuples of a vector x and g and a
    float f."""
    n = len(triplets)
    if n < 2:
        return InterpReport(np.zeros((n, n)), 0.0, True, tol)
    xs, gs, fs = zip(*triplets)
    X, G = (np.array(vs, order="F").T for vs in (xs, gs))   # C-ordered (d, n)
    F = np.array(fs)
    S = np.subtract.outer(F, F)
    S -= pair_matrix_cm(X, G, cls)
    # after S[0, 0], rows of n + 1 entries that each end at a diagonal one
    min_slack = float(S.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].min())
    return InterpReport(S, min_slack, min_slack >= -tol, tol)


def triplets_from_json(rows) -> list:
    """Triplets from a JSON list of {x, g, f}; every x and g must be a vector
    of one shared length d >= 1."""
    if not isinstance(rows, list):
        raise ValueError("expected a list of triplets, got %s" % type(rows).__name__)
    out = [make_triplet(r["x"], r["g"], r["f"]) for r in rows]
    shapes = {a.shape for t in out for a in (t.x, t.g)}
    if len(shapes) > 1 or any(len(s) != 1 or s[0] < 1 for s in shapes):
        raise ValueError("every x and g must be a vector of one shared "
                         "length d >= 1, got shapes %s" % sorted(shapes))
    return out
