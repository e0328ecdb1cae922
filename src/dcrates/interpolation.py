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
and is b ||dx||^2, so it never reads dg, and the pair kernel never forms it.
For a stack of k classes each coefficient is an array with one entry per
class, so k gradient sets at the same points are bounded in one broadcast
pass, each with its own class, by the same arithmetic as one finite-L class
on its own.

The one pair kernel, PairKernel, is coordinate-major: (..., 1 + k, d, n)
points then gradients, (..., d, n, n) differences, made in one subtraction.
Its sums over coordinates run in one order whatever the memory layout: that
of numpy's einsum on d-last C-ordered data up to d = 7, even coordinates
then odd ones ((0 + 2) + 1 at d = 3).  A kernel is built for one shape with
its workspace: the differences, the products g_j (x_i - x_j), the output
and the views of them it reads.  The probe objective holds one per stack
shape and refills its data for each evaluation; check_interpolation
builds one per call.  Where the results are written changes nothing else,
so both give the same bits.
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


class PairKernel:
    """The pair kernel on the caller's array data, with its workspace: the
    differences, the products g_j (x_i - x_j), the output and the views of
    them a call reads are built once, here, so a caller that refills data
    in place and calls again pays only for the bound's own temporaries.

    data (..., 1 + k, d, n) holds the coordinate-major points, then k
    gradient sets at them, one per class of cls (one class for k = 1; cls
    may be given as its bound_coefficients).  A call writes c (..., k, n, n),
    c[..., l, i, j] the minimal feasible f^i - f^j of class l, into self.c
    and returns it; the next call overwrites it.
    """

    def __init__(self, cls, data: np.ndarray):
        self._coef = coef = (cls if isinstance(cls, BoundCoefficients)
                             else bound_coefficients(cls))
        *lead, rows, d, n = data.shape
        self.c = c = np.empty((*lead, rows - 1, n, n))
        # the points' differences, then the gradients' where the bound
        # reads them
        read = data[..., :1, :, :] if _reads_no_dg(coef) else data
        self._p_i, self._p_j = read[..., None], read[..., None, :]
        self._diff = diff = np.empty(read.shape + (n,))
        self._dx = diff[..., :1, :, :, :]
        self._dg = None if read is not data else diff[..., 1:, :, :, :]
        self._g_j = data[..., 1:, :, None, :]
        self._gdx = gdx = np.empty((*lead, rows - 1, d, n, n))
        self._even = gdx[..., ::2, :, :]
        self._odd = gdx[..., 1::2, :, :] if d > 1 else None
        self._diag = c.reshape(*lead, rows - 1, n * n)[..., ::n + 1]

    def __call__(self) -> np.ndarray:
        c = self.c
        np.subtract(self._p_i, self._p_j, out=self._diff)
        np.multiply(self._g_j, self._dx, out=self._gdx)
        # <g_j, x_i - x_j> as einsum sums it, from +0.0 (reduce's start value)
        np.add.reduce(self._even, -3, out=c)
        if self._odd is not None:
            c += np.add.reduce(self._odd, -3)
        c += _lower_bound(self._coef, self._dx, self._dg, -3)
        self._diag[...] = 0.0
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
    F = np.array(fs)
    S = np.subtract.outer(F, F)
    P = np.array((xs, gs)).swapaxes(-1, -2)      # points, gradients (2, d, n)
    S -= PairKernel(cls, P)()[0]
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
