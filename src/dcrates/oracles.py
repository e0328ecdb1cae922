"""Concrete function families with exact first-order oracles.

Three families, chosen so both the oracle and the DCA subproblem
argmin_w { f1(w) - <g, w> } admit closed-form (or finite-enumeration) exact
solutions:

* quadratic        sum_i c_i/2 x_i^2 + b_i x_i     (separable, any dimension)
* max_quadratics   max_j c_j/2 x^2 + b_j x + a_j   (1D, possibly nonsmooth)
* abs_quadratic    a|x| + m/2 x^2 + b x            (1D, nonsmooth at 0)

`is_subgradient` is the one test of subgradient membership: run_dca asserts
it on each DCA link, and the max-of-quadratics subproblem returns the
least-objective stationary point or meeting point of its pieces at which g
passes it.  `evaluate` and `is_subgradient` also take an (n, d) stack of
points, which is how run_dca records a finished run in one pass: the
quadratic formulas broadcast over the last axis, and the 1D families go
row by row.  `evaluate` answers a single point as a one-row stack.
`subgradient` is evaluate's pick at one point without the value, all that
run_dca's loop reads of f2, and the one single-point oracle.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np

from .curvature import Curvature, DcParams, InvalidParams, ext_to_json

KINK_TOL = 1e-12
LINK_TOL = 1e-12   # relative; a subgradient's distance to the subdifferential


def _exceeds(a: float, b: float) -> bool:
    """a > b by more than 1e-12 * max(|a|, |b|), a pad that scales with a and
    b; an infinite a or b makes it infinite, so infinities compare exactly."""
    return a > b and not a - b <= 1e-12 * max(abs(a), abs(b)) < math.inf


class Unbounded(RuntimeError):
    """The DCA subproblem has no minimizer."""


# policy: how to pick a subgradient at a kink.  A float w in [0, 1] blends
# from the leftmost to the rightmost one-sided derivative.
Policy = Union[str, float]


class QuadraticArrays(NamedTuple):
    """A quadratic's coefficients as read-only float arrays, with the curvature
    signs its subproblem branches on."""
    c: np.ndarray
    b: np.ndarray
    half_c: np.ndarray    # 0.5 * c, the first product of 0.5 * c * v * v
    any_negative: bool    # some c < 0: the subproblem is unbounded
    all_positive: bool    # every c > 0: no flat coordinate to mask


@dataclass(frozen=True)
class Quadratic:
    c: tuple
    b: tuple

    family = "quadratic"

    @property
    def dimension(self):
        return len(self.c)

    def curvature_range(self):
        return min(self.c), max(self.c)

    @cached_property
    def arrays(self) -> QuadraticArrays:
        """Built on first use and kept in the instance's __dict__, outside
        the fields that equality, hashing, repr and JSON read."""
        c = np.array(self.c, dtype=float)
        b = np.array(self.b, dtype=float)
        half_c = 0.5 * c
        for a in (c, b, half_c):
            a.flags.writeable = False
        return QuadraticArrays(c, b, half_c, bool((c < 0.0).any()),
                               bool((c > 0.0).all()))


@dataclass(frozen=True)
class MaxOfQuadratics:
    pieces: tuple  # ((c, b, a), ...)

    family = "max_quadratics"
    dimension = 1

    def curvature_range(self):
        cs = [p[0] for p in self.pieces]
        if len(self.pieces) == 1:
            return cs[0], cs[0]
        return min(cs), math.inf


@dataclass(frozen=True)
class AbsPlusQuadratic:
    a: float
    m: float
    b: float

    family = "abs_quadratic"
    dimension = 1

    def curvature_range(self):
        if self.a == 0.0:
            return self.m, self.m
        # a convex kink has no finite upper curvature, a concave one no lower
        return (self.m, math.inf) if self.a > 0.0 else (-math.inf, self.m)


Family = Union[Quadratic, MaxOfQuadratics, AbsPlusQuadratic]


@dataclass(frozen=True)
class FunctionSpec:
    family: Family
    declared: Curvature

    @property
    def dimension(self):
        return self.family.dimension

    def certify_declared(self) -> list:
        """Constraint violations of the declared (mu, L) membership claim;
        a NaN in it or in the actual range is the one violation named."""
        lo, hi = self.family.curvature_range()
        mu, L = self.declared.mu, self.declared.L
        if any(map(math.isnan, (mu, L, lo, hi))):
            return ["NaN curvature parameter (declared mu=%r, L=%r; actual "
                    "range [%r, %r])" % (mu, L, lo, hi)]
        out = []
        if _exceeds(mu, lo):
            out.append("declared mu=%r exceeds actual lower curvature %r"
                       % (mu, lo))
        if _exceeds(hi, L):
            out.append("actual upper curvature %r exceeds declared L=%r"
                       % (hi, L))
        return out


@dataclass(frozen=True)
class OracleAnswer:
    value: float
    subgradient: np.ndarray


@dataclass(frozen=True)
class DcInstance:
    """F = f1 - f2; params are the classes f1 and f2 declare, derived once
    and checked against the functions themselves."""

    f1: FunctionSpec
    f2: FunctionSpec
    fstar: Optional[float] = None
    params: DcParams = field(init=False)

    def __post_init__(self):
        if self.f1.dimension != self.f2.dimension:
            raise InvalidParams("f1 and f2 dimensions differ")
        wrong = ["%s: %s" % (tag, v) for tag, spec in (("f1", self.f1), ("f2", self.f2))
                 for v in spec.certify_declared()]
        if wrong:
            raise InvalidParams("; ".join(wrong))
        if self.fstar is not None and not math.isfinite(self.fstar):
            raise InvalidParams("Fstar must be finite, got %r" % self.fstar)
        object.__setattr__(self, "params",
                           DcParams(self.f1.declared, self.f2.declared))

    @property
    def dimension(self):
        return self.f1.dimension


make_instance = DcInstance


# ---------------------------------------------------------------------------
# evaluation

def _as_vec(x) -> np.ndarray:
    """x as a float array of at least one axis, in one conversion."""
    return np.array(x, dtype=float, ndmin=1, copy=None)


def _dot(a: np.ndarray, b: np.ndarray):
    """a @ b of two vectors, or of each pair of rows of two (n, d) stacks as
    an (n,) array, bit for bit the same as a @ b row by row."""
    if a.ndim == 1:
        return float(a @ b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norm(v: np.ndarray):
    """np.linalg.norm(v) of a vector, or of each row of a stack, bit for bit,
    without its dispatch."""
    return math.sqrt(v.dot(v)) if v.ndim == 1 else np.sqrt(_dot(v, v))


def _value_interval(fam: Family, t: float) -> tuple:
    """(value, lo, hi, lo_size, hi_size): value and one-sided derivative
    range at a 1D point of a max-of-quadratics or abs-plus-quadratic family,
    and the size of the terms each end sums, which its rounding scales with.
    A piece is active when it is within KINK_TOL of the max, relative to the
    larger sum of term magnitudes of that piece and of the top piece."""
    if isinstance(fam, AbsPlusQuadratic):
        val = fam.a * abs(t) + 0.5 * fam.m * t * t + fam.b * t
        base = fam.m * t + fam.b
        size = abs(fam.m * t) + abs(fam.b) + abs(fam.a)
        if t == 0.0:
            return val, base - fam.a, base + fam.a, size, size
        end = base + math.copysign(fam.a, t)
        return val, end, end, size, size
    terms = [(0.5 * c * t * t, b * t, a) for c, b, a in fam.pieces]
    vals = [sq + lin + a for sq, lin, a in terms]
    if not all(map(math.isfinite, vals)):
        raise InvalidParams("max_quadratics values %r at x = %r are not finite "
                            "(past the float range)" % (vals, t))
    top = max(vals)
    sizes = [abs(sq) + abs(lin) + abs(a) for sq, lin, a in terms]
    top_size = max(s for v, s in zip(vals, sizes) if v == top)
    # each active piece's (derivative, size of its terms)
    ends = [(c * t + b, abs(c * t) + abs(b))
            for (c, b, a), v, s in zip(fam.pieces, vals, sizes)
            if top - v <= KINK_TOL * max(top_size, s)]
    (lo, lo_size), (hi, hi_size) = min(ends), max(ends)
    return top, lo, hi, lo_size, hi_size


def is_subgradient(spec: FunctionSpec, x, g: np.ndarray, pick=None):
    """Whether g lies within LINK_TOL times a size, in Euclidean distance, of
    the subdifferential of spec at x; for an (n, d) stack of points x and of
    vectors g, an (n,) array of verdicts.  The size is that of the terms the
    subgradient sums, so the verdict does not change when the family and g
    are scaled together.  For a quadratic it is the norm of |c*x| + |b|, and
    pick, its gradient at x when the caller has it, spares evaluating it
    again.  For a 1D family each end of [lo, hi] is padded by LINK_TOL times
    the size of the terms that end sums."""
    v = _as_vec(x)
    fam = spec.family
    if isinstance(fam, Quadratic):   # the gradient is all there is
        pick = evaluate(spec, v).subgradient if pick is None else pick
        size = np.abs(fam.arrays.c * v) + np.abs(fam.arrays.b)
        return _norm(pick - g) <= LINK_TOL * _norm(size)
    ts, gs = (a[..., 0].reshape(-1).tolist() for a in (v, _as_vec(g)))
    ends = [_value_interval(fam, t) for t in ts]
    ok = [lo - LINK_TOL * lo_size <= g0 <= hi + LINK_TOL * hi_size
          for (_, lo, hi, lo_size, hi_size), g0 in zip(ends, gs)]
    return np.array(ok, dtype=bool) if v.ndim == 2 else ok[0]


def kink_policy(policy: Policy) -> Policy:
    """The policy as _pick reads it: leftmost, rightmost, least_norm, or a
    weight in [0, 1] given as a number or its string form."""
    if policy in ("leftmost", "rightmost", "least_norm"):
        return policy
    try:
        w = float(policy)
    except (TypeError, ValueError):
        w = math.nan
    if not 0.0 <= w <= 1.0:
        raise ValueError("policy must be leftmost, rightmost, least_norm or a "
                         "weight in [0, 1], got %r" % (policy,))
    return w


def _pick(lo: float, hi: float, policy: Policy) -> float:
    if lo == hi:
        return lo
    policy = kink_policy(policy)
    if policy == "leftmost":
        return lo
    if policy == "rightmost":
        return hi
    if policy == "least_norm":
        return min(max(0.0, lo), hi)
    return min(lo + policy * (hi - lo), hi)   # the sum may round past hi


def _evaluate_1d(fam: Family, ts: list, policy: Policy) -> tuple:
    """(values, subgradients) of a 1D family at the points ts, a list of
    floats, as (n,) and (n, 1) arrays: each value and [lo, hi] from
    _value_interval, and each subgradient the policy's pick from [lo, hi]."""
    ends = [_value_interval(fam, t) for t in ts]
    return (np.array([e[0] for e in ends], dtype=float),
            np.array([[_pick(e[1], e[2], policy)] for e in ends], dtype=float))


def subgradient(spec: FunctionSpec, x, policy: Policy = "least_norm") -> np.ndarray:
    """evaluate(spec, x, policy).subgradient at one point, without the
    value, which may be past the float range: c*x + b for a quadratic, the
    policy's pick for a 1D family.  A non-finite x or subgradient raises
    InvalidParams (so does a max-of-quadratics piece value past the range,
    since the values pick the active pieces)."""
    v = _as_vec(x)
    if not all(map(math.isfinite, v.tolist())):
        raise InvalidParams("oracle point must be finite")
    fam = spec.family
    g = (fam.arrays.c * v + fam.arrays.b if isinstance(fam, Quadratic)
         else _evaluate_1d(fam, [float(v[0])], policy)[1][0])
    if not all(map(math.isfinite, g.tolist())):
        raise InvalidParams("subgradient %r at x = %r is not finite (past the "
                            "float range)" % (g.tolist(), v.tolist()))
    return g


def evaluate(spec: FunctionSpec, x, policy: Policy = "least_norm") -> OracleAnswer:
    """Exact value and one subgradient, chosen by the kink policy.  At an
    (n, d) stack of points the answer holds an (n,) array of values and an
    (n, d) array of subgradients; a point is answered as a one-row stack.
    A stack that fails is evaluated again one row at a time, so it raises
    the error of its first failing row."""
    v = _as_vec(x)
    X = v if v.ndim == 2 else v[None]
    fam = spec.family
    try:
        if not np.isfinite(X).all():
            raise InvalidParams("oracle point must be finite")
        if isinstance(fam, Quadratic):
            q = fam.arrays
            val, g = (np.add.reduce(q.half_c * X * X + q.b * X, axis=-1),
                      q.c * X + q.b)
        else:
            val, g = _evaluate_1d(fam, X[:, 0].tolist(), policy)
        if not (np.isfinite(val).all() and np.isfinite(g).all()):
            raise InvalidParams(   # the message of a one-row stack
                "value %r or subgradient %r at x = %r is not finite (past the "
                "float range)" % (float(val[0]), g[0].tolist(), X[0].tolist()))
    except InvalidParams:
        if len(X) > 1:   # the first failing row raises its own error
            for row in X:
                evaluate(spec, row, policy)
        raise
    return OracleAnswer(val, g) if v.ndim == 2 else OracleAnswer(float(val[0]), g[0])


# ---------------------------------------------------------------------------
# exact DCA subproblem:  argmin_w f1(w) - <g, w>

def solve_dca_subproblem(spec: FunctionSpec, g) -> np.ndarray:
    gv = _as_vec(g)
    fam = spec.family
    if isinstance(fam, Quadratic):
        return _solve_quadratic(fam, gv)
    if isinstance(fam, AbsPlusQuadratic):
        return _solve_abs_quadratic(fam, float(gv[0]))
    return _solve_max_quadratics(spec, fam, float(gv[0]))


def _solve_quadratic(fam: Quadratic, g: np.ndarray) -> np.ndarray:
    c, b, _, any_negative, all_positive = fam.arrays
    if any_negative:
        raise Unbounded("quadratic subproblem with negative curvature")
    if all_positive:
        return (g - b) / c
    # a flat coordinate (c = 0) takes 0, one of its minimizers if it has no drift
    out = np.zeros_like(g)
    pos = c > 0.0
    out[pos] = (g[pos] - b[pos]) / c[pos]
    flat = ~pos
    if (np.abs(g[flat] - b[flat]) > 0.0).any():
        raise Unbounded("flat coordinate with nonzero linear drift")
    return out


def _solve_abs_quadratic(fam: AbsPlusQuadratic, g: float) -> np.ndarray:
    s = g - fam.b
    if fam.m <= 0.0:
        if fam.m == 0.0 and abs(s) <= fam.a:
            return np.array([0.0])
        raise Unbounded("abs-plus-quadratic subproblem needs m > 0")
    w = math.copysign(max(abs(s) - fam.a, 0.0), s) / fam.m
    return np.array([w])


def _solve_max_quadratics(spec, fam: MaxOfQuadratics, g: float) -> np.ndarray:
    if max(p[0] for p in fam.pieces) <= 0.0:
        raise Unbounded("max-of-quadratics subproblem needs a coercive piece")
    # stationary points of the convex pieces, then the points where two meet
    cands = [(g - b) / c for c, b, _ in fam.pieces if c > 0.0]
    for (c1, b1, a1), (c2, b2, a2) in itertools.combinations(fam.pieces, 2):
        dc, db, da = c1 - c2, b1 - b2, a1 - a2
        if dc == 0.0:
            cands += [-da / db] if db != 0.0 else []
            continue
        disc = db * db - 2.0 * dc * da
        if disc >= 0.0:
            # roots of dc/2 w^2 + db w + da; q adds two terms of one sign
            q = -(db + math.copysign(math.sqrt(disc), db))
            cands += [q / dc, 2.0 * da / q] if q != 0.0 else [0.0]
    gv = np.array([g])
    cands = [w for w in cands if is_subgradient(spec, w, gv)]
    if not cands:
        raise Unbounded("no stationary candidate found")
    best = min(cands, key=lambda w: _value_interval(fam, w)[0] - g * w)
    return np.array([best])


# ---------------------------------------------------------------------------
# analytic infimum of F = f1 - f2 (when available)

def analytic_infimum(instance: DcInstance) -> Optional[float]:
    """Closed-form inf F for quadratic-quadratic and abs-abs pairs, else None."""
    a1, a2 = instance.f1.family, instance.f2.family
    if isinstance(a1, Quadratic) and isinstance(a2, Quadratic):
        dc = a1.arrays.c - a2.arrays.c
        db = a1.arrays.b - a2.arrays.b
        if (dc < 0.0).any():
            return None
        if ((dc == 0.0) & (db != 0.0)).any():
            return None
        pos = dc > 0.0
        return float(-np.add.reduce(db[pos] * db[pos] / (2.0 * dc[pos])))
    if isinstance(a1, AbsPlusQuadratic) and isinstance(a2, AbsPlusQuadratic):
        da, dm, db = a1.a - a2.a, a1.m - a2.m, a1.b - a2.b
        # F(x) = da|x| + dm/2 x^2 + db x
        if dm < 0.0 or (dm == 0.0 and abs(db) > da):
            return None
        best = 0.0
        if dm > 0.0:
            xp = -(da + db) / dm     # stationary point on x > 0
            if xp > 0.0:
                best = min(best, da * xp + 0.5 * dm * xp * xp + db * xp)
            xn = (da - db) / dm      # stationary point on x < 0
            if xn < 0.0:
                best = min(best, -da * xn + 0.5 * dm * xn * xn + db * xn)
        return float(best)
    return None


# ---------------------------------------------------------------------------
# JSON instance format

def family_to_json(fam: Family) -> dict:
    if isinstance(fam, Quadratic):
        return {"family": "quadratic", "c": list(fam.c), "b": list(fam.b)}
    if isinstance(fam, MaxOfQuadratics):
        return {"family": "max_quadratics", "pieces": [list(p) for p in fam.pieces]}
    return {"family": "abs_quadratic", "a": fam.a, "m": fam.m, "b": fam.b}


def family_from_json(d: dict) -> Family:
    kind = d["family"]
    if kind == "quadratic":
        c, b = tuple(map(float, d["c"])), tuple(map(float, d["b"]))
        if not c or len(c) != len(b):
            raise InvalidParams("quadratic needs c and b of one nonzero length")
        return Quadratic(c, b)
    if kind == "max_quadratics":
        pieces = tuple(tuple(map(float, p)) for p in d["pieces"])
        if not pieces or any(len(p) != 3 for p in pieces):
            raise InvalidParams("max_quadratics needs pieces of [c, b, a]")
        return MaxOfQuadratics(pieces)
    if kind == "abs_quadratic":
        return AbsPlusQuadratic(float(d["a"]), float(d["m"]), float(d["b"]))
    raise InvalidParams("unknown function family %r" % kind)


def instance_to_json(inst: DcInstance) -> dict:
    spec_json = lambda s: dict(family_to_json(s.family), mu=s.declared.mu,
                               L=ext_to_json(s.declared.L))
    return {"f1": spec_json(inst.f1), "f2": spec_json(inst.f2),
            "Fstar": inst.fstar}


def instance_from_json(d: dict) -> DcInstance:
    """The classes are the ones f1 and f2 carry; an older file's "declared"
    block is accepted only when it states the same classes."""
    spec = lambda s: FunctionSpec(family_from_json(s),
                                  Curvature(float(s["mu"]), float(s["L"])))
    f1, f2 = spec(d["f1"]), spec(d["f2"])
    fstar = d.get("Fstar")
    inst = DcInstance(f1, f2, None if fstar is None else float(fstar))
    if "declared" in d and DcParams.from_json_dict(d["declared"]) != inst.params:
        raise InvalidParams("declared block %r disagrees with the classes of "
                            "f1 and f2" % (d["declared"],))
    return inst
