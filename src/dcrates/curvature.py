"""Extended-real curvature arithmetic and DC parameter validation.

Curvature parameters live on the extended reals: upper curvatures L in
(0, +inf], lower curvatures mu finite.  +inf is represented by the float
infinity, with the reciprocal conventions 1/inf = 0 and 1/0 = +inf so that
the regime formulas can be evaluated uniformly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf
DOMAIN_TOL = 1e-12      # relative closure slack of the domain inequalities


def _le(a, b):
    """a <= b up to the slack DOMAIN_TOL * max(|a|, |b|), which scales with
    a and b; the slack is finite only when both are, so infinities compare
    exactly.  Elementwise when a or b is a numpy array."""
    # two floats skip the ndarray checks, which cost more than the comparison
    if type(a) is float is type(b) or not (isinstance(a, np.ndarray)
                                           or isinstance(b, np.ndarray)):
        return a <= b or a - b <= DOMAIN_TOL * max(abs(a), abs(b)) < INF
    tol = DOMAIN_TOL * np.maximum(np.abs(a), np.abs(b))
    return (a <= b) | ((a - b <= tol) & (tol < INF))


def recip(x):
    """Reciprocal with the conventions 1/0 = +inf and 1/inf = 0.

    Elementwise on a numpy array; a fractions.Fraction stays exact.
    """
    # a float skips the ndarray check, which costs more than the division
    if type(x) is float or not isinstance(x, np.ndarray):
        return INF if x == 0.0 else 0.0 if x == INF else 1 / x
    with np.errstate(divide="ignore"):
        return np.where(x == 0.0, INF, 1.0 / x)


def ext_to_json(v):
    """JSON form of an extended real: +inf as "inf", which float() reads."""
    return "inf" if v == INF else v


class InvalidParams(ValueError):
    """Raised when an operation requires parameters that fail validation."""


class PreconditionViolated(RuntimeError):
    """The decrease precondition mu1 + mu2 > 0 (or both zero) fails."""


@dataclass(frozen=True)
class Curvature:
    """Membership class: lower curvature mu, upper curvature L (possibly inf)."""

    mu: float
    L: float

    def violations(self, tag: str = "f") -> list:
        out = []
        if math.isnan(self.mu) or math.isnan(self.L):
            out.append("%s: NaN curvature parameter" % tag)
            return out
        if not self.L > 0.0:
            out.append("%s: L must be positive (got %r)" % (tag, self.L))
        if math.isinf(self.mu):
            out.append("%s: mu must be finite (got %r)" % (tag, self.mu))
        if not self.mu < self.L:
            out.append("%s: mu < L must hold strictly (mu=%r, L=%r)" % (tag, self.mu, self.L))
        return out


@dataclass(frozen=True)
class DcParams:
    """Curvature parameters (mu1, L1, mu2, L2) of a split F = f1 - f2."""

    f1: Curvature
    f2: Curvature

    @property
    def mu1(self) -> float:
        return self.f1.mu

    @property
    def L1(self) -> float:
        return self.f1.L

    @property
    def mu2(self) -> float:
        return self.f2.mu

    @property
    def L2(self) -> float:
        return self.f2.L

    def swapped(self) -> "DcParams":
        return DcParams(self.f2, self.f1)

    def to_json_dict(self) -> dict:
        return {"mu1": self.mu1, "L1": ext_to_json(self.L1),
                "mu2": self.mu2, "L2": ext_to_json(self.L2)}

    @staticmethod
    def from_json_dict(d: dict) -> "DcParams":
        return make_params(float(d["mu1"]), float(d["L1"]),
                           float(d["mu2"]), float(d["L2"]))


def make_params(mu1: float, L1: float, mu2: float, L2: float) -> DcParams:
    return DcParams(Curvature(mu1, L1), Curvature(mu2, L2))


def in_domain(mu1, L1, mu2, L2):
    """Whether the rates are claimed at (mu1, L1, mu2, L2): valid classes
    (0 < L, finite mu < L) under the decrease precondition mu1 + mu2 > 0 or
    mu1 = mu2 = 0.  Elementwise on arrays; False on NaN.  An infinite mu
    fails mu < L or the precondition, so finiteness needs no test of its own.
    """
    return ((mu1 < L1) & (mu2 < L2) & (0.0 < L1) & (0.0 < L2)
            & ((mu1 + mu2 > 0.0) | ((mu1 == 0.0) & (mu2 == 0.0))))


def validate(params: DcParams) -> None:
    """The one parameter gate: return where in_domain holds, else raise
    InvalidParams naming every class violation or, when both classes are
    valid, PreconditionViolated."""
    f1, f2 = params.f1, params.f2
    if in_domain(f1.mu, f1.L, f2.mu, f2.L):
        return
    viol = f1.violations("f1") + f2.violations("f2")
    if viol:
        raise InvalidParams("; ".join(viol))
    raise PreconditionViolated(
        "decrease precondition needs mu1+mu2 > 0 or mu1 = mu2 = 0 "
        "(got mu1=%r, mu2=%r)" % (f1.mu, f2.mu))


# the name the probe imports the gate under
require_valid = validate
