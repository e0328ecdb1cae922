"""Eight-regime classification of DC parameters and exact one-step coefficients.

Each regime i carries coefficients (sigma_i, sigma_i^+, alpha_i) such that one
DCA step decreases the objective by at least
sigma_i/2 ||G||^2 + sigma_i^+/2 ||G^+||^2, with G, G^+ the subgradient gaps at
the current and next iterate.  Regimes with even index mirror the odd ones
under the swap (L1, mu1) <-> (L2, mu2), sigma <-> sigma^+.

All formulas are evaluated in extended-real arithmetic (1/0 = inf, 1/inf = 0)
so that the one-nonsmooth-term rows arise as exact limits of the smooth rows:
`classify` sends a point with one infinite L through the same eight domains,
and only merges rows 1/7 and 2/8, which coincide there, into p17 and p28.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# PreconditionViolated is validate's, imported so that callers find it here too
from .curvature import (INF, DcParams, InvalidParams, PreconditionViolated,
                        _ge, _le, in_domain, recip, validate)

BOUNDARY_AGREE_TOL = 1e-9   # relative agreement of rows matched at one point


class NoRegime(RuntimeError):
    """No regime domain matched: a gap in the parameter validation logic."""


class InconsistentBoundary(RuntimeError):
    """Two regimes matched but their coefficients disagree."""


class BothNonsmooth(ValueError):
    pass


class DenominatorZero(ZeroDivisionError):
    pass


class RegimeCertificate(NamedTuple):
    index: int
    label: str
    sigma: float
    sigma_plus: float
    p: float
    alpha: float
    domain_trace: tuple

    def decrease_bound(self, G_sq: float, G_plus_sq: float) -> float:
        """sigma/2 ||G||^2 + sigma_plus/2 ||G+||^2, from the squared gaps."""
        return self.sigma * 0.5 * G_sq + self.sigma_plus * 0.5 * G_plus_sq

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "sigma": self.sigma,
            "sigma_plus": self.sigma_plus,
            "p": self.p,
            "alpha": self.alpha,
            "domain_trace": [[n, bool(v)] for n, v in self.domain_trace],
        }


class ThresholdValues(NamedTuple):
    S1: float
    S2: float


class AsymptoticConstants(NamedTuple):
    p5_inf: float
    p6_inf: float


# ---------------------------------------------------------------------------
# helpers: mu1, mu2 may be floats or numpy arrays, L1, L2 are always floats

def _where(cond, a, b):
    """a where cond holds, else b; elementwise when cond is an array."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _lim_ratio(a, b):
    """a/b, taking the joint limit 1 when both grow to +inf together."""
    return _where(abs(b) == INF, _where(abs(a) == INF, 1.0, 0.0), a / b)


def _threshold(r_other: float, L_here: float, mu, r_mu):
    """r_other * (2 + L_here/mu), given r_other = 1/L_other and r_mu = 1/mu;
    only meaningful for mu < 0."""
    if r_other == 0.0:
        return 0.0
    t = L_here * r_mu if not math.isinf(L_here) else math.copysign(INF, mu)
    return r_other * (2.0 + t)


# ---------------------------------------------------------------------------
# smooth-regime coefficients, odd regimes (evens by the parameter swap)

def _coeffs_p1(L1, L2, m1, m2):
    # sigma_plus = (1 + (1/L2 - 1/L1) / (1/mu1 - 1/L1)) / L2, whose correction
    # term is alpha: written through alpha it does not cancel as mu1 -> L1
    rl2 = recip(L2)
    alpha = m1 * rl2 * _lim_ratio(L1 - L2, L1 - m1)
    return rl2 * _lim_ratio(L2 - m1, L1 - m1), rl2 * (1 + alpha), alpha


def _coeffs_p3(L1, L2, m1, m2):
    s1 = recip(m1) + recip(m2) + recip(L2)
    rl1, sigma_plus = recip(L1), recip(L2 + m2)
    sigma = 0.0 if rl1 == 0.0 else rl1 * s1 / (s1 - rl1)
    alpha = -m2 * sigma_plus
    return sigma, sigma_plus, alpha


def _coeffs_p5(L1, L2, m1, m2):
    sigma_plus = (m1 + m2) / (m2 * m2)
    alpha = (m1 + m2) / (-m2)
    return 0.0, sigma_plus, alpha


def _coeffs_p7(L1, L2, m1, m2):
    sigma_plus = (L2 + m1) / (L2 * L2)
    alpha = m1 / L2
    return 0.0, sigma_plus, alpha


_ODD_COEFFS = {1: _coeffs_p1, 3: _coeffs_p3, 5: _coeffs_p5, 7: _coeffs_p7}


def _coefficients(index: int, L1, L2, m1, m2):
    if index % 2 == 1:
        return _ODD_COEFFS[index](L1, L2, m1, m2)
    s, sp, a = _ODD_COEFFS[index - 1](L2, L1, m2, m1)
    return sp, s, a


# ---------------------------------------------------------------------------
# equality conditions: the (G, G+) pairs, as multiples of a unit step, at
# which one step can meet the decrease bound exactly

def equality_gammas(index: int, params: DcParams) -> list:
    """Candidate (G, G+) pairs of regime `index`; an even regime's pairs are
    its odd mirror's at the swapped parameters, with G and G+ exchanged."""
    if index not in range(1, 9):
        raise ValueError("regime index must lie in 1..8, got %r" % index)
    if index % 2 == 0:
        return [(gp, g) for g, gp in equality_gammas(index - 1, params.swapped())]
    L1, L2, m1, m2 = params.L1, params.L2, params.mu1, params.mu2
    if index == 3:
        g3 = L1 + L2 * m2 * (L1 - m1) / (m1 * (L2 + m2))
        return [(g3, m2), (g3, L2)]
    return [{1: (L2, L2), 5: (m1, m2), 7: (m1, L2)}[index]]


# ---------------------------------------------------------------------------
# smooth-regime domains, odd regimes; each takes S1 and thr1 from _sides and
# yields its conditions lazily, in the order of the names in _ODD_DOMAINS

def _S(r1, r2, rl1, rl2):
    """(S1, S2) from 1/mu1, 1/mu2, 1/L1, 1/L2; S2 is S1 at the swap."""
    return r1 + r2 + rl2, r2 + r1 + rl1


def _sides(L1, L2, m1, m2):
    """((S1, thr1), (S2, thr2)): what the odd domains test, and at the swap the even."""
    r1, r2, rl1, rl2 = recip(m1), recip(m2), recip(L1), recip(L2)
    s1, s2 = _S(r1, r2, rl1, rl2)
    return (s1, _threshold(rl1, L2, m2, r2)), (s2, _threshold(rl2, L1, m1, r1))


def _domain_p1(L1, L2, m1, m2, s1, thr):
    yield _le(L2, L1)
    yield _le(m1, L2)
    yield _ge(m1, 0.0)
    yield (m2 >= 0.0) | (_ge(m1 + m2, 0.0) & _le(s1, thr))


def _domain_p3(L1, L2, m1, m2, s1, thr):
    yield m2 < 0.0
    yield _ge(m1 + m2, 0.0)
    yield _le(m1, L2)
    yield _le(m2, L1)
    yield _le(thr, s1)
    yield _le(s1, 0.0)


def _domain_p5(L1, L2, m1, m2, s1, thr):
    # the published domain uses S1 > max{thr1, 0}; the decrease argument only needs S1 > 0 once
    # mu1 >= L2, which closes the sliver left between the p1 and p7 rows.
    yield m2 < 0.0
    yield _ge(m1 + m2, 0.0)
    yield _ge(s1, 0.0)
    yield _ge(s1, thr) | _ge(m1, L2)


def _domain_p7(L1, L2, m1, m2, s1, thr):
    yield _ge(m1, L2)
    yield not math.isinf(L2)
    yield _ge(m1, 0.0)
    yield (m2 >= 0.0) | _le(s1, 0.0)     # mu2 * S1 >= 0, on the S1 that p5 tests


# the one domain table of both paths: grid_classify consumes every condition
# of every row on arrays, classify stops each row at its first failed one
_ODD_DOMAINS = {
    1: (_domain_p1, ("L1>=L2", "L2>mu1", "mu1>=0",
                     "mu2>=0 or (mu1>-mu2 and S1<=thr1)")),
    3: (_domain_p3, ("mu2<0", "mu1>-mu2", "L2>mu1", "L1>mu2", "thr1<=S1", "S1<=0")),
    5: (_domain_p5, ("mu2<0", "mu1>-mu2", "S1>=0", "S1>=thr1 or mu1>=L2")),
    7: (_domain_p7, ("mu1>=L2", "L2 finite", "mu1>=0", "mu2*S1>=0")),
}
_SWAP_NAMES = str.maketrans("12", "21")
# condition names of all eight domains; the even ones swap the indices 1 <-> 2
_DOMAIN_NAMES = {i + k: tuple(n.translate(_SWAP_NAMES) if k else n for n in names)
                 for i, (_, names) in _ODD_DOMAINS.items() for k in (0, 1)}
# each row's label and the "p<i>:<condition>" names of its detail trace
_LABELS = {i: "p%d" % i for i in _DOMAIN_NAMES}
_DETAIL_NAMES = {i: tuple("p%d:%s" % (i, n) for n in names)
                 for i, names in _DOMAIN_NAMES.items()}
# classify's domain_trace by the pattern of the eight row flags: (label,
# flag) per row, then each condition of the first matched row, all of which
# held.  Filled as patterns are met: of the 255, a handful occur in practice
_TRACES = {}


def _domains(L1, L2, m1, m2, sides):
    """Condition generators of rows 1..8, given the _sides of the point."""
    (s1, thr1), (s2, thr2) = sides
    rows = []
    for dom, _ in _ODD_DOMAINS.values():
        rows += dom(L1, L2, m1, m2, s1, thr1), dom(L2, L1, m2, m1, s2, thr2)
    return rows


def _coeffs_agree(a, b) -> bool:
    tol = BOUNDARY_AGREE_TOL * max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]))
    return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol


def classify(params: DcParams) -> RegimeCertificate:
    """Find the regime containing the parameters, with at most one L infinite.

    On a boundary where several regime closures meet the lowest index wins,
    after asserting that all matched rows produce the same coefficients.
    With one infinite L, rows 1/7 and 2/8 merge into p17 (index 1) and p28
    (index 2), which take the L-independent p7/p8 coefficients: the exact
    L -> inf limits of the p1/p2 rows.  A p that is not a finite positive
    float (a formula that overflowed or underflowed) raises OverflowError.
    """
    validate(params)
    L1, L2, m1, m2 = params.L1, params.L2, params.mu1, params.mu2
    if math.isinf(L1) and math.isinf(L2):
        raise BothNonsmooth("both terms nonsmooth: use the T-measure analysis")

    # all() stops a row at its first failed condition
    flags = tuple(map(all, _domains(L1, L2, m1, m2, _sides(L1, L2, m1, m2))))
    matched = [i for i, ok in enumerate(flags, 1) if ok]
    if not matched:
        raise NoRegime("no regime domain matched for %s" % (params.to_json_dict(),))

    first = matched[0]
    index, label, row = first, _LABELS[first], first
    if (math.isinf(L1) or math.isinf(L2)) and first in (1, 2, 7, 8):
        index = 2 - first % 2           # rows 1, 7 -> 1; rows 2, 8 -> 2
        label, row = "p%d%d" % (index, index + 6), index + 6
    s, sp, a = _coefficients(row, L1, L2, m1, m2)
    for other in matched[1:]:
        oc = _coefficients(other, L1, L2, m1, m2)
        if not _coeffs_agree((s, sp), oc):
            raise InconsistentBoundary(
                "regimes %s and p%d both match at %s but disagree: %r vs %r"
                % (label, other, params.to_json_dict(), (s, sp), oc[:2])
            )
    p = s + sp
    if not 0.0 < p < INF:
        raise OverflowError("regime %s gives p = %r at %s, not a finite positive float"
                            % (label, p, params.to_json_dict()))
    trace = _TRACES.get(flags)
    if trace is None:
        trace = _TRACES[flags] = (tuple(zip(_LABELS.values(), flags))
                                  + tuple((n, True) for n in _DETAIL_NAMES[first]))
    return RegimeCertificate(index, label, s, sp, p, a, trace)


# the name the certificates, the probe and the CLI import classify under
one_step_certificate = classify


# ---------------------------------------------------------------------------
# thresholds and conjectured asymptotic constants

def thresholds(params: DcParams) -> ThresholdValues:
    validate(params)
    return ThresholdValues(*_S(recip(params.mu1), recip(params.mu2),
                               recip(params.L1), recip(params.L2)))


def _p5_inf(L2: float, m1: float, m2: float) -> float:
    if math.isinf(L2):
        return (m1 + m2) / (m1 * m1)
    return (L2 + m1) * (m1 + m2) / ((L2 + m2) * m1 * m1)


def asymptotic_constants(params: DcParams) -> AsymptoticConstants:
    """Conjectured leading constants of the regime-5/6 asymptotic rates;
    p6_inf is the p5_inf formula at the swapped parameters."""
    validate(params)
    L1, L2, m1, m2 = params.L1, params.L2, params.mu1, params.mu2
    # (L2, mu1, mu2) here and at the swap; both are checked before either is computed
    for i, L, ma, mb in ((5, L2, m1, m2), (6, L1, m2, m1)):
        if ma == 0.0 or L + mb == 0.0:
            raise DenominatorZero("p%d_inf undefined: (L%d+mu%d)*mu%d^2 vanishes"
                                  % (i, 7 - i, 7 - i, i - 4))
    return AsymptoticConstants(_p5_inf(L2, m1, m2), _p5_inf(L1, m2, m1))


# ---------------------------------------------------------------------------
# vectorized grid classification (for regime maps and partition testing)

def grid_classify(L1: float, L2: float, mu1, mu2):
    """Classify a whole (mu1, mu2) grid at fixed finite L1, L2.

    Returns (index, p, sigma, sigma_plus, n_matched); index 0 marks nodes
    outside the valid set (assumption or decrease precondition violated).
    Evaluates the same domain and coefficient functions as the scalar
    classify, so it matches it on every valid node; like classify, it raises
    OverflowError at the first valid node whose p is not a finite positive
    float.
    """
    if not (0.0 < L1 < INF and 0.0 < L2 < INF):
        raise InvalidParams("grid_classify requires finite positive L1, L2")
    M1 = np.asarray(mu1, dtype=float)
    M2 = np.asarray(mu2, dtype=float)
    masks, sigmas, sigma_ps = [], [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        valid = in_domain(M1, L1, M2, L2)
        for i, conds in enumerate(_domains(L1, L2, M1, M2, _sides(L1, L2, M1, M2)), 1):
            mask = valid.copy()
            for ok in conds:
                mask &= ok
            s, sp, _ = _coefficients(i, L1, L2, M1, M2)
            masks.append(mask)
            sigmas.append(s)
            sigma_ps.append(sp)
    index = np.select(masks, list(range(1, 9)), default=0)
    sigma = np.select(masks, sigmas, default=np.nan)
    sigma_plus = np.select(masks, sigma_ps, default=np.nan)
    n_matched = np.sum(np.stack(masks), axis=0)
    p = sigma + sigma_plus
    bad = np.flatnonzero((index > 0) & ~((p > 0.0) & (p < INF)))
    if bad.size:
        k = bad[0]
        node = {"mu1": float(np.broadcast_to(M1, p.shape).flat[k]), "L1": L1,
                "mu2": float(np.broadcast_to(M2, p.shape).flat[k]), "L2": L2}
        raise OverflowError("regime p%d gives p = %r at %s, not a finite positive float"
                            % (index.flat[k], float(p.flat[k]), node))
    return index, p, sigma, sigma_plus, n_matched


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidParams("grid bounds must be finite, got %r:%r" % (self.lo, self.hi))
        if self.steps < 1:
            raise InvalidParams("grid needs at least one step, got %r" % self.steps)
        if self.lo > self.hi:
            raise InvalidParams("grid needs lo <= hi, got %r:%r" % (self.lo, self.hi))

    @staticmethod
    def parse(text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid spec must look like lo:hi:steps, got %r" % text)
        return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


def regime_map(L1: float, L2: float, grid: GridSpec):
    """Figure-1-style data: grid_classify's (regime index, p) arrays over the
    grid, each (steps, steps) and indexed [mu1, mu2]; p is NaN exactly where
    the index is 0."""
    pts = grid.points()
    index, p, _, _, _ = grid_classify(L1, L2, *np.meshgrid(pts, pts, indexing="ij"))
    return index, p
