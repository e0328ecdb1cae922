"""Verify the one-step and N-step decrease guarantees on trajectories.

One-step:   F(x) - F(x+) >= sigma/2 ||G||^2 + sigma_plus/2 ||G+||^2
N-step:     1/2 min_k ||G^k||^2 <= (F(x^0) - F(x^N)) / (p N)
            and, when F* is known and L1 > mu2,
            <= (F(x^0) - F*) / (p N + 1/(L1 - mu2)).
Nonsmooth (both L infinite): per-step and N-step bounds on the linearization
gap T(x) with branches by the sign of mu2.

All slacks are computed as lhs - rhs in a single arithmetic order so equality
detection is reproducible.  A slack holds when it is at least -tol times
max(1, |f1|, |f2|) over the points it is computed from (x^k and x^{k+1} for
a per-step slack, the whole run for the nonsmooth N-step bound): F values
carry rounding of about eps |f|, so tol is absolute up to |f| = 1 and
relative above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .curvature import InvalidParams, validate
from .engine import Trajectory
from .interpolation import pair_lower_bound
from .regimes import (PreconditionViolated, RegimeCertificate,
                      one_step_certificate)

SLACK_TOL = 1e-9
EQ_TOL = 1e-7


class MissingFstar(RuntimeError):
    """An F*-dependent bound was requested without a lower-bound value."""


def _require_precondition(params):
    rep = validate(params)
    if not rep.ok:
        raise InvalidParams("; ".join(rep.violations))
    if not rep.decrease_precondition:
        raise PreconditionViolated(
            "bounds need mu1 + mu2 > 0 or mu1 = mu2 = 0 "
            "(got mu1=%r, mu2=%r)" % (params.mu1, params.mu2))


def _f_scale(points) -> float:
    """max(1, |f1|, |f2|) over the points, the unit of a slack's tolerance."""
    return max(1.0, *(abs(v) for p in points for v in (p.f1, p.f2)))


def _step(traj: Trajectory, k: int) -> tuple:
    """The points x^k and x^{k+1} of step k, for 0 <= k < N."""
    if not 0 <= k < traj.n_steps:
        raise InvalidParams("trajectory has no step %d" % k)
    return traj.points[k], traj.points[k + 1]


@dataclass(frozen=True)
class OneStepCheck:
    regime: RegimeCertificate
    lhs: float
    rhs: float
    slack: float
    equality_hit: bool
    holds: bool


def _regime(traj: Trajectory) -> RegimeCertificate:
    """The certificate of traj.instance.params, classified once per params
    object.  It is stored on the trajectory, as an attribute that is no
    dataclass field (so in neither eq, repr nor JSON), with the params it was
    computed for, and reused while that object is traj.instance.params; a
    replaced instance is classified anew.  Classifying is the gate:
    InvalidParams, PreconditionViolated, BothNonsmooth."""
    params = traj.instance.params
    memo = getattr(traj, "_regime_memo", None)
    if memo is None or memo[0] is not params:
        memo = traj._regime_memo = (params, one_step_certificate(params))
    return memo[1]


def _one_step(a, b, regime: RegimeCertificate, tol: float) -> OneStepCheck:
    """The decrease certificate on the step from point a to point b."""
    lhs = a.F - b.F
    rhs = regime.decrease_bound(a.G_norm_sq, b.G_norm_sq)
    slack = lhs - rhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return OneStepCheck(regime, lhs, rhs, slack, abs(slack) <= EQ_TOL * scale,
                        slack >= -tol * _f_scale((a, b)))


def check_one_step(traj: Trajectory, k: int = 0,
                   tol: float = SLACK_TOL) -> OneStepCheck:
    """Check the run's own decrease certificate (gated by classifying it) on
    the step k -> k+1."""
    regime = _regime(traj)
    return _one_step(*_step(traj, k), regime, tol)


def replay_proof_combination(traj: Trajectory, k: int = 0) -> float:
    """Slack of the alpha-weighted intermediate inequality behind the regime.

    For odd regimes the combination reads, with B1/B2 the pairwise lower
    bounds of f1 on (x, x+) and f2 on (x+, x),

        dF >= B1(G) + (1 + 2 alpha) B2(G+) - alpha <G+, dx>,

    and the even regimes mirror it with the roles of the terms exchanged.
    Returns lhs - rhs; a valid certificate gives a nonnegative value.
    """
    params = traj.instance.params
    regime = _regime(traj)
    alpha = regime.alpha
    a, b = _step(traj, k)
    dx = a.x - b.x
    G = a.g1 - a.g2
    Gp = b.g1 - b.g2
    B1 = pair_lower_bound(params.f1, dx, G)
    B2 = pair_lower_bound(params.f2, -dx, -Gp)
    if regime.index % 2 == 1:
        rhs = B1 + (1.0 + 2.0 * alpha) * B2 - alpha * float(Gp @ dx)
    else:
        rhs = B2 + (1.0 + 2.0 * alpha) * B1 - alpha * float(G @ dx)
    return (a.F - b.F) - rhs


@dataclass(frozen=True)
class RatePrediction:
    bound_no_fstar: float
    bound_with_fstar: Optional[float]
    p_used: float
    N: int
    linear_regime_warning: bool  # regimes 7/8 admit linear rates; this
    # sublinear form is valid but loose there


def check_rate(traj: Trajectory, fstar: Optional[float] = None,
               tol: float = SLACK_TOL) -> Tuple[RatePrediction, float, bool]:
    """N-step certificate: (prediction, observed half min grad gap, holds)."""
    params = traj.instance.params
    regime = _regime(traj)
    _step(traj, 0)     # at least one completed step
    N = traj.n_steps
    F0 = traj.points[0].F
    FN = traj.points[-1].F
    p = regime.p
    bound = (F0 - FN) / (p * N)
    if fstar is None:
        fstar = traj.instance.fstar
    bound_star = None
    if fstar is not None and params.L1 > params.mu2:
        extra = 0.0 if math.isinf(params.L1) else 1.0 / (params.L1 - params.mu2)
        bound_star = (F0 - fstar) / (p * N + extra)
    pred = RatePrediction(bound, bound_star, p, N, regime.index in (7, 8))
    observed = 0.5 * traj.min_grad_gap_sq()
    holds = observed <= bound + tol
    if bound_star is not None:
        holds = holds and observed <= bound_star + tol
    return pred, observed, holds


@dataclass(frozen=True)
class NonsmoothCheck:
    per_step_slacks: tuple       # per-step T-measure decrease slack
    n_step_bound: float
    n_step_observed: float
    holds: bool
    branch: str                  # "mu2_nonneg" or "mu2_neg"


def check_nonsmooth_rate(traj: Trajectory, fstar: Optional[float] = None,
                         tol: float = SLACK_TOL) -> NonsmoothCheck:
    """Per-step and N-step bounds via T(x) when both terms are nonsmooth."""
    params = traj.instance.params
    if math.isfinite(params.L1) or math.isfinite(params.L2):
        raise InvalidParams("nonsmooth analysis needs L1 = L2 = inf")
    _require_precondition(params)
    if fstar is None:
        fstar = traj.instance.fstar
    if fstar is None:
        raise MissingFstar("the N-step bound is stated against F*")
    m1, m2 = params.mu1, params.mu2
    _step(traj, 0)     # at least one completed step
    N = traj.n_steps
    lhs = [m2 * 0.5 * a.dx_norm_sq + a.T if m2 >= 0.0 else (m1 + m2) / m1 * a.T
           for a in traj.points[:-1]]
    slacks = [(a.F - b.F) - v
              for a, b, v in zip(traj.points, traj.points[1:], lhs)]
    if m2 >= 0.0:
        # the per-step bounds sum to one on min_k (T_k + mu2/2 ||dx_k||^2)
        observed = min(lhs)
        bound = (traj.points[0].F - fstar) / N
        branch = "mu2_nonneg"
    else:
        observed = traj.min_t()
        bound = m1 / (m1 + m2) * (traj.points[0].F - fstar) / N
        branch = "mu2_neg"
    holds = (all(s >= -tol * _f_scale((a, b))
                 for s, a, b in zip(slacks, traj.points, traj.points[1:]))
             and observed <= bound + tol * _f_scale(traj.points))
    return NonsmoothCheck(tuple(slacks), bound, observed, holds, branch)


def certificate_report(traj: Trajectory, fstar: Optional[float] = None,
                       tol: float = SLACK_TOL) -> dict:
    """JSON-ready summary: regime, per-step slacks, rate bounds, pass/fail."""
    params = traj.instance.params
    nonsmooth = not (math.isfinite(params.L1) or math.isfinite(params.L2))
    out = {"tol": tol, "n_steps": traj.n_steps, "stop_reason": traj.stop_reason}
    if nonsmooth:
        c = check_nonsmooth_rate(traj, fstar, tol)
        out.update(mode="nonsmooth", branch=c.branch,
                   per_step_slacks=list(c.per_step_slacks),
                   n_step_bound=c.n_step_bound,
                   n_step_observed=c.n_step_observed, holds=c.holds)
        return out
    regime = _regime(traj)
    checks = [_one_step(a, b, regime, tol)
              for a, b in zip(traj.points, traj.points[1:])]
    pred, observed, rate_ok = check_rate(traj, fstar, tol=tol)
    out.update(
        mode="smooth", regime=regime.to_json_dict(),
        per_step_slacks=[c.slack for c in checks],
        equality_hits=[c.equality_hit for c in checks],
        rate={"bound_no_fstar": pred.bound_no_fstar,
              "bound_with_fstar": pred.bound_with_fstar,
              "p": pred.p_used, "N": pred.N,
              "linear_regime_warning": pred.linear_regime_warning,
              "observed": observed},
        holds=all(c.holds for c in checks) and rate_ok)
    return out
