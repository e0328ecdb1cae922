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
Every check reads the trajectory's columns and covers all of a run's steps
in one stacked pass, computed once per run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .curvature import InvalidParams, validate
from .engine import Trajectory
from .interpolation import pair_lower_bound
from .oracles import _dot
from .regimes import RegimeCertificate, one_step_certificate

SLACK_TOL = 1e-9
EQ_TOL = 1e-7


class MissingFstar(RuntimeError):
    """An F*-dependent bound was requested without a lower-bound value."""


def _f_scale(traj: Trajectory):
    """max(1, |f1|, |f2|), the unit of a slack's tolerance: over x^k and
    x^{k+1} for each step, as an (N,) array, and over the whole run."""
    f = np.fmax(np.abs(traj.f1), np.abs(traj.f2))
    return (np.fmax(np.fmax(f[:-1], f[1:]), 1.0),
            float(np.fmax.reduce(f, initial=1.0)))


def _check_step(traj: Trajectory, k: int) -> None:
    """Refuse a k outside 0 <= k < N."""
    if not 0 <= k < traj.n_steps:
        raise InvalidParams("trajectory has no step %d" % k)


@dataclass(frozen=True)
class OneStepCheck:
    regime: RegimeCertificate
    lhs: float
    rhs: float
    slack: float
    equality_hit: bool
    holds: bool


class _Steps(NamedTuple):
    """A smooth run's regime and its certificates at each of its N steps,
    as (N,) arrays."""
    regime: RegimeCertificate
    lhs: np.ndarray           # F(x^k) - F(x^{k+1})
    rhs: np.ndarray           # the decrease bound
    slack: np.ndarray
    equality_hit: np.ndarray
    scale: np.ndarray         # _f_scale of the step
    replay: np.ndarray        # replay_proof_combination


def _steps(traj: Trajectory) -> _Steps:
    """Classify the run (the gate: InvalidParams, PreconditionViolated,
    BothNonsmooth) and certify every step in one stacked pass, stored once
    per trajectory object like Trajectory.points (no dataclass field, so in
    neither eq, repr nor JSON).  For odd regimes the replayed combination
    reads, with B1/B2 the pairwise lower bounds of f1 on (x, x+) and f2 on
    (x+, x),

        dF >= B1(G) + (1 + 2 alpha) B2(G+) - alpha <G+, dx>,

    and the even regimes mirror it with the roles of the terms exchanged.
    """
    if "_steps" in traj.__dict__:
        return traj.__dict__["_steps"]
    params = traj.instance.params
    regime = one_step_certificate(params)
    alpha = regime.alpha
    lhs = traj.F[:-1] - traj.F[1:]
    rhs = regime.decrease_bound(traj.G_norm_sq[:-1], traj.G_norm_sq[1:])
    slack = lhs - rhs
    eq_scale = np.fmax(np.fmax(np.abs(lhs), np.abs(rhs)), 1.0)
    dx = traj.X[:-1] - traj.X[1:]
    G = traj.G1 - traj.G2
    B1 = pair_lower_bound(params.f1, dx, G[:-1])
    B2 = pair_lower_bound(params.f2, -dx, -G[1:])
    if regime.index % 2 == 1:
        combined = B1 + (1.0 + 2.0 * alpha) * B2 - alpha * _dot(G[1:], dx)
    else:
        combined = B2 + (1.0 + 2.0 * alpha) * B1 - alpha * _dot(G[:-1], dx)
    return traj.__dict__.setdefault("_steps", _Steps(
        regime, lhs, rhs, slack, np.abs(slack) <= EQ_TOL * eq_scale,
        _f_scale(traj)[0], lhs - combined))


def check_one_step(traj: Trajectory, k: int = 0,
                   tol: float = SLACK_TOL) -> OneStepCheck:
    """Check the run's own decrease certificate (gated by classifying it) on
    the step k -> k+1."""
    s = _steps(traj)
    _check_step(traj, k)
    return OneStepCheck(s.regime, float(s.lhs[k]), float(s.rhs[k]),
                        float(s.slack[k]), bool(s.equality_hit[k]),
                        bool(s.slack[k] >= -tol * s.scale[k]))


def replay_proof_combination(traj: Trajectory, k: int = 0) -> float:
    """Slack lhs - rhs of the alpha-weighted intermediate inequality behind
    the regime on step k (see _steps); a valid certificate gives a
    nonnegative value."""
    s = _steps(traj)
    _check_step(traj, k)
    return float(s.replay[k])


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
    regime = _steps(traj).regime
    _check_step(traj, 0)     # at least one completed step
    N = traj.n_steps
    F0, FN = float(traj.F[0]), float(traj.F[-1])
    p = regime.p
    bound = (F0 - FN) / (p * N)
    if fstar is None:
        fstar = traj.instance.fstar
    bound_star = None
    if fstar is not None and params.L1 > params.mu2:
        extra = 0.0 if math.isinf(params.L1) else 1.0 / (params.L1 - params.mu2)
        bound_star = (F0 - fstar) / (p * N + extra)
    pred = RatePrediction(bound, bound_star, p, N, regime.index in (7, 8))
    observed = 0.5 * float(traj.G_norm_sq.min())
    holds = bool(observed <= bound + tol)
    if bound_star is not None:
        holds = holds and bool(observed <= bound_star + tol)
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
    validate(params)
    if fstar is None:
        fstar = traj.instance.fstar
    if fstar is None:
        raise MissingFstar("the N-step bound is stated against F*")
    m1, m2 = params.mu1, params.mu2
    _check_step(traj, 0)     # at least one completed step
    N, F0 = traj.n_steps, float(traj.F[0])
    lhs = (m2 * 0.5 * traj.dx_norm_sq + traj.T if m2 >= 0.0
           else (m1 + m2) / m1 * traj.T)
    slacks = (traj.F[:-1] - traj.F[1:]) - lhs
    if m2 >= 0.0:
        # the per-step bounds sum to one on min_k (T_k + mu2/2 ||dx_k||^2)
        observed = float(lhs.min())
        bound = (F0 - fstar) / N
        branch = "mu2_nonneg"
    else:
        observed = float(traj.T.min())
        bound = m1 / (m1 + m2) * (F0 - fstar) / N
        branch = "mu2_neg"
    step_scale, run_scale = _f_scale(traj)
    holds = (bool((slacks >= -tol * step_scale).all())
             and bool(observed <= bound + tol * run_scale))
    return NonsmoothCheck(tuple(slacks.tolist()), bound, observed, holds,
                          branch)


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
    steps = _steps(traj)
    pred, observed, rate_ok = check_rate(traj, fstar, tol=tol)
    out.update(
        mode="smooth", regime=steps.regime.to_json_dict(),
        per_step_slacks=steps.slack.tolist(),
        equality_hits=steps.equality_hit.tolist(),
        rate={"bound_no_fstar": pred.bound_no_fstar,
              "bound_with_fstar": pred.bound_with_fstar,
              "p": pred.p_used, "N": pred.N,
              "linear_regime_warning": pred.linear_regime_warning,
              "observed": observed},
        holds=bool((steps.slack >= -tol * steps.scale).all()) and rate_ok)
    return out
