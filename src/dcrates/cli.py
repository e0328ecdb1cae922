"""Command-line front end.

Exit codes: 0 success, 1 validation/usage error, 2 when a certificate check
fails (slack below tolerance) -- the CI-visible signal.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .curvature import Curvature, DcParams, InvalidParams, ext_to_json, make_params
from .regimes import (GridSpec, InconsistentBoundary, NoRegime,
                      PreconditionViolated, one_step_certificate, regime_map,
                      thresholds)
from .oracles import analytic_infimum, instance_from_json, kink_policy
from .engine import (run_dca, trajectory_to_csv, trajectory_to_json,
                     trajectory_from_json)
from .certificates import (SLACK_TOL, MissingFstar, certificate_report,
                           check_one_step, check_rate)
from .interpolation import DEFAULT_TOL, check_interpolation, triplets_from_json
from .probe import probe as run_probe, ratio_trend
from .sampling import ANCHORS, jitter_params, quad_instance_in

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


def _formula_revision() -> str:
    src = Path(__file__).with_name("regimes.py").read_bytes()
    return hashlib.sha256(src).hexdigest()[:12]


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; argparse's own 2 would read as a failed check.
    Their standard error starts with `error: `, as every other error's does,
    and the usage line follows.  An argument that starts with a minus sign
    and a float ('-1e-5', '-.5', '-inf', '-3e0,2') is a value, never an
    option; argparse alone takes only '-<digits>[.<digits>]' for one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.I)

    def error(self, message):
        self.exit(EXIT_USAGE, "error: %s: %s\n%s"
                  % (self.prog, message, self.format_usage()))


def finite_float(text: str) -> float:
    """A flag value that must be a finite number (F*)."""
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)
    return v


def tolerance(text: str) -> float:
    """A tolerance flag's value: a finite number >= 0 (-0.0 is one)."""
    v = float(text)
    if not (math.isfinite(v) and v >= 0.0):
        raise argparse.ArgumentTypeError(
            "expected a finite number >= 0, got %r" % text)
    return v


def policy(text: str):
    """A --policy value.  argparse would replace kink_policy's message, which
    names the accepted values, by 'invalid kink_policy value'."""
    try:
        return kink_policy(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def horizon_list(text: str) -> list:
    """A --horizons value: comma-separated integers."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text) from None


def _load(path: str, decode):
    """Read the JSON file at path through decode.  Malformed content (bad
    JSON, a missing key, a wrong-typed value, an infinite integer) is a
    ValueError naming the file."""
    try:
        with open(path) as fh:
            return decode(json.load(fh))
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        what = "missing key %s" % exc if isinstance(exc, KeyError) else exc
        raise ValueError("%s: %s" % (path, what)) from exc


def _params_from_args(args) -> DcParams:
    if getattr(args, "params", None):
        return _load(args.params, DcParams.from_json_dict)
    missing = [k for k in ("mu1", "L1", "mu2", "L2")
               if getattr(args, k, None) is None]
    if missing:
        raise InvalidParams("missing parameters: %s (or use --params)"
                            % ", ".join(missing))
    return make_params(args.mu1, args.L1, args.mu2, args.L2)


def _say(text: str) -> None:
    """Print text to stdout at once.  A reader that has closed the pipe gets
    nothing more, and the command keeps its own exit code: stdout goes to
    the null device, so no later line, nor the flush at exit, fails again."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _nonfinite_field(obj, path=""):
    """(path, value) of the first float in obj, in the order json writes
    them, that is not finite; None when there is none."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = (("%s.%s" % (path, k) if path else str(k), v)
                 for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = (("%s[%d]" % (path, i), v) for i, v in enumerate(obj))
    else:
        return None
    for where, v in items:
        found = _nonfinite_field(v, where)
        if found is not None:
            return found
    return None


def _strict_json(payload: dict, **kw) -> str:
    """payload as JSON without NaN or infinities.  A number past the float
    range is an OverflowError naming its field, which main reports with the
    range the formulas can evaluate."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False, **kw)
    except ValueError:
        found = _nonfinite_field(payload)
        if found is None:
            raise
        raise OverflowError("%s = %r is past the float range" % found) from None


def _emit(payload: dict, out: str | None, summary: str | None = None):
    """Write payload, tagged with the formula revision, to out, or print it.
    The summary line is printed first, and only once payload has proved to be
    strict JSON, so a refused payload prints nothing."""
    payload = dict(payload, formula_revision=_formula_revision())
    text = _strict_json(payload, default=str)
    if summary is not None:
        _say(summary)
    if out:
        Path(out).write_text(text + "\n")
    else:
        _say(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args) -> int:
    params = _params_from_args(args)
    cert = one_step_certificate(params)
    thr = thresholds(params)
    _say("regime %d (%s): sigma=%.12g sigma_plus=%.12g p=%.12g alpha=%.12g"
         % (cert.index, cert.label, cert.sigma, cert.sigma_plus,
            cert.p, cert.alpha))
    _say("thresholds: S1=%g S2=%g" % (thr.S1, thr.S2))
    if args.out:
        _emit({"params": params.to_json_dict(),
               "certificate": cert.to_json_dict(),
               "S1": ext_to_json(thr.S1), "S2": ext_to_json(thr.S2)}, args.out)
    return EXIT_OK


def cmd_regime_map(args) -> int:
    grid = GridSpec.parse(args.grid)
    index, p = regime_map(args.L1, args.L2, grid)
    # each axis value and each distinct p (told apart by its bits, so -0.0
    # and 0.0 keep their own text) is formatted once, and each mu1 block is
    # written as one string
    axis = [repr(v) for v in grid.points().tolist()]
    mids = ["," + b + "," for b in axis]
    bits, which = np.unique(p.view(np.int64), return_inverse=True)
    p_text = [repr(v) for v in bits.view(float).tolist()]
    target = args.out or "regime_map.csv"
    with open(target, "w", newline="") as fh:
        fh.write("mu1,mu2,regime,p\r\n")
        for a, i_row, w_row in zip(axis, index.tolist(),
                                   which.reshape(index.shape).tolist()):
            fh.write("".join([f"{a}{m}{i},{p_text[w]}\r\n"
                              for m, i, w in zip(mids, i_row, w_row)]))
    regimes, counts = np.unique(index, return_counts=True)
    _say("wrote %d rows to %s; regime counts: %s"
         % (index.size, target, dict(zip(regimes.tolist(), counts.tolist()))))
    return EXIT_OK


def _certify(traj, args, out: str | None, summary: str | None = None) -> int:
    """The certificate report of traj, written to out or printed after the
    summary line; exit 2 when a check fails.  A report that is refused (no
    step to check, a field past the float range) prints nothing."""
    report = certificate_report(traj, fstar=args.fstar, tol=args.check_tol)
    _emit(report, out, summary)
    return EXIT_OK if report["holds"] else EXIT_CHECK_FAILED


def cmd_run(args) -> int:
    inst = _load(args.instance, instance_from_json)
    x0 = np.array([float(v) for v in args.x0.split(",")])
    traj = run_dca(inst, x0, args.N, tol=args.tol, policy=args.policy,
                   stop_on=args.stop_on)
    if args.out:
        payload = trajectory_to_json(traj)
        payload["tolerances"] = {"stop_tol": args.tol}
        Path(args.out).write_text(_strict_json(payload) + "\n")
    if args.csv:
        Path(args.csv).write_text(trajectory_to_csv(traj))
    summary = ("ran %d step(s), stop_reason=%s, F: %.12g -> %.12g"
               % (traj.n_steps, traj.stop_reason,
                  traj.F[0], traj.F[-1]))
    if args.certify:
        return _certify(traj, args, args.report_out, summary)
    _say(summary)
    return EXIT_OK


def cmd_certify(args) -> int:
    return _certify(_load(args.traj, trajectory_from_json), args, args.out)


def cmd_interp_check(args) -> int:
    cls = Curvature(args.mu, args.L)
    violations = cls.violations("class")
    if violations:
        raise InvalidParams("; ".join(violations))
    triplets = _load(args.triplets, triplets_from_json)
    rep = check_interpolation(triplets, cls, args.tol)
    nonfinite = rep.slack[~np.isfinite(rep.slack)]
    if nonfinite.size:
        raise ValueError("%s: slack %r is not finite (past the float range)"
                         % (args.triplets, float(nonfinite[0])))
    _emit({"feasible": rep.feasible, "min_slack": rep.min_slack,
           "tol": rep.tol, "n_points": len(triplets)}, args.out)
    return EXIT_OK if rep.feasible else EXIT_CHECK_FAILED


def cmd_probe(args) -> int:
    params = _params_from_args(args)
    result = run_probe(params, N=args.N, d=args.d, budget=args.budget,
                       seed=args.seed, starts=args.starts,
                       warm=not args.cold)
    payload = {
        "params": params.to_json_dict(),
        "N": args.N, "d": args.d, "budget": args.budget, "seed": args.seed,
        "starts": args.starts, "evals": result.evals,
        "best_start": (None if result.best_start is None else
                       dict(zip(("index", "kind"), result.best_start))),
        "mirrored": result.mirrored,
        "elapsed_s": result.elapsed_s,
        "best_ratio": result.best_ratio,
        "certified_bound": result.certified_bound,
        "gap": result.gap,
        "budget_exhausted": result.budget_exhausted,
        "certificate_violation": result.certificate_violation,
    }
    if result.witness is not None:
        w = result.witness
        payload["witness"] = {"x": w.x.tolist(), "g1": w.g1.tolist(),
                              "g2": w.g2.tolist(), "f1": w.f1.tolist(),
                              "f2": w.f2.tolist()}
    _emit(payload, args.out)
    return EXIT_CHECK_FAILED if result.certificate_violation else EXIT_OK


def cmd_trend(args) -> int:
    params = _params_from_args(args)
    horizons = args.horizons
    out = ratio_trend(params, horizons, d=args.d, budget=args.budget,
                      seed=args.seed, starts=args.starts)
    res = out["results"]
    for N in horizons:
        _say("N=%2d  best ratio %.6f  certified %.6f  evals %d"
             % (N, res[N].best_ratio, res[N].certified_bound, res[N].evals))
    _say("fit 1/ratio = a N + b:  a = %.6f  b = %.6f"
         % (out["a_fit"], out["b_fit"]))
    asym = out["asymptotic"]
    if asym is not None:
        _say("conjectured asymptotic constants: p5_inf = %.6f, p6_inf = %.6f"
             % (asym.p5_inf, asym.p6_inf))
    if args.out:
        # a fit over fewer than two witnessed horizons is NaN, written null
        _emit({"params": params.to_json_dict(), "horizons": horizons,
               "d": args.d, "budget": args.budget, "seed": args.seed,
               "starts": args.starts,
               "ratios": {str(N): res[N].best_ratio for N in horizons},
               "evals": {str(N): res[N].evals for N in horizons},
               "mirrored": any(r.mirrored for r in res.values()),
               **{k: out[k] if math.isfinite(out[k]) else None
                  for k in ("a_fit", "b_fit")}}, args.out)
        _say("wrote %s" % args.out)
    violated = any(r.certificate_violation for r in res.values())
    return EXIT_CHECK_FAILED if violated else EXIT_OK


def cmd_sweep(args) -> int:
    for flag, value in (("--per-regime", args.per_regime),
                        ("--steps", args.steps)):
        if value < 1:
            raise ValueError("%s must be at least 1, got %d" % (flag, value))
    if args.seed < 0:
        raise ValueError("--seed must be >= 0, got %d" % args.seed)
    rng = np.random.default_rng(args.seed)
    worst, rate_failures = math.inf, 0
    for regime in sorted(ANCHORS):
        for _ in range(args.per_regime):
            params = jitter_params(ANCHORS[regime], regime, rng)
            inst = quad_instance_in(params, rng)
            traj = run_dca(inst, rng.normal(size=inst.f1.dimension),
                           args.steps)
            for k in range(traj.n_steps):
                worst = min(worst, check_one_step(traj, k).slack)
            _, _, holds = check_rate(traj, fstar=analytic_infimum(inst))
            rate_failures += 0 if holds else 1
        _say("regime %d: done (%d instances)" % (regime, args.per_regime))
    _say("instances: %d, worst one-step slack: %.3e, rate failures: %d"
         % (len(ANCHORS) * args.per_regime, worst, rate_failures))
    sound = worst >= -SLACK_TOL and rate_failures == 0
    return EXIT_OK if sound else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="dcrates",
        description="DCA rate certificates: classify, run, verify, probe.")
    top.add_argument("--version", action="version",
                     version="%(prog)s " + __version__
                     + " (formula revision " + _formula_revision() + ")")
    sub = top.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--params", help="JSON file with mu1/L1/mu2/L2")
        p.add_argument("--mu1", type=float)
        p.add_argument("--L1", type=float)
        p.add_argument("--mu2", type=float)
        p.add_argument("--L2", type=float)

    p = sub.add_parser("classify", help="regime and one-step coefficients")
    add_params(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("regime-map", help="grid classification as CSV")
    p.add_argument("--L1", type=float, required=True)
    p.add_argument("--L2", type=float, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:steps")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_regime_map)

    def add_check(p):
        p.add_argument("--fstar", type=finite_float)
        p.add_argument("--check-tol", dest="check_tol", type=tolerance,
                       default=SLACK_TOL)

    p = sub.add_parser("run", help="run DCA on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--x0", required=True, help="comma-separated start point")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tol", type=tolerance, default=0.0)
    p.add_argument("--policy", type=policy, default="least_norm",
                   help="kink subgradient: leftmost, rightmost, "
                   "least_norm or a weight in [0, 1]")
    add_check(p)
    p.add_argument("--stop-on", dest="stop_on", default="grad_gap",
                   choices=["grad_gap", "t_measure"])
    p.add_argument("--out", help="trajectory JSON")
    p.add_argument("--csv", help="trajectory CSV")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--report-out", dest="report_out")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("certify", help="verify certificates on a saved trajectory")
    p.add_argument("--traj", required=True)
    add_check(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("interp-check", help="pairwise interpolation feasibility")
    p.add_argument("--triplets", required=True, help="JSON list of {x,g,f}")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_interp_check)

    def add_search(p, budget, starts):
        add_params(p)
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--budget", type=int, default=budget)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--starts", type=int, default=starts)
        p.add_argument("--out")

    p = sub.add_parser("probe", help="worst-case ratio search")
    add_search(p, budget=200000, starts=32)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--cold", action="store_true", help="random starts only")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("trend", help="worst-case ratios over horizons and their fit")
    add_search(p, budget=150000, starts=16)
    p.add_argument("--horizons", type=horizon_list, default="2,4,6,8,10")
    p.set_defaults(fn=cmd_trend)

    p = sub.add_parser("sweep", help="check certificates on random instances")
    p.add_argument("--per-regime", dest="per_regime", type=int, default=200)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sweep)
    return top


# parsing leaves the parser as it was, so main builds it once per process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # numpy's overflow warnings would precede the error line; the library
        # checks finiteness itself and says so
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (NoRegime, InconsistentBoundary, PreconditionViolated, MissingFstar,
            MemoryError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
    except ArithmeticError as exc:
        print("error: %s: the declared curvatures are past what the regime "
              "and interpolation formulas can evaluate (about 1e-154 to "
              "1e154)" % exc, file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
