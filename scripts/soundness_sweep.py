#!/usr/bin/env python3
"""Stress the one-step and N-step certificates on random quadratic instances.

Samples DC pairs inside randomly jittered parameter points near one anchor
per regime, runs DCA, and reports the worst observed certificate slack.

Example:
    python3 scripts/soundness_sweep.py --per-regime 200 --steps 25 --seed 1
"""
import argparse
import math
import sys

import numpy as np

from dcrates.certificates import SLACK_TOL, check_one_step, check_rate
from dcrates.engine import run_dca
from dcrates.oracles import analytic_infimum
from dcrates.sampling import ANCHORS, jitter_params, quad_instance_in


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--per-regime", type=int, default=200)
    ap.add_argument("--steps", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)

    worst = math.inf
    rate_failures = 0
    total = 0
    for regime in sorted(ANCHORS):
        for _ in range(args.per_regime):
            params = jitter_params(ANCHORS[regime], regime, rng)
            inst = quad_instance_in(params, rng)
            traj = run_dca(inst, rng.normal(size=inst.f1.dimension),
                           args.steps)
            total += 1
            for k in range(traj.n_steps):
                worst = min(worst, check_one_step(traj, k).slack)
            _, _, holds = check_rate(traj, fstar=analytic_infimum(inst))
            rate_failures += 0 if holds else 1
        print("regime %d: done (%d instances)" % (regime, args.per_regime))

    print("instances: %d, worst one-step slack: %.3e, rate failures: %d"
          % (total, worst, rate_failures))
    return 0 if (worst >= -SLACK_TOL and rate_failures == 0) else 2


if __name__ == "__main__":
    sys.exit(main())
