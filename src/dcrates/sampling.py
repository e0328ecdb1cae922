"""Seeded random DC instances inside a chosen regime, for soundness sweeps.

The draw order of both samplers is part of their contract: `dcrates sweep`
with a fixed seed sees the same instances from one release to the next.
"""
from __future__ import annotations

from .curvature import Curvature, InvalidParams, make_params
from .oracles import FunctionSpec, Quadratic, make_instance
from .regimes import InconsistentBoundary, NoRegime, PreconditionViolated, classify

_ODD_ANCHORS = {
    1: make_params(0.5, 2.0, 0.0, 1.0),
    3: make_params(2.0, 4.0, -1.0, 3.0),
    5: make_params(2.0, 10.0, -1.0, 1.5),
    7: make_params(3.0, 10.0, 0.5, 1.2),
}
# one representative parameter point per regime; the even ones are the swaps
ANCHORS = {i + k: p.swapped() if k else p
           for i, p in _ODD_ANCHORS.items() for k in (0, 1)}


def jitter_params(anchor, target_index, rng, scale=0.03):
    """Parameters within a relative `scale` of `anchor` that classify into
    regime `target_index`, by rejection sampling."""
    for _ in range(200):
        vals = []
        for v in (anchor.mu1, anchor.L1, anchor.mu2, anchor.L2):
            base = abs(v) if v != 0.0 else 0.5
            vals.append(v + rng.uniform(-scale, scale) * base)
        p = make_params(*vals)
        try:
            if classify(p).index == target_index:
                return p
        except (InvalidParams, PreconditionViolated, NoRegime, InconsistentBoundary):
            continue
    raise RuntimeError("could not sample regime %d near anchor" % target_index)


def quad_instance_in(params, rng):
    """Separable quadratics of random dimension 1..3 whose curvatures lie in
    the declared classes of `params`."""
    d = int(rng.integers(1, 4))
    lo1 = max(params.mu1, 0.05 * params.L1)
    c1 = rng.uniform(lo1, params.L1, d)
    c2 = rng.uniform(params.mu2, params.L2, d)
    f1 = FunctionSpec(Quadratic(tuple(c1), tuple(rng.normal(size=d))),
                      Curvature(params.mu1, params.L1))
    f2 = FunctionSpec(Quadratic(tuple(c2), tuple(rng.normal(size=d))),
                      Curvature(params.mu2, params.L2))
    return make_instance(f1, f2)
