import json
import math

import numpy as np
import pytest

from dcrates.curvature import Curvature, InvalidParams
from dcrates.oracles import (KINK_TOL, LINK_TOL, AbsPlusQuadratic,
                             FunctionSpec, MaxOfQuadratics, Quadratic, Unbounded,
                             analytic_infimum, evaluate, family_from_json,
                             family_to_json, instance_from_json,
                             instance_to_json, is_subgradient, make_instance,
                             _value_interval, solve_dca_subproblem,
                             subgradient)

INF = math.inf


def quad_spec(c, b, mu=None, L=None):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    mu = float(c.min()) if mu is None else mu
    L = float(c.max()) if L is None else L
    if mu >= L:
        L = mu + 1.0
    return FunctionSpec(Quadratic(tuple(c), tuple(b)), Curvature(mu, L))


def test_evaluate_quadratic_example():
    a = evaluate(quad_spec(2.0, 0.0), 3.0)
    assert a.value == 9.0
    assert a.subgradient[0] == 6.0


def test_abs_least_norm_at_kink():
    spec = FunctionSpec(AbsPlusQuadratic(1.0, 0.0, 0.0), Curvature(0.0, INF))
    a = evaluate(spec, 0.0)
    assert a.value == 0.0 and a.subgradient[0] == 0.0
    assert evaluate(spec, 0.0, "leftmost").subgradient[0] == -1.0
    assert evaluate(spec, 0.0, "rightmost").subgradient[0] == 1.0
    assert evaluate(spec, 0.0, 0.25).subgradient[0] == pytest.approx(-0.5)


def test_max_quadratics_crossing_policies():
    # pieces x^2/2 and x^2/2 - 2x + 1 cross at x = 0.5 with slopes 0.5, -1.5
    spec = FunctionSpec(MaxOfQuadratics(((1.0, 0.0, 0.0), (1.0, -2.0, 1.0))),
                        Curvature(1.0, INF))
    lo, hi = _value_interval(spec.family, 0.5)[1:3]
    assert (lo, hi) == (-1.5, 0.5)
    assert evaluate(spec, 0.5, "leftmost").subgradient[0] == -1.5
    assert evaluate(spec, 0.5, "rightmost").subgradient[0] == 0.5


def test_weighted_pick_is_a_subgradient():
    """Flat pieces meeting at 0 with slopes -341848.77 and 0.0057: the
    weight-1 pick lo + 1 * (hi - lo) rounds 2.5e-11 past hi, far outside
    is_subgradient's pad, so _pick clamps it to hi."""
    lo, hi = -341848.7655719613, 0.005731164336756564
    spec = FunctionSpec(MaxOfQuadratics(((0.0, lo, 0.0), (0.0, hi, 0.0))),
                        Curvature(0.0, INF))
    assert lo + 1.0 * (hi - lo) > hi
    assert evaluate(spec, 0.0, 1.0).subgradient[0] == hi
    for policy in (0.0, 0.5, 1.0, "leftmost", "rightmost", "least_norm"):
        assert is_subgradient(spec, 0.0, evaluate(spec, 0.0, policy).subgradient)
    assert not is_subgradient(spec, 0.0, np.array([hi + 1e-9]))


def test_subproblem_examples():
    assert solve_dca_subproblem(quad_spec(2.0, 0.0), 1.0)[0] == 0.5
    assert solve_dca_subproblem(quad_spec(1.0, 0.0), 0.0)[0] == 0.0
    spec = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(1.0, INF))
    assert solve_dca_subproblem(spec, 0.5)[0] == 0.0  # 0.5 in [-1, 1]


def test_subproblem_unbounded():
    with pytest.raises(Unbounded):
        solve_dca_subproblem(quad_spec(0.0, 1.0, mu=0.0, L=1.0), 0.0)


@pytest.mark.parametrize("c, b, g, expected", [
    ((0.0, 2.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.5)),   # flat, zero drift
    ((0.0, 2.0), (1.0, 0.0), (1.5, 1.0), Unbounded),    # flat, drift 0.5
    ((-1.0, 2.0), (0.0, 0.0), (0.0, 1.0), Unbounded),   # negative c
], ids=["flat_zero_drift", "flat_with_drift", "negative_c"])
def test_quadratic_subproblem_cases(c, b, g, expected):
    spec = quad_spec(c, b)
    if expected is Unbounded:
        with pytest.raises(Unbounded):
            solve_dca_subproblem(spec, np.array(g))
    else:
        assert solve_dca_subproblem(spec, np.array(g)).tolist() == list(expected)


def _masked_solution(c, b, g):
    """The subproblem's solution written out with a mask over c > 0."""
    c, b = np.array(c), np.array(b)
    out = np.zeros_like(g)
    pos = c > 0.0
    out[pos] = (g[pos] - b[pos]) / c[pos]
    return out


@pytest.mark.parametrize("flat", [False, True], ids=["all_positive", "mixed"])
def test_quadratic_subproblem_bytes_match_the_masked_formula(flat):
    """Every c > 0 takes (g - b) / c, a flat coordinate the masked path: both
    give the bytes of the masked formula."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        c = rng.uniform(1e-3, 5.0, d) * 10.0 ** rng.integers(-3, 4, d)
        b = rng.normal(size=d)
        g = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4, d)
        if flat:
            zero = np.arange(d) == rng.integers(d)
            c[zero], g[zero] = 0.0, b[zero]
        fam = Quadratic(tuple(c), tuple(b))
        got = solve_dca_subproblem(FunctionSpec(fam, Curvature(0.0, INF)), g)
        assert got.dtype == np.float64
        assert got.tobytes() == _masked_solution(fam.c, fam.b, g).tobytes()


def test_quadratic_evaluate_bytes_match_the_formula():
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        c = rng.uniform(-2.0, 5.0, d)
        c[rng.integers(d)] = 0.0
        fam = Quadratic(tuple(c), tuple(rng.normal(size=d)))
        v = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4, d)
        a = evaluate(FunctionSpec(fam, Curvature(-2.0, 5.0)), v)
        cv, bv = np.array(fam.c), np.array(fam.b)
        assert a.value.hex() == float(np.sum(0.5 * cv * v * v + bv * v)).hex()
        assert a.subgradient.tobytes() == (cv * v + bv).tobytes()


def test_quadratic_arrays_stay_out_of_equality_hash_repr_and_json():
    """The arrays built on first use are no field: a family from tuples and
    the same family read from JSON look alike before and after either
    builds them, and the arrays cannot be written through."""
    c, b = (2.0, 0.0, 1.5), (-1.0, 0.25, 3.0)
    built = Quadratic(c, b)
    read = family_from_json(json.loads(json.dumps(family_to_json(built))))

    def views(fam):
        return fam, hash(fam), repr(fam), json.dumps(family_to_json(fam))

    assert views(built) == views(read)
    assert built.arrays.c.tolist() == list(c)
    assert views(built) == views(read)
    assert read.arrays.half_c.tolist() == [1.0, 0.0, 0.75]
    assert views(built) == views(read)
    with pytest.raises(ValueError):
        built.arrays.b[0] = 0.0


def _random_specs(rng):
    kind = rng.integers(3)
    if kind == 0:
        d = int(rng.integers(1, 4))
        c = rng.uniform(-1.0, 3.0, d)
        return quad_spec(c, rng.normal(size=d))
    if kind == 1:
        pieces = tuple((rng.uniform(0.2, 3.0), rng.normal(), rng.normal())
                       for _ in range(int(rng.integers(2, 5))))
        mu = min(p[0] for p in pieces)
        return FunctionSpec(MaxOfQuadratics(pieces), Curvature(mu, INF))
    a, m = rng.uniform(0.1, 2.0), rng.uniform(-1.0, 2.0)
    return FunctionSpec(AbsPlusQuadratic(a, m, rng.normal()), Curvature(m, INF))


def test_oracle_validity_lemma_bounds():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        spec = _random_specs(rng)
        x = rng.normal(size=spec.dimension) * 2
        y = rng.normal(size=spec.dimension) * 2
        fx = evaluate(spec, x).value
        ay = evaluate(spec, y)
        dist_sq = float(np.sum((x - y) ** 2))
        gap = fx - ay.value - float(ay.subgradient @ (x - y))
        mu, L = spec.declared.mu, spec.declared.L
        assert gap >= mu / 2 * dist_sq - 1e-9 * max(1.0, abs(gap))
        if math.isfinite(L):
            assert gap <= L / 2 * dist_sq + 1e-9 * max(1.0, abs(gap))
        checked += 1


def test_subproblem_optimality_sampling():
    rng = np.random.default_rng(5)
    for _ in range(50):
        spec = _random_specs(rng)
        if spec.family.curvature_range()[0] <= 0.0:
            continue
        g = rng.normal(size=spec.dimension)
        try:
            xp = solve_dca_subproblem(spec, g)
        except Unbounded:
            continue
        ref = evaluate(spec, xp).value - float(g @ xp)
        for _ in range(20):
            w = xp + rng.normal(size=spec.dimension) * rng.uniform(0.01, 5)
            val = evaluate(spec, w).value - float(g @ w)
            assert val >= ref - 1e-10 * max(1.0, abs(ref))


def test_hypoconvex_subgradient_monotone_after_shift():
    rng = np.random.default_rng(9)
    spec = FunctionSpec(AbsPlusQuadratic(0.5, -1.0, 0.3), Curvature(-1.0, INF))
    for _ in range(200):
        x, y = rng.normal() * 3, rng.normal() * 3
        gx = evaluate(spec, x).subgradient[0] + 1.0 * x
        gy = evaluate(spec, y).subgradient[0] + 1.0 * y
        assert (gx - gy) * (x - y) >= -1e-12


def test_certify_declared():
    ok = quad_spec([1.0, 2.0], [0.0, 0.0])
    assert ok.certify_declared() == []
    bad = FunctionSpec(Quadratic((2.0,), (0.0,)), Curvature(0.0, 1.0))
    assert bad.certify_declared()


@pytest.mark.parametrize("tag, family, cls", [
    ("f1", Quadratic((2.0,), (0.0,)), Curvature(math.nan, 4.0)),
    ("f2", Quadratic((2.0,), (0.0,)), Curvature(1.0, math.nan)),
    ("f1", Quadratic((math.nan,), (0.0,)), Curvature(1.0, 4.0)),
    ("f2", AbsPlusQuadratic(1.0, math.nan, 0.0), Curvature(1.0, INF))],
    ids=["mu", "L", "quadratic_range", "abs_range"])
def test_nan_declared_class_is_refused(tag, family, cls):
    """A NaN declared mu or L, or a NaN in the family's curvature range, is
    refused with InvalidParams naming the term: every comparison with a NaN
    is False, so the range comparisons alone would accept it."""
    spec = FunctionSpec(family, cls)
    other = FunctionSpec(Quadratic((1.0,), (0.0,)), Curvature(0.0, 2.0))
    terms = (spec, other) if tag == "f1" else (other, spec)
    with pytest.raises(InvalidParams,
                       match="^%s: NaN curvature parameter " % tag):
        make_instance(*terms)


@pytest.mark.parametrize("k", [0, 50, -50])
def test_certify_declared_verdict_is_scale_free(k):
    """The declared-class check pads by 1e-12 relative to the compared
    curvatures, so scaling every curvature by 2^k keeps each verdict: an
    L 1 ulp under the true curvature passes, a mu twice the true one fails
    (an absolute 1e-12 pad accepted it at 2^-50), and infinite bounds
    compare exactly."""
    s = 2.0 ** k
    c = (1.0 * s, 3.0 * s)

    def verdict(family, mu, L):
        spec = FunctionSpec(family, Curvature(mu, L))
        return [v.split("=")[0] for v in spec.certify_declared()]

    quad = Quadratic(c, (0.0, 0.0))
    assert verdict(quad, c[0], c[1]) == []
    assert verdict(quad, c[0], math.nextafter(c[1], 0.0)) == []
    assert verdict(quad, 2.0 * c[0], c[1]) == ["declared mu"]
    assert verdict(quad, c[0], 0.5 * c[1]) == [
        "actual upper curvature %r exceeds declared L" % c[1]]
    kinked = MaxOfQuadratics(((c[0], 0.0, 0.0), (c[1], 1.0, 0.0)))
    assert verdict(kinked, c[0], INF) == []
    assert verdict(kinked, c[0], 1e300) == ["actual upper curvature inf exceeds declared L"]
    concave_kink = AbsPlusQuadratic(-1.0, c[0], 0.0)
    assert verdict(concave_kink, -1e300, INF) == ["declared mu"]


def test_max_quadratics_meeting_point_of_nearly_equal_curvatures():
    """Two pieces whose curvatures agree to 1e-10 meet at 2.0017782016527743
    (50-digit arithmetic); the root (-db + r)/dc lost it to cancellation
    (2.0017787049947118, where one piece alone is active) and the subproblem
    raised Unbounded.  2 da / q keeps it to rounding."""
    pieces = ((0.7544590287669647, 0.8203782095377569, -0.9613155451503265),
              (0.7544590288738234, -0.35479665314109476, 1.3911238778763935))
    spec = FunctionSpec(MaxOfQuadratics(pieces), Curvature(pieces[0][0], INF))
    lo, hi = _value_interval(spec.family, 2.0017782016527743)[1:3]
    assert lo < hi
    for g in (lo, 0.5 * (lo + hi), hi):
        w = solve_dca_subproblem(spec, g)
        assert w[0] == pytest.approx(2.0017782016527743, rel=1e-15)
        assert is_subgradient(spec, w, np.array([g]))


def test_max_quadratics_kink_test_is_sized_by_the_pieces_terms():
    """The two pieces meet at 0.21761354, where the first piece's terms are
    about 2.6e5 and the max is under 1.  A kink pad of 1e-12 * max(1, |max|)
    left the second piece out of the active set, so g passed at no candidate
    and the subproblem raised Unbounded; the pad is KINK_TOL times the
    larger sum of term magnitudes of the two pieces compared."""
    pieces = ((1698641.3863664225, 1031323.6983320253, -264649.7978333482),
              (0.8396130733770817, -1.372202371220427, 0.6135268416549016))
    spec = FunctionSpec(MaxOfQuadratics(pieces), Curvature(pieces[1][0], INF))
    w = solve_dca_subproblem(spec, np.array([-1.1894912005522467]))
    assert w[0] == pytest.approx(0.21761354, abs=1e-8)


def test_max_quadratics_kink_test_ignores_a_large_dominated_piece():
    """At t = 1 only the third piece is active, with derivative 1 + 1e-7.
    The first piece's terms are 1e6, so a kink pad sized by the largest
    piece (1e-6) also counted the second piece active, and least_norm
    picked 1.0; each comparison is sized by the two pieces it compares."""
    spec = FunctionSpec(MaxOfQuadratics(((0.0, 0.0, -1e6), (1.0, 0.0, 0.0),
                                         (1.0, 1e-7, 0.0))), Curvature(0.0, INF))
    assert evaluate(spec, 1.0).subgradient[0] == 1.0 + 1e-7
    assert is_subgradient(spec, 1.0, np.array([1.0 + 1e-7]))
    assert not is_subgradient(spec, 1.0, np.array([1.0]))


def _kinks(rng, n):
    """Seeded 1D families with a kink: two max-of-quadratics pieces, each
    scaled by 10^U(-6, 6), at their meeting point, and abs-plus-quadratics
    with each coefficient so scaled, at 0."""
    out = []
    while len(out) < n:
        sizes = 10.0 ** rng.uniform(-6, 6, 3)
        if len(out) % 4 == 3:
            a, m, b = sizes * rng.normal(size=3)
            out.append((lambda s: AbsPlusQuadratic(s * abs(a), s * m, s * b), 0.0))
            continue
        (c0, b0, a0), (c1, b1, a1) = pieces = [
            tuple(sizes[i] * rng.normal(size=3)) for i in range(2)]
        disc = (b0 - b1) ** 2 - 2.0 * (c0 - c1) * (a0 - a1)
        if disc >= 0.0:
            out.append((lambda s, pieces=pieces: MaxOfQuadratics(
                tuple((s * c, s * b, s * a) for c, b, a in pieces)),
                (b1 - b0 + math.sqrt(disc)) / (c0 - c1)))
    return out


def test_is_subgradient_verdict_is_scale_free_at_kinks():
    """Scaling a 1D family and g by 2^k scales the interval ends and every
    term they sum exactly, so the verdict at the ends, their midpoint and
    1e-9 relative outside each end stays the same.  With a pad of
    1e-12 * max(1, |g|), and a kink test 1e-12 * max(1, |max|), both
    absolute below 1, it changed in most of these cases."""
    for family, t in _kinks(np.random.default_rng(5), 400):
        spec = FunctionSpec(family(1.0), Curvature(-INF, INF))
        lo, hi = _value_interval(spec.family, t)[1:3]
        gs = (lo, 0.5 * (lo + hi), hi, lo - 1e-9 * abs(lo), hi + 1e-9 * abs(hi))
        want = [is_subgradient(spec, t, np.array([g])) for g in gs]
        assert want[:3] == [True, True, True], (family(1.0), t)
        for k in (20, -20, 40, -40):
            s = 2.0 ** k
            scaled = FunctionSpec(family(s), Curvature(-INF, INF))
            assert [is_subgradient(scaled, t, np.array([s * g]))
                    for g in gs] == want, (family(1.0), t, k)


def test_stacked_1d_subgradient_test_matches_one_point_verdicts():
    """On seeded abs-plus-quadratic and max-of-quadratics stacks, at a
    kink, within KINK_TOL of it and off it, with g at the interval ends,
    their midpoint, inside each end's pad and past it, the stack's verdicts
    are the one-point verdicts."""
    verdicts = set()
    for family, t in _kinks(np.random.default_rng(29), 160):
        spec = FunctionSpec(family(1.0), Curvature(-INF, INF))
        unit = abs(t) if t else 1.0
        ts, gs = [], []
        for w in (0.0, 0.5, -0.5, 2.0, -2.0, 1e9, -1e9):
            x = t + w * KINK_TOL * unit
            _, lo, hi, lo_size, hi_size = _value_interval(spec.family, x)
            pads = [(r * LINK_TOL * lo_size, r * LINK_TOL * hi_size)
                    for r in (0.5, 4.0)]
            for g in [lo, hi, 0.5 * (lo + hi)] + [
                    e for pl, ph in pads for e in (lo - pl, hi + ph)]:
                ts.append(x)
                gs.append(g)
        stacked = is_subgradient(spec, np.array(ts)[:, None],
                                 np.array(gs)[:, None])
        one = [is_subgradient(spec, x, np.array([g])) for x, g in zip(ts, gs)]
        assert stacked.dtype == bool and stacked.tolist() == one, family(1.0)
        verdicts.update(one)
    assert verdicts == {True, False}


def test_quadratic_subgradient_test_is_sized_by_its_terms():
    """f = 1e-20 (x^2/2 + x) has gradient 2e-20 at x = 1, and g = 0 is no
    subgradient; a pad of LINK_TOL * max(1, ||g||), absolute below scale 1,
    took it.  Scaling c, b and g by 2^k scales the gradient and the term
    sizes |c*x| + |b| exactly, so no verdict changes: at the gradient, and
    0.5 and 2 pads off it."""
    tiny = FunctionSpec(Quadratic((1e-20,), (1e-20,)), Curvature(-INF, INF))
    assert is_subgradient(tiny, 1.0, np.array([2e-20]))
    assert not is_subgradient(tiny, 1.0, np.array([0.0]))
    rng = np.random.default_rng(24)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        c, b, x = rng.normal(size=d), rng.normal(size=d), 3.0 * rng.normal(size=d)
        u = rng.normal(size=d)
        pad = LINK_TOL * np.linalg.norm(np.abs(c * x) + np.abs(b))
        gs = [c * x + b + r * pad * u / np.linalg.norm(u) for r in (0.0, 0.5, 2.0)]
        for k in (0, 20, -20, 40, -40):
            s = 2.0 ** k
            spec = FunctionSpec(Quadratic(tuple(s * c), tuple(s * b)),
                                Curvature(-INF, INF))
            assert [is_subgradient(spec, x, s * g) for g in gs] == \
                [True, True, False], (c, b, x, k)


@pytest.mark.parametrize("fam", [
    Quadratic((2.0, -1.0, 0.0), (0.5, 1.0, -3.0)),
    AbsPlusQuadratic(1.0, 0.5, 0.2),
    MaxOfQuadratics(((1.0, 0.0, 0.0), (2.0, -1.0, 0.1), (-0.5, 0.3, 0.0)))])
def test_oracles_on_a_stack_match_them_row_by_row(fam):
    """evaluate and is_subgradient at an (n, d) stack give, bit for bit, the
    answers at its rows; a stack with failing rows raises its first one's
    error."""
    spec = FunctionSpec(fam, Curvature(-INF, INF))
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, fam.dimension)) * 2.0
    X[:5] = 0.0        # the kinks of abs-plus-quadratic
    for policy in ("leftmost", "least_norm", 0.3):
        stack = evaluate(spec, X, policy)
        rows = [evaluate(spec, x, policy) for x in X]
        assert stack.value.tolist() == [a.value for a in rows]
        assert stack.subgradient.tolist() == [a.subgradient.tolist() for a in rows]
    G = stack.subgradient + rng.choice([0.0, 1e-13, 1e-3], size=X.shape)
    assert is_subgradient(spec, X, G).tolist() == [
        is_subgradient(spec, x, g) for x, g in zip(X, G)]
    X[3], X[7] = 1e300, np.nan     # row 3 fails on its value, not its point
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidParams) as exc:
            evaluate(spec, X)
        with pytest.raises(InvalidParams) as first:
            evaluate(spec, X[3])
    assert str(exc.value) == str(first.value)


POLICIES = ("leftmost", "rightmost", "least_norm", 0.25, "0.75")


def test_subgradient_equals_evaluates_pick_bit_for_bit():
    """Quadratics of d = 1, 2, 3, and the 1D families at and off their
    kinks, under all five policies: the same array, byte for byte."""
    rng = np.random.default_rng(28)
    cases = []
    for d in (1, 2, 3):
        fam = Quadratic(tuple(rng.normal(size=d)), tuple(rng.normal(size=d)))
        cases += [(fam, rng.normal(size=d) * 3.0) for _ in range(5)]
    fam = AbsPlusQuadratic(1.3, -0.4, 0.2)
    cases += [(fam, x) for x in ([0.0], [-0.0], [1e-300], [-2.5], [0.7])]
    # pieces x^2/2, x^2/2 - 2x + 1 and 0 meet at 0.5 and at 0 and 2
    fam = MaxOfQuadratics(((1.0, 0.0, 0.0), (1.0, -2.0, 1.0), (0.0, 0.0, 0.0)))
    cases += [(fam, x) for x in ([0.5], [0.0], [2.0], [0.3], [-1.7], [3.1])]
    for fam, x in cases:
        spec = FunctionSpec(fam, Curvature(-INF, INF))
        for policy in POLICIES:
            want = evaluate(spec, x, policy).subgradient
            for point in (np.array(x, dtype=float), list(x)):
                got = subgradient(spec, point, policy)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (fam, x, policy)


def test_subgradient_refuses_a_non_finite_point_or_gradient():
    """Only the point and the subgradient are checked: f2 = 2x^2 at 1e154
    has a value past the float range and the gradient 4e154."""
    spec = quad_spec([4.0], [0.0])
    with np.errstate(over="ignore"):
        with pytest.raises(InvalidParams, match="is not finite"):
            evaluate(spec, [1e154])
        assert subgradient(spec, [1e154]).tolist() == [4e154]
        with pytest.raises(InvalidParams, match="^subgradient \\[inf\\] at "
                                                "x = \\[1e\\+308\\] is not "
                                                "finite"):
            subgradient(spec, [1e308])
        steep = FunctionSpec(AbsPlusQuadratic(1.0, 1e308, 0.0),
                             Curvature(1e308, INF))
        with pytest.raises(InvalidParams, match="^subgradient \\[inf\\] "):
            subgradient(steep, [10.0])
    abs_spec = FunctionSpec(AbsPlusQuadratic(1.0, 1.0, 0.0), Curvature(1.0, INF))
    for spec, x in ((quad_spec([1.0, 2.0], [0.0, 0.0]), [0.0, np.nan]),
                    (quad_spec([1.0], [0.0]), [INF]), (abs_spec, [-INF])):
        with pytest.raises(InvalidParams, match="^oracle point must be finite$"):
            subgradient(spec, x)


def test_instance_rejects_false_declared_class():
    f1 = FunctionSpec(Quadratic((1.0,), (0.0,)), Curvature(1.0, 1.2))
    f2 = FunctionSpec(Quadratic((0.95,), (0.0,)), Curvature(0.0, 0.1))
    with pytest.raises(InvalidParams) as exc:
        make_instance(f1, f2)
    assert str(exc.value) == "f2: actual upper curvature 0.95 exceeds declared L=0.1"
    f1_low = FunctionSpec(Quadratic((1.0,), (0.0,)), Curvature(1.1, 1.2))
    with pytest.raises(InvalidParams, match="^f1: declared mu=1.1 exceeds"):
        make_instance(f1_low, FunctionSpec(Quadratic((0.95,), (0.0,)),
                                           Curvature(0.0, 1.0)))


def test_analytic_infimum_quadratic():
    f1 = quad_spec([2.0, 3.0], [0.0, 1.0])
    f2 = quad_spec([1.0, 1.0], [1.0, 0.0])
    inst = make_instance(f1, f2)
    # F = x1^2/2 - x1 + x2^2 + x2 per coordinate -> -1/2 - 1/4... compute:
    # coord1: dc=1, db=-1 -> -1/2; coord2: dc=2, db=1 -> -1/4
    assert analytic_infimum(inst) == pytest.approx(-0.75)


def test_analytic_infimum_abs_pair():
    f1 = FunctionSpec(AbsPlusQuadratic(2.0, 1.0, 0.0), Curvature(1.0, INF))
    f2 = FunctionSpec(AbsPlusQuadratic(1.0, 0.5, 0.3), Curvature(0.5, INF))
    inst = make_instance(f1, f2)
    # F = |x| + 0.25 x^2 - 0.3 x, minimized at 0
    assert analytic_infimum(inst) == 0.0


def test_instance_json_round_trip():
    f1 = quad_spec([2.0], [0.0])
    f2 = FunctionSpec(AbsPlusQuadratic(1.0, 0.5, 0.0), Curvature(0.5, INF))
    inst = make_instance(f1, f2, fstar=-1.0)
    blob = json.dumps(instance_to_json(inst))
    back = instance_from_json(json.loads(blob))
    assert back.params == inst.params
    assert back.fstar == -1.0
    assert back.f2.family == inst.f2.family
