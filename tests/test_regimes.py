import hashlib
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcrates.curvature import InvalidParams, in_domain, make_params, validate
from dcrates.regimes import (BOUNDARY_AGREE_TOL, BothNonsmooth, DenominatorZero,
                             GridSpec, InconsistentBoundary, NoRegime,
                             PreconditionViolated, RegimeCertificate,
                             asymptotic_constants,
                             classify, grid_classify, one_step_certificate,
                             regime_map, thresholds)
from dcrates.regimes import (_DETAIL_NAMES, _DOMAIN_NAMES, _coefficients,
                             _coeffs_p1, _coeffs_p7, _domains, _sides)
from dcrates.sampling import ANCHORS, jitter_params

INF = math.inf


def test_classify_p1_example():
    c = classify(make_params(0.5, 2.0, 0.0, 1.0))
    assert c.index == 1
    assert c.sigma == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert c.sigma_plus == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert c.p == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert c.alpha == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_classify_convex_case_p():
    c = classify(make_params(0.0, 1.0, 0.0, 1.0))
    assert c.p == pytest.approx(2.0, rel=1e-12)  # 1/L1 + 1/L2


def test_classify_p3_example():
    c = classify(make_params(2.0, 4.0, -1.0, 3.0))
    assert c.index == 3
    assert c.sigma == pytest.approx(0.1, rel=1e-12)
    assert c.sigma_plus == pytest.approx(0.5, rel=1e-12)
    assert c.p == pytest.approx(0.6, rel=1e-12)
    assert c.alpha == pytest.approx(0.5, rel=1e-12)


def test_classify_p5_example():
    c = classify(make_params(2.0, 10.0, -1.0, 1.5))
    assert c.index == 5
    assert c.sigma == pytest.approx(0.0, abs=1e-15)
    assert c.sigma_plus == pytest.approx(1.0, rel=1e-12)
    assert c.alpha == pytest.approx(1.0, rel=1e-12)


def test_thresholds_examples():
    t = thresholds(make_params(2.0, 4.0, -1.0, 3.0))
    assert t.S1 == pytest.approx(-1.0 / 6.0, rel=1e-12)
    # mu1 + mu2 = 0 fails the decrease precondition, as classify refuses it
    with pytest.raises(PreconditionViolated):
        thresholds(make_params(2.0, 4.0, -2.0, 3.0))
    t = thresholds(make_params(1.0, INF, 1.0, 2.0))
    assert t.S2 == pytest.approx(2.0, rel=1e-12)


def _explicit_p6_inf(L1, m1, m2):
    """p6_inf written out, independently of the swap."""
    if math.isinf(L1):
        return (m1 + m2) / (m2 * m2)
    return (L1 + m2) * (m1 + m2) / ((L1 + m1) * m2 * m2)


def test_asymptotic_constants_example():
    a = asymptotic_constants(make_params(2.0, 10.0, -1.0, 1.5))
    assert a.p5_inf == pytest.approx(1.75, rel=1e-12)
    # p6_inf at non-symmetric points: the benchmark anchors of regimes 3, 5
    # and 7 and their swaps, and one point each with L1 = inf and L2 = inf
    for mu1, L1, mu2, L2 in [
            (2.0, 4.0, -1.0, 3.0), (-1.0, 3.0, 2.0, 4.0),
            (2.0, 10.0, -1.0, 1.5), (-1.0, 1.5, 2.0, 10.0),
            (1.0, 10.0, -0.8, 2.0), (-0.8, 2.0, 1.0, 10.0),
            (3.0, 10.0, 0.5, 1.2), (0.5, 1.2, 3.0, 10.0),
            (1.0, INF, -0.5, 2.0), (2.0, 4.0, -1.0, INF)]:
        a = asymptotic_constants(make_params(mu1, L1, mu2, L2))
        assert a.p6_inf == _explicit_p6_inf(L1, mu1, mu2), (mu1, L1, mu2, L2)


def test_asymptotic_constants_symmetric():
    a = asymptotic_constants(make_params(0.7, 3.0, 0.7, 3.0))
    assert a.p5_inf == pytest.approx(a.p6_inf, rel=1e-12)


def test_asymptotic_denominator_zero():
    with pytest.raises(DenominatorZero):
        asymptotic_constants(make_params(2.0, 10.0, -1.0, 1.0))


def test_nonsmooth_row_p17():
    c = classify(make_params(1.0, INF, 0.0, 2.0))
    assert c.label == "p17"
    assert c.sigma == pytest.approx(0.0, abs=1e-15)
    assert c.sigma_plus == pytest.approx(0.75, rel=1e-12)  # (L2+mu1)/L2^2
    assert c.alpha == pytest.approx(0.5, rel=1e-12)


def test_nonsmooth_row_p3():
    # L2 = inf with hypoconvex f2; sigma = 1/6 at these parameters
    c = classify(make_params(2.0, 4.0, -1.0, INF))
    assert c.label == "p3"
    assert c.sigma == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert c.sigma_plus == pytest.approx(0.0, abs=1e-15)


def test_nonsmooth_row_p5():
    c = classify(make_params(2.0, INF, -1.0, 1.5))
    assert c.label == "p5"
    assert c.sigma == pytest.approx(0.0, abs=1e-15)
    assert c.sigma_plus == pytest.approx(1.0, rel=1e-12)


def test_nonsmooth_requires_one_inf():
    with pytest.raises(BothNonsmooth):
        classify(make_params(1.0, INF, 0.0, INF))


def test_limit_consistency_monotone():
    ns = classify(make_params(2.0, INF, -1.0, 1.5))
    errs = []
    for k in (3, 5, 8):
        c = classify(make_params(2.0, 10.0 ** k, -1.0, 1.5))
        errs.append(abs(c.p - ns.p))
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] < 1e-7


def _nonsmooth_reference(mu1, L1, mu2, L2):
    """(index, label, sigma, sigma_plus, alpha) of a one-nonsmooth point from
    the row table written out: for L1 = inf, mu1 < 0 gives p4, mu2*S1 >= 0
    (closed, decided in exact rationals) gives p17, anything else p5; for
    L2 = inf the swap gives p3, p28 and p6.  The coefficients are the p7, p3
    and p5 formulas at L1 = inf."""
    if math.isinf(L2):
        i, _, s, sp, a = _nonsmooth_reference(mu2, L2, mu1, L1)
        i = i + 1 if i % 2 else i - 1
        return i, {2: "p28"}.get(i, "p%d" % i), sp, s, a
    if mu1 < 0.0:
        S, r = 1.0 / mu1 + 1.0 / mu2 + 0.0, 1.0 / L2
        return 4, "p4", 0.0, r * S / (S - r), 0.0
    if mu2 == 0.0 or Fraction(mu2) * (1 / Fraction(mu1) + 1 / Fraction(mu2)
                                      + 1 / Fraction(L2)) >= 0:
        return 1, "p17", 0.0, (L2 + mu1) / (L2 * L2), mu1 / L2
    return 5, "p5", 0.0, (mu1 + mu2) / (mu2 * mu2), (mu1 + mu2) / (-mu2)


_NONSMOOTH_ROW_CASES = [(1.0, INF, 0.0, 2.0), (2.0, 4.0, -1.0, INF),
                        (2.0, INF, -1.0, 1.5)]


def _off_boundary_nonsmooth_points(rng, n):
    """Valid points with one infinite L, clear of every row boundary."""
    out = []
    while len(out) < n:
        mu1, mu2 = rng.uniform(-3.0, 4.0, 2)
        L = max(mu2, 0.0) + rng.uniform(0.1, 8.0)
        if min(abs(mu1), abs(mu2), mu1 + mu2) < 0.05:
            continue
        if abs(Fraction(mu2) * (1 / Fraction(mu1) + 1 / Fraction(mu2)
                                + 1 / Fraction(L))) < 1e-3:
            continue
        out.append((mu1, INF, mu2, L) if rng.random() < 0.5 else (mu2, L, mu1, INF))
    return out


def test_nonsmooth_rows_match_written_out_table():
    points = (_NONSMOOTH_ROW_CASES
              + _off_boundary_nonsmooth_points(np.random.default_rng(17), 3000))
    seen = set()
    for p in points:
        c = classify(make_params(*p))
        ref = _nonsmooth_reference(*p)
        assert (c.index, c.label, c.sigma, c.sigma_plus, c.alpha) == ref, p
        seen.add(c.label)
    assert seen == {"p17", "p28", "p3", "p4", "p5", "p6"}


def test_nonsmooth_rows_on_s1_boundary_agree_with_table():
    # on S1 = 0 (S2 = 0 for the swap) rows p5 and p17 meet; classify may
    # report either, with the same coefficients up to rounding
    rng = np.random.default_rng(19)
    points = [(3.0, INF, -1.0, 1.5)]
    for _ in range(300):
        mu1, L2 = rng.uniform(0.1, 5.0), rng.uniform(0.2, 6.0)
        points.append((mu1, INF, -1.0 / (1.0 / mu1 + 1.0 / L2), L2))
    for mu1, L1, mu2, L2 in list(points):
        points.append((mu2, L2, mu1, L1))
    for p in points:
        c = classify(make_params(*p))
        _, _, s, sp, a = _nonsmooth_reference(*p)
        tol = BOUNDARY_AGREE_TOL * max(1.0, abs(s), abs(sp), abs(a))
        assert abs(c.sigma - s) <= tol, p
        assert abs(c.sigma_plus - sp) <= tol, p
        assert abs(c.alpha - a) <= tol, p


# (row, the L taken to infinity, label classify reports there or None, points
# (mu1, L1, mu2, L2) in the row's domain with that L infinite).  Row 3 keeps a
# domain as L2 -> inf (p3); as L1 -> inf thr1 -> 0 and it shrinks to S1 = 0,
# where p17 and p5 meet it, so those points solve S1 = 0 exactly.
_LIMIT_ROWS = [
    (1, "L1", "p17", [(1, INF, 0, 2), (Fraction(1, 2), INF, Fraction(1, 4), 3),
                      (Fraction(3, 2), INF, Fraction(-1, 2), 2)]),
    (3, "L2", "p3", [(2, 4, -1, INF), (3, 5, Fraction(-1, 2), INF),
                     (1, Fraction(3, 2), Fraction(-1, 3), INF)]),
    (3, "L1", None, [(m1, INF, -1 / (1 / Fraction(m1) + Fraction(1, L2)), L2)
                     for m1, L2 in [(2, 3), (1, 2), (Fraction(1, 2), 4)]]),
]


def test_row_limits_match_one_nonsmooth_classify():
    """The one-nonsmooth rows are the L -> inf limits of the smooth rows,
    taken in sympy on the same coefficient functions; rows 2 and 4 take
    the other L to infinity at the swapped points."""
    import sympy

    L1, L2 = sympy.symbols("L1 L2", positive=True)
    m1, m2 = sympy.symbols("mu1 mu2", real=True)
    sym = {"L1": L1, "L2": L2}
    p1_limit = [sympy.limit(sympy.nsimplify(c), L1, sympy.oo)
                for c in _coeffs_p1(L1, L2, m1, m2)]
    assert [sympy.simplify(a - sympy.nsimplify(b))
            for a, b in zip(p1_limit, _coeffs_p7(L1, L2, m1, m2))] == [0, 0, 0]
    cases = []
    for row, var, label, points in _LIMIT_ROWS:
        cases.append((row, var, label, points))
        cases.append((row + 1, {"L1": "L2", "L2": "L1"}[var],
                      label and {"p17": "p28", "p3": "p4"}[label],
                      [(b, B, a, A) for a, A, b, B in points]))
    for row, var, label, points in cases:
        limit = [sympy.limit(sympy.nsimplify(c), sym[var], sympy.oo)
                 for c in _coefficients(row, L1, L2, m1, m2)]
        for p in points:
            at = {k: v for k, v in zip((m1, L1, m2, L2), p) if k is not sym[var]}
            c = classify(make_params(*map(float, p)))
            if label is not None:
                assert c.label == label, (row, var, p)
            for got, e in zip((c.sigma, c.sigma_plus, c.alpha), limit):
                want = float(e.subs(at))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (row, var, p)


def test_boundary_continuity_p3_p5():
    # pick mu2 < 0 with S1 = 0: 1/mu1 + 1/mu2 + 1/L2 = 0, where thr1 = -0.1 < S1,
    # so the point lies on the p3/p5 boundary S1 = 0
    mu1, L2 = 2.0, 3.0
    mu2 = -1.0 / (1.0 / mu1 + 1.0 / L2)
    lo = classify(make_params(mu1, 5.0, mu2 - 1e-6, L2))
    hi = classify(make_params(mu1, 5.0, mu2 + 1e-6, L2))
    assert (lo.index, hi.index) == (5, 3)
    assert abs(lo.sigma - hi.sigma) < 1e-4
    on = classify(make_params(mu1, 5.0, mu2, L2))
    assert on.index in (3, 5)
    assert on.sigma_plus == pytest.approx(1.0 / (L2 + mu2), rel=1e-12)


def _random_valid(rng):
    while True:
        mu1 = rng.uniform(-3, 4)
        mu2 = rng.uniform(-3, 4)
        if not (mu1 + mu2 > 1e-6):
            continue
        L1 = rng.uniform(max(mu1, 0.0) + 0.1, max(mu1, 0.0) + 8)
        L2 = rng.uniform(max(mu2, 0.0) + 0.1, max(mu2, 0.0) + 8)
        return make_params(mu1, L1, mu2, L2)


def test_partition_unique_on_random_sample():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        p = _random_valid(rng)
        c = classify(p)   # raises NoRegime/InconsistentBoundary on violation
        assert 1 <= c.index <= 8
        assert c.sigma >= -1e-12 and c.sigma_plus >= -1e-12
        assert c.alpha >= -1e-12
        assert c.p == c.sigma + c.sigma_plus


def test_swap_symmetry_random():
    rng = np.random.default_rng(11)
    pairs = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 8, 8: 7}
    for _ in range(500):
        p = _random_valid(rng)
        a = classify(p)
        b = classify(p.swapped())
        if sum(v for _, v in a.domain_trace[:8]) > 1:
            continue  # ties resolve to the lowest index on either side
        assert b.index == pairs[a.index]
        assert b.sigma == pytest.approx(a.sigma_plus, rel=1e-10, abs=1e-12)
        assert b.sigma_plus == pytest.approx(a.sigma, rel=1e-10, abs=1e-12)


def test_grid_matches_scalar():
    rng = np.random.default_rng(3)
    mu1 = rng.uniform(-2, 3, 300)
    mu2 = rng.uniform(-2, 3, 300)
    L1, L2 = 4.0, 2.5
    idx, pvals, sig, sigp, nm = grid_classify(L1, L2, mu1, mu2)
    for i in range(300):
        if idx[i] == 0:
            continue
        c = classify(make_params(mu1[i], L1, mu2[i], L2))
        assert c.index == idx[i]
        assert c.p == pvals[i]
        assert c.sigma == sig[i]
        assert c.sigma_plus == sigp[i]


def test_grid_refuses_exactly_where_the_scalar_gate_does():
    """At fixed finite L, grid_classify's index-0 nodes are the nodes the
    scalar gate refuses, on a grid with mu1 + mu2 = 0, mu = L, mu1 = mu2 = 0
    (and -0.0) and NaN nodes; at the rest grid and scalar agree."""
    L1, L2 = 2.0, 3.0
    axis = np.array([-4.0, -3.0, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0,
                     4.0, math.nan])
    M1, M2 = np.meshgrid(axis, axis, indexing="ij")
    index, p = grid_classify(L1, L2, M1, M2)[:2]
    refused = 0
    for m1, m2, i, pk in zip(M1.flat, M2.flat, index.flat, p.flat):
        params = make_params(float(m1), L1, float(m2), L2)
        try:
            validate(params)
        except (InvalidParams, PreconditionViolated):
            assert i == 0, (m1, m2)
            refused += 1
            continue
        c = classify(params)
        assert (c.index, c.p) == (i, pk), (m1, m2)
    assert (refused, index.size) == (123, 144)


def test_grid_classify_warns_of_nothing_at_an_infinite_mu():
    """inf + -inf in the valid mask is computed under grid_classify's own
    errstate: the node is refused (index 0) and no RuntimeWarning leaks."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = grid_classify(2.0, 3.0, np.array([np.inf]),
                              np.array([-np.inf]))[0]
    assert index.tolist() == [0]


def test_regime_map_rows():
    grid = GridSpec(-1.0, 2.0, 40)
    index, p = regime_map(2.0, 1.0, grid)
    assert index.shape == p.shape == (40, 40)
    M1, M2 = np.meshgrid(grid.points(), grid.points(), indexing="ij")
    assert (index[(M1 > 1.0) & (M2 >= 0.0) & (M1 < 2.0) & (M2 < 1.0)] == 7).all()
    # outside the decrease precondition
    assert (index[(M1 > 0) & (M1 + M2 == 0.0)] == 0).all()
    assert (np.isnan(p) == (index == 0)).all()


def test_convex_halfplane_splits_between_1_and_2():
    index, _ = regime_map(2.0, 1.0, GridSpec(0.05, 0.9, 15))
    assert set(index[index != 0].tolist()) <= {1, 2}


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.01, max_value=3.0),
       st.floats(min_value=0.01, max_value=3.0))
def test_convex_p_formula(L1, L2):
    c = classify(make_params(0.0, L1, 0.0, L2))
    assert c.p == pytest.approx(1.0 / L1 + 1.0 / L2, rel=1e-12)


def test_one_step_certificate_dispatch():
    assert one_step_certificate is classify
    assert one_step_certificate(make_params(0.5, 2.0, 0.0, 1.0)).index == 1
    assert one_step_certificate(make_params(1.0, INF, 0.0, 2.0)).label == "p17"
    with pytest.raises(BothNonsmooth):
        one_step_certificate(make_params(1.0, INF, 0.0, INF))


def _p5_sliver(rng, n):
    """Points with mu1 >= L2 and 0 <= S1 < thr1, where the widened p5 domain
    alone applies, half of them swapped into the p6 sliver."""
    out = []
    while len(out) < n:
        L2 = rng.uniform(0.3, 3.0)
        mu1 = L2 * rng.uniform(1.0, 3.0)
        L1 = mu1 + rng.uniform(0.01, 4.0)
        mu2 = -mu1 * rng.uniform(0.01, 1.0)
        if 0.0 <= 1 / mu1 + 1 / mu2 + 1 / L2 < (1 / L1) * (2 + L2 / mu2):
            out.append(make_params(mu1, L1, mu2, L2) if len(out) % 2
                       else make_params(mu2, L2, mu1, L1))
    return out


def _atlas_boundary_nodes(rng, pages, per_page):
    """Valid nodes of the benchmark's 100 x 100 atlas grid whose regime
    differs from a grid neighbour's, per_page of them at each of `pages`
    seeded finite (L1, L2), and every valid node of a grid that hits
    mu2 = 0, mu1 = L2 and mu1 + mu2 = 0."""
    def valid_nodes(L1, L2, pts, pick):
        M1, M2 = np.meshgrid(pts, pts, indexing="ij")
        idx = grid_classify(L1, L2, M1, M2)[0]
        nodes = np.flatnonzero(pick(idx) & (idx > 0))
        return [make_params(float(M1.flat[k]), L1, float(M2.flat[k]), L2)
                for k in nodes]

    def edge(idx):
        d1, d2 = np.diff(idx, axis=0) != 0, np.diff(idx, axis=1) != 0
        out = np.zeros(idx.shape, dtype=bool)
        out[1:] |= d1
        out[:-1] |= d1
        out[:, 1:] |= d2
        out[:, :-1] |= d2
        return out

    atlas = np.linspace(-1.9871, 4.0137, 100)
    out = valid_nodes(2.0, 1.0, np.linspace(-1.0, 2.0, 13), lambda idx: True)
    for _ in range(pages):
        L1, L2 = (float(v) for v in rng.uniform(1.5, 6.0, 2))
        nodes = valid_nodes(L1, L2, atlas, edge)
        out += [nodes[k] for k in rng.choice(len(nodes), per_page, replace=False)]
    return out


def test_short_circuit_flags_match_the_full_array_rows():
    """classify's row flags, from the shared comparisons made once on floats,
    must equal the same rows decided on a one-node array, as the array path
    decides them, and its count of matched rows must equal grid_classify's
    n_matched."""
    rng = np.random.default_rng(23)
    points = [jitter_params(a, i, rng, scale=0.3)
              for i, a in sorted(ANCHORS.items()) for _ in range(40)]
    points += _p5_sliver(rng, 150) + _atlas_boundary_nodes(rng, 4, 120)
    refused = 0
    for p in points:
        try:
            c = classify(p)
        except (NoRegime, InconsistentBoundary):
            refused += 1
            continue
        L1, L2 = p.L1, p.L2
        m1, m2 = np.array([p.mu1]), np.array([p.mu2])
        with np.errstate(divide="ignore", invalid="ignore"):
            full = [all(tuple(conds))
                    for conds in _domains(L1, L2, m1, m2, _sides(L1, L2, m1, m2))]
        flags = [ok for _, ok in c.domain_trace[:8]]
        assert [name for name, _ in c.domain_trace[:8]] == ["p%d" % i for i in range(1, 9)]
        assert flags == full, p
        first = flags.index(True) + 1
        assert c.domain_trace[8:] == tuple((n, True) for n in _DETAIL_NAMES[first]), p
        assert sum(flags) == grid_classify(L1, L2, m1, m2)[4][0], p
        # the whole certificate: the first matched row's coefficients, bit for
        # bit (every L here is finite, so no row merge applies), and the trace
        # written out from the row flags
        s, sp, a = _coefficients(first, L1, L2, p.mu1, p.mu2)
        trace = tuple(("p%d" % i, bool(ok)) for i, ok in enumerate(full, 1)) + tuple(
            ("p%d:%s" % (first, name), True) for name in _DOMAIN_NAMES[first])
        assert c == RegimeCertificate(first, "p%d" % first, s, sp, s + sp, a, trace), p
        assert [v.hex() for v in c[2:6]] == [v.hex() for v in (s, sp, s + sp, a)], p
        assert all(type(ok) is bool for _, ok in c.domain_trace), p
    assert refused < len(points) // 20, (refused, len(points))


@pytest.mark.parametrize("p, error, message", [
    ((1.0, 1.0, 0.0, 1.0), InvalidParams,
     "f1: mu < L must hold strictly (mu=1.0, L=1.0)"),
    ((math.nan, 2.0, 0.0, 1.0), InvalidParams, "f1: NaN curvature parameter"),
    ((0.5, 2.0, -INF, 1.0), InvalidParams, "f2: mu must be finite (got -inf)"),
    ((1.0, 2.0, -1.0, 3.0), PreconditionViolated,
     "decrease precondition needs mu1+mu2 > 0 or mu1 = mu2 = 0 (got mu1=1.0, mu2=-1.0)"),
    ((1.0, INF, -1.0, INF), PreconditionViolated,
     "decrease precondition needs mu1+mu2 > 0 or mu1 = mu2 = 0 (got mu1=1.0, mu2=-1.0)"),
    ((1.0, INF, 0.0, INF), BothNonsmooth, "both terms nonsmooth: use the T-measure analysis"),
    ((2.9999999999999996, 3.0, -1.0, 3.0), InconsistentBoundary, None),
    ((2.9999999999999996 * 2.0 ** 40, 3.0 * 2.0 ** 40, -(2.0 ** 40), 3.0 * 2.0 ** 40),
     InconsistentBoundary, None),
])
def test_scalar_refusals_keep_their_type_and_message(p, error, message):
    """Deciding the rows from shared comparisons changes no refusal: which
    error wins and what it says stay as before, the corner point next to
    mu1 = L1 = L2 included."""
    with pytest.raises(error) as exc:
        classify(make_params(*p))
    assert type(exc.value) is error
    if message is not None:
        assert str(exc.value) == message


@pytest.mark.parametrize("p, rows", [
    ((3.6169710755399267, 3.616971075539927, 0.25576811495125634, 3.616971075539927),
     "p1 and p7"),
    ((0.25576811495125634, 3.616971075539927, 3.6169710755399267, 3.616971075539927),
     "p1 and p8"),
    (tuple(v * 2.0 ** 40 for v in (3.6169710755399267, 3.616971075539927,
                                   0.25576811495125634, 3.616971075539927)),
     "p1 and p7"),
    ((-5042929069731.866, 5046133051817.695, 5046133051817.692, 5046133051817.694),
     "p2 and p6"),
], ids=["mu1_at_the_corner", "mu2_at_the_corner", "mu1_at_the_corner_times_2_40",
        "mu2_at_the_corner_near_1e12"])
def test_corner_points_are_refused_by_the_agreement_check(p, rows):
    """An ulp from mu1 = L1 = L2, and at the swap, the matched rows give
    different (sigma, sigma_plus): classify refuses the point as
    InconsistentBoundary, naming both rows, at every scale.  The agreement
    check is relative, so near 1e12, where every coefficient is below 1e-12,
    it still tells p2 (p = 3.96e-13) from p6 (p = 1.26e-16)."""
    with pytest.raises(InconsistentBoundary, match=r"^regimes %s both match at " % rows):
        classify(make_params(*p))


def test_underflowing_curvatures_raise_overflow_naming_the_row():
    """Curvatures below about 1e-154 put the formulas past the float range:
    here 1/L2 overflows in row p1, whose p is then NaN, and classify refuses
    it as an OverflowError naming the row, which the CLI reports as a range
    error."""
    with pytest.raises(OverflowError, match=r"^regime p1 gives p = nan at "):
        classify(make_params(0.0, 1.0, 1e-313, 1.75e-313))


def test_small_curvatures_keep_their_row():
    """mu1 >= L2 puts (1e-20, 1, 0, 1e-30) in p7 at any scale; an absolute
    domain slack once put it in p1 with sigma = -1e10.  The p is the same."""
    c = classify(make_params(1e-20, 1.0, 0.0, 1e-30))
    assert (c.index, c.label, c.sigma) == (7, "p7", 0.0)
    assert c.sigma_plus == c.p == (1e-30 + 1e-20) / (1e-30 * 1e-30)


def test_p1_p2_coefficients_match_exact_values_near_mu_equal_L():
    """Row p1 at mu1 = L1 (1 - u 10^-k), k = 3..15, L2 in [mu1, L1], and row
    p2 at the swapped points: the float coefficients match the same formulas
    evaluated on Fractions to a relative 1e-15, however close mu1 is to L1."""
    rng = np.random.default_rng(15)
    for k in range(3, 16):
        for _ in range(200):
            L1 = float(rng.uniform(0.5, 5.0))
            mu1 = L1 * (1.0 - float(rng.uniform()) * 10.0 ** -k)
            if not mu1 < L1:
                continue
            L2, mu2 = float(rng.uniform(mu1, L1)), float(rng.uniform())
            for index, pt in ((1, (L1, L2, mu1, mu2)), (2, (L2, L1, mu2, mu1))):
                exact = _coefficients(index, *map(Fraction, pt))
                for e, f in zip(exact, _coefficients(index, *pt)):
                    assert abs(f - e) <= 1e-15 * abs(e), (k, index, pt, e, f)


def test_coefficients_stay_exact_on_fractions():
    """At each anchor read as Fractions, every coefficient is a Fraction or an
    exact 0.0, and it matches the float path."""
    for index, anchor in ANCHORS.items():
        floats = (anchor.L1, anchor.L2, anchor.mu1, anchor.mu2)
        exact = _coefficients(index, *map(Fraction, floats))
        for e, f in zip(exact, _coefficients(index, *floats)):
            assert type(e) is Fraction or (type(e) is float and e == 0.0), (index, e)
            assert math.isclose(e, f, rel_tol=1e-14), (index, e, f)


_SCALES = (-60, -30, 30, 60)      # the k of the 2^k scalings
_LATTICE_MU = sorted({Fraction(a, b) for a in range(-8, 9) for b in range(1, 5)})
_LATTICE_L = sorted({Fraction(a, b) for a in range(1, 9) for b in range(1, 4)})


def _jittered(rng, n):
    """n points per anchor, jittered by up to 50 % without rejection."""
    out = []
    for anchor in ANCHORS.values():
        vals = np.array([anchor.mu1, anchor.L1, anchor.mu2, anchor.L2])
        base = np.where(vals != 0.0, np.abs(vals), 0.5)
        out += [tuple(map(float, v)) for v in vals + rng.uniform(-0.5, 0.5, (n, 4)) * base]
    return out


def _corner(rng, n):
    """n points 1-3 ulps from the corner mu = L1 = L2, half of them swapped."""
    out = []
    for k in range(n):
        L = float(rng.uniform(0.5, 5.0))
        L1, L2 = (float(np.nextafter(L, INF)) if rng.random() < 0.5 else L for _ in "12")
        mu = L
        for _ in range(1 + k % 3):
            mu = float(np.nextafter(mu, -INF))
        other = float(rng.uniform(-0.9, 0.9)) * L
        out.append((mu, L1, other, L2) if k % 2 else (other, L2, mu, L1))
    return out


def _scaled(p, k):
    return tuple(v * 2.0 ** k for v in p)


def _outcome(p):
    try:
        return classify(make_params(*p))
    except Exception as exc:     # the type is what must not change
        return type(exc)


def test_classify_is_invariant_under_scaling_by_powers_of_two():
    """Scaling (mu1, L1, mu2, L2) by 2^k keeps the regime and scales sigma and
    sigma_plus by exactly 2^-k: classify answers or refuses the same way, bit
    for bit, on jittered anchors, corner points and a slice of the rational
    lattice with infinite L.  No answer has a negative sigma or sigma_plus."""
    rng = np.random.default_rng(29)
    Ls = [float(v) for v in _LATTICE_L] + [INF]
    lattice = [(float(_LATTICE_MU[a]), Ls[b], float(_LATTICE_MU[c]), Ls[d])
               for a, b, c, d in zip(*(rng.integers(n, size=1500) for n in
                                       (len(_LATTICE_MU), len(Ls)) * 2))]
    points = _jittered(rng, 150) + _corner(rng, 600) + lattice
    answered = 0
    for p in points:
        ref = _outcome(p)
        if not isinstance(ref, RegimeCertificate):
            assert all(_outcome(_scaled(p, k)) is ref for k in _SCALES), p
            continue
        answered += 1
        assert ref.sigma >= 0.0 and ref.sigma_plus >= 0.0, p
        for k in _SCALES:
            got = _outcome(_scaled(p, k))
            assert isinstance(got, RegimeCertificate), (p, k, got)
            assert (got.index, got.label, got.alpha) == (ref.index, ref.label, ref.alpha), (p, k)
            assert (got.sigma * 2.0 ** k, got.sigma_plus * 2.0 ** k) == (ref.sigma,
                                                                         ref.sigma_plus), (p, k)
    assert answered > 1200, answered      # most lattice points are invalid


def test_grid_classify_is_invariant_under_scaling_by_powers_of_two():
    """grid_classify gives the same index and p * 2^k at the scaled nodes:
    whole lattice pages at seeded lattice (L1, L2), and single jittered and
    corner nodes."""
    rng = np.random.default_rng(31)
    pages = [(float(_LATTICE_L[i]), float(_LATTICE_L[j]),
              *np.meshgrid(*[np.array(_LATTICE_MU, dtype=float)] * 2, indexing="ij"))
             for i, j in rng.integers(len(_LATTICE_L), size=(6, 2))]
    pages += [(L1, L2, np.array([m1]), np.array([m2]))
              for m1, L1, m2, L2 in _jittered(rng, 12) + _corner(rng, 100)]
    for L1, L2, M1, M2 in pages:
        index, p = grid_classify(L1, L2, M1, M2)[:2]
        for k in _SCALES:
            s = 2.0 ** k
            got_index, got_p = grid_classify(L1 * s, L2 * s, M1 * s, M2 * s)[:2]
            assert np.array_equal(got_index, index), (L1, L2, k)
            assert np.array_equal(got_p * s, p, equal_nan=True), (L1, L2, k)


def _outcomes(p):
    """What classify, thresholds and asymptotic_constants give at p: each
    result, or the type of what it raised."""
    out = []
    for f in (classify, thresholds, asymptotic_constants):
        try:
            out.append(f(p))
        except Exception as exc:
            out.append(type(exc))
    return out


def _float_bits(result):
    return [float(v).hex() for v in result if not isinstance(v, (str, tuple))]


@pytest.mark.parametrize("kind", [int, np.float64])
def test_results_do_not_depend_on_the_number_type(kind):
    """Parameters given as Python ints or numpy float64 give the results of
    the same values as Python floats, refusals included, and numpy float64
    bit for bit (int arithmetic has no -0.0): the two-float shortcut in the
    domain inequalities decides nothing.  All three pass the one gate: where
    classify refuses there, so do the other two, and where classify answers,
    so do they (asymptotic_constants unless a denominator vanishes)."""
    rng = np.random.default_rng(41)
    if kind is int:     # an integer lattice, with L = inf kept a float
        Ls = [1, 2, 3, 5, INF]
        points = [(a, b, c, d) for a in range(-3, 5) for b in Ls
                  for c in range(-3, 5) for d in Ls]
    else:
        points = _jittered(rng, 200)
        points += _off_boundary_nonsmooth_points(rng, 300) + _corner(rng, 100)
    answered = 0
    for p in points:
        ref = _outcomes(make_params(*map(float, p)))
        got = _outcomes(make_params(*(v if v == INF and kind is int else kind(v)
                                      for v in p)))
        assert got == ref, p
        for g, r in zip(got, ref):
            if not isinstance(r, type):
                assert kind is int or _float_bits(g) == _float_bits(r), p
        c, t, a = ref
        if c in (InvalidParams, PreconditionViolated):      # the gate refused
            assert t is a is c, p
        elif not isinstance(c, type):
            assert not isinstance(t, type), p
            assert a is DenominatorZero or not isinstance(a, type), p
            answered += a is not DenominatorZero
    assert answered >= {int: 197, np.float64: 1806}[kind], answered


def test_thresholds_are_the_S_the_domains_test():
    """thresholds and the domain tests read S1, S2 from one formula: equal
    bit for bit at the seeded points the gate admits, with mu = 0 and each
    L = inf among them; at the rest thresholds refuses as the gate does."""
    rng = np.random.default_rng(43)
    points = []
    for k in range(600):
        m1, m2 = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
        L1, L2 = (float(v) for v in rng.uniform(0.1, 5.0, 2))
        m1, m2 = (0.0 if k % 5 == 0 else m1), (0.0 if k % 7 == 0 else m2)
        L1, L2 = (INF if k % 3 == 1 else L1), (INF if k % 3 == 2 else L2)
        points.append((m1, L1, m2, L2))
    sides = Counter()        # None for an admitted point, else the refusal
    for m1, L1, m2, L2 in points:
        params = make_params(m1, L1, m2, L2)
        if not in_domain(m1, L1, m2, L2):
            with pytest.raises((InvalidParams, PreconditionViolated)) as exc:
                thresholds(params)
            with pytest.raises(type(exc.value)) as gate:
                validate(params)
            assert str(exc.value) == str(gate.value), (m1, L1, m2, L2)
            sides[type(exc.value)] += 1
            continue
        sides[None] += 1
        t = thresholds(params)
        (s1, _), (s2, _) = _sides(L1, L2, m1, m2)
        assert (t.S1.hex(), t.S2.hex()) == (s1.hex(), s2.hex()), (m1, L1, m2, L2)
    assert sides == {None: 235, InvalidParams: 107, PreconditionViolated: 258}, sides


def test_result_types_keep_fields_json_hash_and_equality():
    """RegimeCertificate, ThresholdValues and AsymptoticConstants keep their
    fields in order, their JSON, their hash (that of the field values) and
    equality, and refuse assignment."""
    params = make_params(2.0, 4.0, -1.0, 3.0)
    for f, fields in [
            (classify, ("index", "label", "sigma", "sigma_plus", "p", "alpha",
                        "domain_trace")),
            (thresholds, ("S1", "S2")),
            (asymptotic_constants, ("p5_inf", "p6_inf"))]:
        r, again = f(params), f(params)
        assert type(r)._fields == fields
        assert again == r and again is not r
        assert hash(again) == hash(r) == hash(tuple(getattr(r, n) for n in fields))
        assert {r: 1}[again] == 1
        assert r._replace(**{fields[-2]: -7.0}) != r
        with pytest.raises(AttributeError):
            setattr(r, fields[0], 0.0)
    c = classify(params)
    assert c.to_json_dict() == {
        "index": 3, "label": "p3", "sigma": c.sigma, "sigma_plus": c.sigma_plus,
        "p": c.p, "alpha": c.alpha,
        "domain_trace": [["p1", False], ["p2", False], ["p3", True], ["p4", False],
                         ["p5", False], ["p6", False], ["p7", False], ["p8", False]]
        + [["p3:" + n, True] for n in ("mu2<0", "mu1>-mu2", "L2>mu1", "L1>mu2",
                                       "thr1<=S1", "S1<=0")]}
    assert list(c.to_json_dict()) == list(RegimeCertificate._fields)


# The regime table's numbers, pinned.  Every point (mu1, L1, mu2, L2) of two
# classes from the rational lattice below, with mu <= L so that mu = L refusals
# count too (228 classes, 51,984 points), gives one line: the .hex() of each
# classify, thresholds and asymptotic_constants result, or the refusal's type
# and message.  The digest is over those lines, in class order, and over
# grid_classify's five arrays on three (L1, L2) pages of the mu lattice.  A
# change to any number, trace or refusal changes it; a refactor that keeps
# every one of them keeps it.  The 4-hex-digit digest of each class's row of
# 228 points only serves to name where a change starts.
_PIN_MU = sorted({Fraction(a, b) for a in range(-6, 7) for b in range(1, 4)})
_PIN_L = sorted({Fraction(a, b) for a in range(1, 7) for b in range(1, 3)}) + [INF]
_PIN_CLASSES = [(float(m), float(L)) for L in _PIN_L for m in _PIN_MU if m <= L]
_PIN_PAGES = ((2.0, 1.0), (1.5, 3.0), (4.0, 4.0))
_PIN_DIGEST = "d9da88f1da7d42ec"
_PIN_ROWS = ("7ef3bbee11311ee4d86babcee101cf54a8b2956c749c9ff91d4ea5af4e8ab90a"
             "7ef3506ed6085d0f28032365dc0f04c19997f05a2a6de9d02b9f145827557f71"
             "ccb6819f7ef346c7a1d3285ca9a5eff657ce3795fc66e0877b75aa422e7ae56f"
             "5475b1dacc9f51569f6878057ef30807b3581962ddcdd23066d7d78fe5d65535"
             "105516e3b1251311e393eca708d4933cd5afa6ea596f32b37ef36538c3d3c782"
             "1ab1589efee80a98ac57fac253ba78c67f56730e144c9e5dbb317f7703765bf6"
             "6558517cfc1b7ef3a309d2f6d82ceba583c14bc9ded5c83d61ccaa8f4bde27e8"
             "40a6d629c676ca62d97941141ee97d466944693773117ef3739bd2f4087dc078"
             "978ac0fd2f178fe827d055b74179819243c448e3be37bf4dcfd70e96fe1b1067"
             "15f6e24599b113857ef3e0b7b4929bb796713b239ed48ed7bd09965bb7d61b59"
             "46b182c9b050eee14bca5ed011970b2eef13d7c918a3a8b0558fd3b27ef3fe65"
             "10dac18cd462bedf37368200ca855ad6c4aa399b5b6a9bb2240870b69141c751"
             "2faf3df731aef8832df7e6c256503ca0092f7ef3ad5332d370e7436127668141"
             "0746a7de4f77fdd0413a249f062f624bda9689e06a41905e0ac389ea97e01ce2"
             "866e81c22e518d9f")


def _pin_line(p):
    out = []
    for f in (classify, thresholds, asymptotic_constants):
        try:
            r = f(p)
        except Exception as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
        else:
            out.append(" ".join(v.hex() if isinstance(v, float) else repr(v) for v in r))
    return ("; ".join(out) + "\n").encode()


def _pin():
    """(digest, row digests) of the regime table on the lattice and pages."""
    h, rows = hashlib.sha256(), []
    for m1, L1 in _PIN_CLASSES:
        row = b"".join(_pin_line(make_params(m1, L1, m2, L2)) for m2, L2 in _PIN_CLASSES)
        h.update(row)
        rows.append(hashlib.sha256(row).hexdigest()[:4])
    M1, M2 = np.meshgrid(*[[float(m) for m in _PIN_MU]] * 2, indexing="ij")
    for L1, L2 in _PIN_PAGES:
        for a in grid_classify(L1, L2, M1, M2):
            h.update(a.dtype.str.encode() + a.tobytes())
    return h.hexdigest()[:16], "".join(rows)


def test_regime_table_numbers_match_their_pinned_digest():
    """A refactor of the regime table keeps every number, trace and refusal
    on the lattice and the pages; on a mismatch the first class (mu1, L1)
    whose row of points differs is named."""
    digest, rows = _pin()
    first = next((k // 4 for k in range(0, len(rows), 4)
                  if rows[k:k + 4] != _PIN_ROWS[k:k + 4]), None)
    assert first is None, ("first class whose row differs: (mu1, L1) = %r"
                           % (_PIN_CLASSES[first],))
    assert digest == _PIN_DIGEST, "the grid pages differ"
