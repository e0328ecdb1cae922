import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dcrates.curvature import Curvature, InvalidParams
from dcrates.engine import run_dca
from dcrates.interpolation import (PairKernel, bound_coefficients,
                                   check_interpolation, make_triplet,
                                   pair_lower_bound, triplets_from_json)
from dcrates.oracles import (AbsPlusQuadratic, FunctionSpec, MaxOfQuadratics,
                             Quadratic, evaluate, make_instance)

INF = math.inf


def pair_slack(cls, ti, tj):
    """Slack of the (i, j) inequality, written out for one pair."""
    dx = ti.x - tj.x
    lhs = ti.f - tj.f - float(tj.g @ dx)
    return lhs - pair_lower_bound(cls, dx, ti.g - tj.g)


def test_pair_lower_bound_smooth_example():
    # mu=1, L=2, dx=1, dg=2: dg^2/(2L) + mu/(2L(L-mu)) (dg - L dx)^2 = 1.0
    val = pair_lower_bound(Curvature(1.0, 2.0), np.array([1.0]),
                           np.array([2.0]))
    assert val == pytest.approx(1.0, rel=1e-12)


def test_pair_lower_bound_nonsmooth_limit():
    cls = Curvature(0.5, INF)
    dx, dg = np.array([2.0]), np.array([7.0])
    assert pair_lower_bound(cls, dx, dg) == pytest.approx(1.0, rel=1e-12)
    # the limit never squares dg, which would overflow here
    assert pair_lower_bound(cls, dx, np.array([1e200])) == pytest.approx(1.0, rel=1e-12)
    # large finite L approaches the limit
    near = pair_lower_bound(Curvature(0.5, 1e8), dx, dg)
    assert near == pytest.approx(1.0, abs=1e-6)


def test_pair_lower_bound_is_accurate_where_L_is_far_below_mu():
    """Against exact rationals, for L from 1e-15 |mu| to 1e6 |mu|: the
    error stays within rounding of the sum of the two terms' sizes, which
    are of the size of the data however small L is: nothing of size
    ||dg||^2 / L cancels."""
    rng = np.random.default_rng(3)
    for e in range(-15, 7):
        for mu in (-1.0, -0.5):
            cls = Curvature(mu, -mu * 10.0 ** e)
            dx, dg = rng.normal(size=(2, 3))
            m, L = Fraction(mu), Fraction(cls.L)
            terms = (m / 2 * sum(Fraction(x) ** 2 for x in dx),
                     sum((Fraction(g) - m * Fraction(x)) ** 2
                         for x, g in zip(dx, dg)) / (2 * (L - m)))
            got = Fraction(pair_lower_bound(cls, dx, dg))
            assert abs(got - sum(terms)) <= 1e-15 * sum(map(abs, terms)), e


def test_slack_detects_underdeclared_curvature():
    # f = x^2 has curvature 2; declare L = 1 and the pair (0, 1) fails by 1.
    t0 = make_triplet([0.0], [0.0], 0.0)
    t1 = make_triplet([1.0], [2.0], 1.0)
    s = pair_slack(Curvature(0.0, 1.0), t0, t1)
    assert s == pytest.approx(-1.0, rel=1e-12)
    rep = check_interpolation([t0, t1], Curvature(0.0, 1.0))
    assert not rep.feasible
    rep_ok = check_interpolation([t0, t1], Curvature(0.0, 2.5))
    assert rep_ok.feasible


def test_nonsmooth_class_never_reads_the_gradient_difference():
    """1e308 |x| at x = -1e-300 and 1e-300: the gradients' difference
    overflows to inf.  An L = inf class bounds the pair by mu/2 ||dx||^2
    alone, so both slacks are the finite 2e8 (0 * inf made them NaN, and the
    set infeasible)."""
    t = [make_triplet([x], [1e308 * x / abs(x)], 1e308 * abs(x))
         for x in (-1e-300, 1e-300)]
    with np.errstate(over="raise"):      # dg is never formed
        rep = check_interpolation(t, Curvature(0.0, INF))
    assert rep.feasible and rep.min_slack == 2e8


def _written_out_pair_matrix(X, g, cls):
    """The inequality as the module docstring states it, with the L = inf
    limit as its own case."""
    dX = X[:, None, :] - X[None, :, :]
    dG = g[:, None, :] - g[None, :, :]
    if math.isinf(cls.L):
        bound = 0.5 * cls.mu * (dX * dX).sum(-1)
    else:
        r = dG - cls.mu * dX
        bound = ((r * r).sum(-1) / (2.0 * (cls.L - cls.mu))
                 + 0.5 * cls.mu * (dX * dX).sum(-1))
    c = np.einsum("jd,ijd->ij", g, dX) + bound
    np.fill_diagonal(c, 0.0)
    return c


def _cm(A):
    """Coordinate-major view (..., d, n) of (..., n, d) data."""
    return np.swapaxes(A, -1, -2)


@pytest.mark.parametrize("classes", [
    (Curvature(1.0, 10.0), Curvature(-0.8, 2.0)),
    (Curvature(0.5, INF), Curvature(-1.0, INF)),
    (Curvature(1.0, INF), Curvature(-0.5, 2.0)),
    (Curvature(0.0, 3.0), Curvature(2.0, INF), Curvature(-2.0, 0.5)),
], ids=["finite", "inf", "mixed", "mixed3"])
def test_stacked_pair_matrix_matches_per_class(classes):
    """A stack of gradient sets, one class each, gives bit for bit the
    matrices of the one-class form and of the inequality written out."""
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        for n in (2, 5, 11, 26):
            X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-1, 1)
            G = rng.normal(size=(len(classes), n, d)) * 10.0 ** rng.uniform(-1, 1)
            stacked = PairKernel(classes, np.concatenate([_cm(X)[None], _cm(G)]))()
            assert stacked.shape == (len(classes), n, n)
            for c, g, cls in zip(stacked, G, classes):
                assert np.array_equal(c, PairKernel(cls, np.stack([_cm(X), _cm(g)]))()[0])
                assert np.array_equal(c, _written_out_pair_matrix(X, g, cls))
    # the probe's broadcast shapes: X (m, 1, n, d) against G (m, k, n, d)
    for d in (1, 2, 3):
        for n in (2, 7, 26):
            m = 5
            X = rng.normal(size=(m, 1, n, d)) * 10.0 ** rng.uniform(-1, 1)
            G = rng.normal(size=(m, len(classes), n, d)) * 10.0 ** rng.uniform(-1, 1)
            stacked = PairKernel(bound_coefficients(classes),
                                 np.concatenate([_cm(X), _cm(G)], -3))()
            assert stacked.shape == (m, len(classes), n, n)
            for cs, x, gs in zip(stacked, X[:, 0], G):
                for c, g, cls in zip(cs, gs, classes):
                    assert np.array_equal(c, PairKernel(cls, np.stack([_cm(x), _cm(g)]))()[0])
                    assert np.array_equal(c, _written_out_pair_matrix(x, g, cls))


@pytest.mark.parametrize("L", [4.0, INF], ids=["finite", "inf"])
@pytest.mark.parametrize("n", [2, 7, 26])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_matrix_bits_do_not_depend_on_memory_layout(d, n, L):
    """C-ordered, Fortran-ordered and transposed-copy inputs give the same
    matrix, and so does a stack of two classes; the d-last einsum kernel
    summed d = 3 coordinates in an order that followed the layout."""
    rng = np.random.default_rng(100 * d + n)
    X, G = _cm(rng.normal(size=(2, n, d)) * 10.0 ** rng.uniform(-2, 2, (2, 1, 1)))
    cls = Curvature(-0.7, L)
    layouts = [lambda a: a, np.asfortranarray, np.ascontiguousarray,
               lambda a: np.ascontiguousarray(_cm(a)).swapaxes(-1, -2)]
    want = PairKernel(cls, np.stack([X, G]))()[0]
    for lay in layouts:
        assert np.array_equal(PairKernel(cls, np.stack([lay(X), lay(G)]))()[0], want)
        two = PairKernel((cls, cls),
                         np.concatenate([lay(X)[None], lay(np.stack([G, G]))]))()
        assert np.array_equal(two[0], want) and np.array_equal(two[1], want)


def _d_last_check(triplets, cls, tol):
    """check_interpolation as the d-last kernel computed it: (n, n, d)
    differences, <g_j, x_i - x_j> by einsum, min_slack over an eye mask."""
    n = len(triplets)
    X = np.array([t.x for t in triplets])
    G = np.array([t.g for t in triplets])
    F = np.array([t.f for t in triplets])
    a, b, p, q = bound_coefficients(cls)
    dX = X[:, None, :] - X[None, :, :]
    bound = b * np.add.reduce(dX * dX, -1)
    if not math.isinf(cls.L):
        s = p * (G[:, None, :] - G[None, :, :]) - q * dX
        bound = np.add.reduce(s * s, -1) / a + bound
    c = np.add(np.einsum("...jd,...ijd->...ij", G, dX), bound)
    np.einsum("...ii->...i", c)[...] = 0.0
    S = F[:, None] - F[None, :] - c
    min_slack = float(np.min(S[~np.eye(n, dtype=bool)]))
    return S.tobytes(), min_slack.hex(), min_slack >= -tol


def _dca_runs(rng, d):
    """Seeded 26-point DCA runs in dimension d: quadratics, and at d = 1
    abs-plus-quadratic pairs."""
    for _ in range(6):
        c1, c2 = rng.uniform(1.0, 3.0, d), rng.uniform(-0.5, 0.9, d)
        f1 = FunctionSpec(Quadratic(tuple(c1), tuple(rng.normal(size=d))),
                          Curvature(c1.min(), c1.max() + 0.5))
        f2 = FunctionSpec(Quadratic(tuple(c2), tuple(rng.normal(size=d))),
                          Curvature(c2.min(), c2.max() + 0.5))
        yield run_dca(make_instance(f1, f2), rng.normal(size=d) * 3.0, 25)
        if d == 1:
            m1, m2 = rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5)
            f1 = FunctionSpec(AbsPlusQuadratic(rng.uniform(0, 1), m1, rng.normal()),
                              Curvature(m1, INF))
            f2 = FunctionSpec(AbsPlusQuadratic(rng.uniform(0, 1), m2, rng.normal()),
                              Curvature(m2, INF))
            yield run_dca(make_instance(f1, f2), rng.normal(size=1) * 3.0, 25)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_check_interpolation_is_bit_identical_to_the_d_last_kernel(d):
    """Slack bytes, min_slack and the verdict, with no tolerance, on seeded
    26-point DCA runs, against each declared class and its L = inf limit."""
    for traj in _dca_runs(np.random.default_rng(60 + d), d):
        assert len(traj.X) == 26
        for g, f, spec in ((traj.G1, traj.f1, traj.instance.f1),
                           (traj.G2, traj.f2, traj.instance.f2)):
            triplets = [make_triplet(*t) for t in zip(traj.X, g, f)]
            for cls in (spec.declared, Curvature(spec.declared.mu, INF)):
                for tol in (0.0, 1e-9):
                    rep = check_interpolation(triplets, cls, tol)
                    assert (rep.slack.tobytes(), rep.min_slack.hex(),
                            rep.feasible) == _d_last_check(triplets, cls, tol)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_check_interpolation_reads_plain_rows_as_triplets(d):
    """(x, g, f) rows of arrays give the slack bytes, min_slack and verdict
    of make_triplet triplets of the same data, for a finite-L class and an
    L = inf one."""
    rng = np.random.default_rng(70 + d)
    rows = list(zip(rng.normal(size=(9, d)), rng.normal(size=(9, d)),
                    rng.normal(size=9)))
    triplets = [make_triplet(*r) for r in rows]
    for cls in (Curvature(-0.5, 2.0), Curvature(0.3, INF)):
        got, want = (check_interpolation(t, cls) for t in (rows, triplets))
        assert (got.slack.tobytes(), got.min_slack.hex(), got.feasible) == (
            want.slack.tobytes(), want.min_slack.hex(), want.feasible)


def _random_triplets(rng, n, d=2):
    return [make_triplet(rng.normal(size=d), rng.normal(size=d), rng.normal())
            for _ in range(n)]


@pytest.mark.parametrize("cls", [Curvature(-0.5, 2.0), Curvature(0.3, INF)])
def test_slack_matrix_matches_pair_slack(cls):
    rng = np.random.default_rng(41)
    t = _random_triplets(rng, 8)
    S = check_interpolation(t, cls).slack
    for i in range(8):
        assert S[i, i] == 0.0
        for j in range(8):
            if i != j:
                assert S[i, j] == pytest.approx(pair_slack(cls, t[i], t[j]),
                                                rel=1e-12)


def test_min_slack_excludes_diagonal():
    # f = x^2 declared in a looser class than its own: every pair is slack
    cls = Curvature(-1.0, 4.0)
    t = [make_triplet([x], [2.0 * x], x * x) for x in (-1.0, 0.5, 2.0)]
    ref = min(pair_slack(cls, a, b) for a in t for b in t if a is not b)
    assert ref > 0.0
    assert check_interpolation(t, cls).min_slack == pytest.approx(ref, rel=1e-12)


def _spec_samples(rng):
    kind = rng.integers(3)
    if kind == 0:
        d = int(rng.integers(1, 4))
        c = rng.uniform(-1.0, 3.0, d)
        mu, L = float(c.min()), float(c.max())
        if mu >= L:
            L = mu + 1.0
        spec = FunctionSpec(Quadratic(tuple(c), tuple(rng.normal(size=d))),
                            Curvature(mu, L))
    elif kind == 1:
        pieces = tuple((rng.uniform(0.2, 3.0), rng.normal(), rng.normal())
                       for _ in range(3))
        spec = FunctionSpec(MaxOfQuadratics(pieces),
                            Curvature(min(p[0] for p in pieces), INF))
    else:
        spec = FunctionSpec(
            AbsPlusQuadratic(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 2.0),
                             rng.normal()),
            Curvature(None, INF))
        spec = FunctionSpec(spec.family, Curvature(spec.family.m, INF))
    return spec


def test_soundness_all_families():
    rng = np.random.default_rng(23)
    for _ in range(30):
        spec = _spec_samples(rng)
        xs = [rng.normal(size=spec.dimension) * 2 for _ in range(50)]
        a = evaluate(spec, np.array(xs))
        rep = check_interpolation(list(zip(xs, a.subgradient, a.value)),
                                  spec.declared, tol=1e-9)
        assert rep.feasible, rep.min_slack


def test_monotone_under_class_enlargement():
    rng = np.random.default_rng(31)
    t = [make_triplet(rng.normal(size=2), rng.normal(size=2), rng.normal())
         for _ in range(6)]
    tight = check_interpolation(t, Curvature(0.5, 2.0)).min_slack
    loose = check_interpolation(t, Curvature(-1.0, 9.0)).min_slack
    assert loose >= tight - 1e-12


def test_json_round_trip():
    t = [make_triplet([1.0, 2.0], [0.5, -0.5], 3.0),
         make_triplet([0.0, 0.0], [0.0, 0.0], 0.0)]
    blob = json.dumps([{"x": a.x.tolist(), "g": a.g.tolist(), "f": a.f}
                       for a in t])
    back = triplets_from_json(json.loads(blob))
    assert len(back) == 2
    assert np.allclose(back[0].x, t[0].x)
    assert back[0].f == 3.0


@pytest.mark.parametrize("rows", [
    {},
    {"x": [1.0], "g": [1.0], "f": 0.0},
    [{"x": [0.0, 1.0], "g": [1.0], "f": 0.0}],
    [{"x": [0.0], "g": [1.0], "f": 0.0}, {"x": [0.0, 1.0], "g": [1.0, 0.0], "f": 0.0}],
    [{"x": [], "g": [], "f": 0.0}],
    [{"x": [[1.0]], "g": [[1.0]], "f": 0.0}],
], ids=["dict", "one_object", "x_g_mismatch", "d_mismatch", "empty_vectors", "matrix"])
def test_triplets_from_json_refuses_malformed(rows):
    with pytest.raises(ValueError):
        triplets_from_json(rows)


def test_rejects_nonfinite():
    with pytest.raises(Exception):
        make_triplet([float("nan")], [0.0], 0.0)


VECTOR_FORMS = {"list": lambda v: [1.0, v], "ndarray": lambda v: np.array([1.0, v]),
                "scalar": lambda v: v}
SCALAR_FORMS = {"float": float, "float64": np.float64, "0-d": np.array}


@pytest.mark.parametrize("bad", [math.nan, INF, -INF])
@pytest.mark.parametrize("where, form", [
    (w, f) for w in ("x", "g") for f in VECTOR_FORMS] + [
    ("f", f) for f in SCALAR_FORMS])
def test_make_triplet_refuses_a_non_finite_entry(where, form, bad):
    make = VECTOR_FORMS.get(form) or SCALAR_FORMS[form]
    args = {"x": [2.0, 2.0], "g": [3.0, 3.0], "f": 4.0}
    make_triplet(**dict(args, **{where: make(5.0)}))
    with pytest.raises(InvalidParams, match="^triplet entries must be finite$"):
        make_triplet(**dict(args, **{where: make(bad)}))


def test_make_triplet_shapes():
    """A scalar or 0-d x or g becomes a vector of one entry, a vector or a
    2-D array keeps its shape; every array is float, and an ndarray of
    floats is taken as it is."""
    t = make_triplet(2.0, np.array(3), np.float64(4.0))
    assert t.x.shape == t.g.shape == (1,) and type(t.f) is float
    assert t.x.dtype == t.g.dtype == np.float64
    assert (t.x.tolist(), t.g.tolist(), t.f) == ([2.0], [3.0], 4.0)
    x, g = np.arange(6.0).reshape(2, 3), [[1, 2, 3], [4, 5, 6]]
    t = make_triplet(x, g, 1)
    assert t.x is x and t.g.shape == (2, 3) and t.g.dtype == np.float64
    assert make_triplet([1, 2], [3, 4], 0).x.tolist() == [1.0, 2.0]


def test_triplet_fields_cannot_be_assigned():
    t = make_triplet([1.0], [2.0], 3.0)
    for name in ("x", "g", "f"):
        with pytest.raises(AttributeError):
            setattr(t, name, 0.0)
    assert (t.x.tolist(), t.g.tolist(), t.f) == ([1.0], [2.0], 3.0)
