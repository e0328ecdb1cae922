import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcrates.curvature import (DcParams, InvalidParams, PreconditionViolated,
                               in_domain, make_params, recip, require_valid,
                               validate)

INF = math.inf


def test_recip_conventions():
    assert recip(0.0) == INF
    assert recip(INF) == 0.0
    assert recip(2.0) == 0.5
    assert recip(-4.0) == -0.25


@given(st.one_of(st.just(INF),
                 st.floats(min_value=1e-12, max_value=1e12),
                 st.floats(min_value=-1e12, max_value=-1e-12)))
def test_recip_involution(x):
    assert recip(recip(x)) == pytest.approx(x, rel=1e-15)


def test_recip_strictly_decreasing_on_positives():
    xs = [1e-3, 0.5, 1.0, 7.0, 1e4, INF]
    rs = [recip(x) for x in xs]
    assert rs == sorted(rs, reverse=True)


def test_validate_basic_valid():
    assert validate(make_params(0.5, 2.0, 0.0, 1.0)) is None


def test_validate_mu_equals_L_rejected():
    with pytest.raises(InvalidParams, match=r"^f1: mu < L must hold strictly "
                       r"\(mu=1\.0, L=1\.0\)$"):
        validate(make_params(1.0, 1.0, 0.0, 1.0))


def test_validate_nonsmooth_term():
    assert validate(make_params(2.0, INF, -1.0, 1.5)) is None  # mu1 + mu2 = 1 > 0
    with pytest.raises(PreconditionViolated, match=r"^decrease precondition "
                       r"needs mu1\+mu2 > 0 or mu1 = mu2 = 0 \(got mu1=1\.0, "
                       r"mu2=-1\.0\)$"):
        validate(make_params(1.0, INF, -1.0, 1.5))


def test_validate_origin_precondition():
    assert validate(make_params(0.0, 1.0, 0.0, 1.0)) is None
    assert validate(make_params(-0.0, 1.0, 0.0, 1.0)) is None


def test_nan_is_hard_error():
    # a NaN is a class violation, so InvalidParams wins over the precondition
    for gate in (validate, require_valid):
        with pytest.raises(InvalidParams, match="^f1: NaN curvature parameter$"):
            gate(make_params(float("nan"), 1.0, 0.0, 1.0))


_LATTICE = (-INF, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, INF, math.nan)


def _gate_outcome(p):
    try:
        return validate(p)
    except (InvalidParams, PreconditionViolated) as exc:
        return type(exc), str(exc)


def test_gate_is_the_violations_then_the_precondition_on_a_lattice():
    """On {-inf, -2, -1, -0.0, 0, 0.5, 1, 2, inf, nan}^4 the gate passes
    exactly where both classes are valid and mu1 + mu2 > 0 or
    mu1 = mu2 = 0, raises InvalidParams with the joined violations where a
    class is invalid, and PreconditionViolated with the one message
    elsewhere; in_domain on the lattice as arrays gives the same mask."""
    points = list(itertools.product(_LATTICE, repeat=4))
    admitted = []
    counts = Counter()
    for m1, L1, m2, L2 in points:
        p = make_params(m1, L1, m2, L2)
        viol = p.f1.violations("f1") + p.f2.violations("f2")
        if viol:
            want = InvalidParams, "; ".join(viol)
        elif m1 + m2 > 0.0 or (m1 == 0.0 and m2 == 0.0):
            want = None
        else:
            want = PreconditionViolated, (
                "decrease precondition needs mu1+mu2 > 0 or mu1 = mu2 = 0 "
                "(got mu1=%r, mu2=%r)" % (m1, m2))
        assert _gate_outcome(p) == want, (m1, L1, m2, L2)
        assert in_domain(m1, L1, m2, L2) is (want is None), (m1, L1, m2, L2)
        admitted.append(want is None)
        counts[want if want is None else want[0]] += 1
    assert counts == {None: 204, InvalidParams: 9516, PreconditionViolated: 280}
    M1, L1, M2, L2 = np.array(points).T
    with np.errstate(invalid="ignore"):      # inf + -inf
        assert np.array_equal(in_domain(M1, L1, M2, L2), admitted)


def test_json_round_trip_with_inf():
    p = make_params(2.0, INF, -1.0, 1.5)
    d = json.loads(json.dumps(p.to_json_dict()))
    assert d["L1"] == "inf"
    assert DcParams.from_json_dict(d) == p
