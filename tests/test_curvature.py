import json
import math

import pytest
from hypothesis import given, strategies as st

from dcrates.curvature import (DcParams, InvalidParams, make_params, recip,
                               require_valid, validate)

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
    rep = validate(make_params(0.5, 2.0, 0.0, 1.0))
    assert rep.ok
    assert rep.decrease_precondition


def test_validate_mu_equals_L_rejected():
    rep = validate(make_params(1.0, 1.0, 0.0, 1.0))
    assert not rep.ok
    assert any("mu < L" in v for v in rep.violations)


def test_validate_nonsmooth_term():
    rep = validate(make_params(2.0, INF, -1.0, 1.5))
    assert rep.ok
    assert rep.decrease_precondition  # mu1 + mu2 = 1 > 0
    assert not validate(make_params(1.0, INF, -1.0, 1.5)).decrease_precondition


def test_validate_origin_precondition():
    assert validate(make_params(0.0, 1.0, 0.0, 1.0)).decrease_precondition


def test_nan_is_hard_error():
    rep = validate(make_params(float("nan"), 1.0, 0.0, 1.0))
    assert not rep.ok
    assert not rep.decrease_precondition
    with pytest.raises(InvalidParams):
        require_valid(make_params(float("nan"), 1.0, 0.0, 1.0))


def test_json_round_trip_with_inf():
    p = make_params(2.0, INF, -1.0, 1.5)
    d = json.loads(json.dumps(p.to_json_dict()))
    assert d["L1"] == "inf"
    assert DcParams.from_json_dict(d) == p
