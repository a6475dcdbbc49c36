"""Half-integer parsing and arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest

from entroineq import DomainError, HalfInt
from entroineq.halfint import doubled


def test_coerce_forms():
    assert HalfInt.coerce("3/2").doubled == 3
    assert HalfInt.coerce("1.5").doubled == 3
    assert HalfInt.coerce("-1/2").doubled == -1
    assert HalfInt.coerce("2").doubled == 4
    assert HalfInt.coerce(2).doubled == 4
    assert HalfInt.coerce(-0.5).doubled == -1
    assert HalfInt.coerce(Fraction(5, 2)).doubled == 5
    assert HalfInt.coerce(HalfInt(7)) == HalfInt(7)


def test_coerce_rejects_non_half_integers():
    with pytest.raises(DomainError):
        HalfInt.coerce(0.3)
    with pytest.raises(DomainError):
        HalfInt.coerce("2/3")
    with pytest.raises(DomainError):
        HalfInt.coerce("abc")
    with pytest.raises(TypeError):
        HalfInt.coerce(None)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308, "1e400"])
def test_coerce_rejects_non_finite_values(value):
    # used to raise a bare ValueError (NaN) or OverflowError (infinities)
    with pytest.raises(DomainError, match="float range"):
        HalfInt.coerce(value)


def test_arithmetic_and_order():
    a = HalfInt(3)   # 3/2
    b = HalfInt(2)   # 1
    assert (a + b).doubled == 5
    assert (a - b).doubled == 1
    assert (-a).doubled == -3
    assert abs(HalfInt(-5)).doubled == 5
    assert a + 1 == HalfInt(5)
    assert 2 - a == HalfInt(1)
    assert b < a < HalfInt(4)
    assert float(a) == 1.5


def test_str_and_parity():
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(-1)) == "-1/2"
    assert str(HalfInt(4)) == "2"
    assert HalfInt(4).is_integer
    assert not HalfInt(3).is_integer
    assert HalfInt(3).same_parity(HalfInt(-5))
    assert not HalfInt(3).same_parity(HalfInt(2))


CONVERTIBLE = [0, 3, -2, 0.5, -1.5, 2.0, 1.5 + 4e-10, -7.5 - 4e-10, HalfInt(7), "3/2", "-0.5", Fraction(5, 2)]


def test_doubled_is_coerce_entry_by_entry():
    want = [HalfInt.coerce(value).doubled for value in CONVERTIBLE]
    assert doubled(CONVERTIBLE).tolist() == want
    assert doubled(tuple(CONVERTIBLE)).dtype == np.dtype(int)
    floats = [value for value in CONVERTIBLE if isinstance(value, float)]
    assert doubled(np.array(floats)).tolist() == [HalfInt.coerce(value).doubled for value in floats]
    assert doubled(np.array([0, 3, -2])).tolist() == [0, 6, -4]
    assert doubled(np.arange(400) + 0.5).tolist() == list(range(1, 800, 2))
    assert doubled(np.array([])).tolist() == doubled([]).tolist() == []


@pytest.mark.parametrize("bad", [0.3, 1.5 + 2e-9, math.nan, math.inf, -math.inf, 1e308])
def test_doubled_raises_the_coerce_error_at_the_first_bad_entry(bad):
    with pytest.raises(DomainError) as want:
        HalfInt.coerce(bad)
    values = [0.5, 1.0, bad, 0.7, math.nan]  # the later entries are bad too
    for weights in (values, np.array(values)):
        with pytest.raises(DomainError) as got:
            doubled(weights)
        assert str(got.value) == str(want.value)


def test_doubled_keeps_the_element_rules():
    with pytest.raises(DomainError, match="cannot parse"):
        doubled(["1/2", "x"])
    with pytest.raises(TypeError):
        doubled([0.5, True])
    with pytest.raises(TypeError):
        doubled(np.array([True, False]))
