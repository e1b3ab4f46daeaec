from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diatomic import ExtRational, parse_fraction, parse_ratio
from diatomic.errors import DomainError, OutOfRange

nonneg = st.fractions(min_value=0, max_denominator=50)


def test_negative_component_names_a_huge_operand_by_its_bit_length(huge):
    with pytest.raises(OutOfRange, match=r"^negative component <-20000-bit integer>/1$"):
        ExtRational(-huge, 1)
    with pytest.raises(OutOfRange, match=r"^negative component 2/-3$"):
        ExtRational(2, -3)


def test_normalization():
    assert ExtRational(6, 4) == ExtRational(3, 2)
    assert ExtRational(0, 7) == ExtRational(0)
    assert ExtRational(5, 0) == ExtRational.infinity()
    assert str(ExtRational(5, 0)) == "inf"
    assert str(ExtRational(8, 2)) == "4"


def test_zero_over_zero_is_rejected():
    with pytest.raises(DomainError):
        ExtRational(0, 0)
    with pytest.raises(OutOfRange):
        ExtRational(-1, 2)


def test_infinity_ordering():
    inf = ExtRational.infinity()
    x = ExtRational(10 ** 30, 7)
    assert x < inf and inf > x and inf >= x and not x > inf and not x >= inf
    assert not inf < inf and inf <= inf and not inf > inf and inf >= inf
    assert inf.reciprocal() == ExtRational(0)
    assert ExtRational(0).reciprocal() == inf


def test_infinity_arithmetic():
    inf = ExtRational.infinity()
    two = ExtRational(2)
    assert inf + two == inf
    assert inf - two == inf
    assert inf * two == inf
    assert two / inf == ExtRational(0)
    with pytest.raises(DomainError):
        inf - inf


def test_subtraction_is_monotone_only():
    with pytest.raises(OutOfRange):
        ExtRational(1, 3) - ExtRational(1, 2)


@given(nonneg, nonneg)
def test_field_ops_match_fraction(a, b):
    ra, rb = ExtRational(a.numerator, a.denominator), ExtRational(b.numerator, b.denominator)
    assert (ra + rb).as_fraction() == a + b
    assert (ra * rb).as_fraction() == a * b
    if b:
        assert (ra / rb).as_fraction() == a / b
    if a >= b:
        assert (ra - rb).as_fraction() == a - b
    assert (ra < rb) == (a < b)
    assert (ra <= rb) == (a <= b)
    assert (ra > rb) == (a > b)  # Python reflects > and >= to < and <=
    assert (ra >= rb) == (a >= b)


def test_as_fraction_rejects_infinity():
    with pytest.raises(DomainError):
        ExtRational.infinity().as_fraction()


def test_parsing():
    assert parse_ratio("7/3") == ExtRational(7, 3)
    assert parse_ratio(" 4 ") == ExtRational(4)
    assert parse_ratio("inf").is_infinite
    assert parse_fraction("25/32") == Fraction(25, 32)
    for bad in ("x", "1/2/3", "", "1.5"):
        with pytest.raises(DomainError):
            parse_ratio(bad)
    with pytest.raises(DomainError):
        parse_fraction("inf")
