from fractions import Fraction

import pytest

from diatomic import ExtRational, parse_fraction, parse_ratio
from diatomic.errors import DomainError, OutOfRange


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


def test_a_value_has_no_arithmetic():
    # callers compute on num and den; as_fraction gives a finite value's Fraction
    with pytest.raises(TypeError):
        ExtRational(1) + ExtRational(1)
    with pytest.raises(TypeError):
        ExtRational(1) < ExtRational(2)
    assert not hasattr(ExtRational(1), "reciprocal")


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


@pytest.mark.parametrize("text", ["+3", "3/+4", "1_000", "1/1_0", "\u0663/4", "3/ 4", "3 /4",
                                  "- 3", "\u22123", "--3", "-", "0x10", "1/"])
def test_an_integer_part_is_ascii_digits_after_an_optional_minus(text):
    # int() reads each of these; the text grammar does not
    with pytest.raises(DomainError) as info:
        parse_ratio(text)
    assert type(info.value) is DomainError and str(info.value) == f"bad rational {text!r}"


def test_whitespace_around_the_whole_text_is_stripped():
    assert parse_ratio("\t-0/5 \n") == ExtRational(0)
    assert parse_fraction(" 12/8 ") == Fraction(3, 2)
