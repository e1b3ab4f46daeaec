import random
from fractions import Fraction
from math import gcd

import pytest

from diatomic import (
    ExtRational,
    FiniteDesign,
    assembly_dyadic,
    assembly_enclose,
    assembly_inverse,
    assembly_of_rational_theta,
    assembly_theta,
    compose,
    compose_action,
    design_number,
    parse_design,
    quad_from_period,
    question_mark_inverse,
    reflection,
    stern,
    theta_of,
)
from diatomic.errors import InsufficientBits, OutOfRange
from diatomic.quadratic import QuadIrr

from oracles import mediant_question_mark_inverse


def test_exact_values():
    assert assembly_dyadic(1, 1) == ExtRational(1)
    assert assembly_dyadic(5, 3) == ExtRational(3, 2)
    for n in range(9):
        assert assembly_dyadic(1 << n, n).is_infinite
    assert assembly_dyadic(0, 4) == ExtRational(0)


def test_well_defined_under_doubling():
    for n in range(9):
        for m in range(1 << n):
            assert assembly_dyadic(m, n) == assembly_dyadic(2 * m, n + 1)


def test_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        assembly_dyadic(9, 3)
    with pytest.raises(OutOfRange):
        assembly_theta(Fraction(1, 3))


def test_inverse_examples():
    d = assembly_inverse(ExtRational(7, 3))
    assert d.bits == "11001"
    assert theta_of(d) == Fraction(25, 32)
    assert assembly_inverse(ExtRational(1)).bits == "1"
    assert assembly_inverse(ExtRational(0)).is_empty
    assert assembly_inverse(ExtRational.infinity()).terminal


def test_inverse_round_trip_on_small_ratios():
    for a in range(1, 41):
        for b in range(1, 41):
            if gcd(a, b) != 1:
                continue
            d = assembly_inverse(ExtRational(a, b))
            m, n = design_number(d)
            assert assembly_dyadic(m, n) == ExtRational(a, b)


def test_strict_monotonicity_with_exact_gap():
    for n in range(11):
        top = 1 << n
        for m in range(top):
            gap = assembly_dyadic(m + 1, n) - assembly_dyadic(m, n)
            expected = ExtRational(1, stern(top - m) * stern(top - m - 1)) \
                if m + 1 < top else ExtRational.infinity()
            assert gap == expected


def test_enclosure_examples():
    e = assembly_enclose("10", 2)
    assert (e.lo, e.hi) == (ExtRational(1), ExtRational(2))
    e = assembly_enclose("101010", 4)
    assert (e.lo, e.hi) == (ExtRational(3, 2), ExtRational(5, 3))
    e = assembly_enclose("111", 0)
    assert e.lo == ExtRational(0) and e.hi.is_infinite


def test_enclosure_needs_enough_bits():
    with pytest.raises(InsufficientBits):
        assembly_enclose("10", 3)
    with pytest.raises(OutOfRange):
        assembly_enclose("10x", 2)
    with pytest.raises(OutOfRange):
        assembly_enclose("1", -1)
    with pytest.raises(OutOfRange):
        assembly_of_rational_theta(Fraction(7, 5))


def test_enclosure_widths_shrink_and_nest():
    bits = "110011" * 6  # prefix of the sqrt(6) design
    prev = None
    for n in range(len(bits) + 1):
        e = assembly_enclose(bits, n)
        assert e.lo <= e.hi
        if prev is not None:
            assert prev.lo <= e.lo and e.hi <= prev.hi
            assert e.width() <= prev.width()
        prev = e


def test_enclosures_converge_on_the_quadratic_root():
    cases = {"110011": 6, "1001": 2, "010": None}
    for per, q in cases.items():
        root = quad_from_period(parse_design(per))
        if q is not None:
            assert root.sqrt_value() == q
        bits = per * 8
        for n in range(1, len(bits) + 1):
            e = assembly_enclose(bits, n)
            assert root.compare_ext(e.lo) > 0
            assert root.compare_ext(e.hi) < 0


def test_reflection_examples():
    assert reflection(Fraction(1, 2)) == (ExtRational(1), ExtRational(1))
    lo, hi = reflection(Fraction(0))
    assert lo.is_infinite and hi.is_infinite
    assert reflection(Fraction(5, 8)) == (ExtRational(2, 3), ExtRational(2, 3))


def test_reflection_exhaustive():
    for n in range(11):
        for m in range(1 << n):
            t = Fraction(m, 1 << n)
            lhs, rhs = reflection(t)
            assert lhs == rhs


def test_composition_moves_values():
    rng = random.Random(61)
    for _ in range(200):
        w1 = "".join(rng.choice("01") for _ in range(rng.randrange(0, 9)))
        w2 = "".join(rng.choice("01") for _ in range(rng.randrange(0, 9)))
        d1, d2 = FiniteDesign(w1), FiniteDesign(w2)
        m2, n2 = design_number(d2)
        both = compose(d1, d2)
        m, n = design_number(both)
        assert assembly_dyadic(m, n) == compose_action(d1, assembly_dyadic(m2, n2))


def test_compose_action_examples():
    v = ExtRational(5, 7)
    assert compose_action(FiniteDesign(""), v) == v
    assert compose_action(FiniteDesign("1"), ExtRational(1)) == assembly_dyadic(3, 2)


def test_rational_theta_dispatch():
    assert assembly_of_rational_theta(Fraction(3, 8)) == ExtRational(2, 3)
    v = assembly_of_rational_theta(Fraction(3, 5))
    assert isinstance(v, QuadIrr) and v.sqrt_value() == 2
    assert assembly_of_rational_theta(Fraction(5, 7)).sqrt_value() == 3
    golden = assembly_of_rational_theta(Fraction(2, 3))
    assert (golden.a2, golden.b1, golden.c0) == (1, 1, 1)


def test_question_mark_inverse_examples():
    assert question_mark_inverse(Fraction(1, 2)) == ExtRational(1, 2)
    assert question_mark_inverse(Fraction(0)) == ExtRational(0)
    assert question_mark_inverse(Fraction(3, 4)) == ExtRational(2, 3)
    assert question_mark_inverse(Fraction(1)) == ExtRational(1)


def test_question_mark_inverse_matches_mediant_walk():
    for n in range(11):
        for m in range(0, (1 << n) + 1):
            t = Fraction(m, 1 << n)
            got = question_mark_inverse(t)
            want = mediant_question_mark_inverse(t)
            assert got == ExtRational(want.numerator, want.denominator)
