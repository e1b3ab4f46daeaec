import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diatomic import (
    Enclosure,
    ExtRational,
    FiniteDesign,
    PeriodicDesign,
    apply_mobius,
    assembly_dyadic,
    assembly_enclose,
    assembly_inverse,
    assembly_of_rational_theta,
    assembly_theta,
    compose,
    compose_action,
    conjugate,
    design_number,
    design_of_theta,
    make_periodic,
    parse_design,
    quad_from_period,
    quad_of_periodic,
    question_mark_inverse,
    reflection,
    sdm,
    stern,
    theta_of,
)
from diatomic.errors import DomainError, InsufficientBits, OutOfRange
from diatomic.quadratic import QuadIrr

from oracles import (
    compare_ext,
    ext_difference,
    ext_key,
    mediant_question_mark_inverse,
    mobius,
    sqrt_value,
    two_value_enclose,
)


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


def test_range_check_admits_exactly_0_to_2_to_the_n():
    for n in range(7):
        for m in range(1 << (n + 3)):
            if m <= 1 << n:
                assembly_dyadic(m, n)
            else:
                with pytest.raises(OutOfRange):
                    assembly_dyadic(m, n)


def test_range_check_builds_no_power_of_two():
    n = 10**7
    top, past = 1 << n, (1 << n) + 1  # built before tracing; 2**n alone is 1.25 MB
    tracemalloc.start()
    try:
        assert assembly_dyadic(top, n).is_infinite
        with pytest.raises(OutOfRange):
            assembly_dyadic(past, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_range_error_names_a_huge_operand_by_its_bit_length(huge):
    with pytest.raises(OutOfRange, match=r"got m=<20000-bit integer>, n=3$"):
        assembly_dyadic(huge, 3)
    with pytest.raises(OutOfRange, match=r"got m=-1, n=<20000-bit integer>$"):
        assembly_dyadic(-1, huge)
    with pytest.raises(OutOfRange, match=r"^need 0 <= m <= 2\^n, got m=9, n=3$"):
        assembly_dyadic(9, 3)


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
            gap = ext_difference(assembly_dyadic(m + 1, n), assembly_dyadic(m, n))
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


def test_width_of_a_caller_built_enclosure():
    # hi - lo on the integer pairs, normalised; infinity when only hi is infinite
    inf, two = ExtRational.infinity(), ExtRational(2)
    assert Enclosure(ExtRational(1, 6), ExtRational(1, 2), 0).width() == ExtRational(1, 3)
    assert Enclosure(ExtRational(0), ExtRational(7, 3), 0).width() == ExtRational(7, 3)
    above = Enclosure(two, inf, 0)
    assert above.width() == inf
    assert above.contains(inf) and above.contains(two) and not above.contains(ExtRational(1))
    with pytest.raises(DomainError) as info:
        Enclosure(inf, inf, 0).width()
    assert type(info.value) is DomainError and str(info.value) == "infinity - infinity"
    for lo, hi in ((ExtRational(1, 2), ExtRational(1, 3)), (inf, two)):
        with pytest.raises(OutOfRange, match=r"^difference would be negative$"):
            Enclosure(lo, hi, 0).width()


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
        assert ext_key(e.lo) <= ext_key(e.hi)
        assert e.width() == ext_difference(e.hi, e.lo)
        if prev is not None:
            assert ext_key(prev.lo) <= ext_key(e.lo) and ext_key(e.hi) <= ext_key(prev.hi)
            assert ext_key(e.width()) <= ext_key(prev.width())
        prev = e


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 200), seed=st.integers(0, 2**64), ones=st.booleans())
def test_enclosure_matches_two_values_one_ulp_apart(n, seed, ones):
    # an all-1 prefix has its upper end at infinity
    extra = random.Random(seed).getrandbits(n + 3)
    bits = "1" * (n + 3) if ones else format(extra, f"0{n + 3}b")
    e = assembly_enclose(bits, n)
    assert (e.lo, e.hi) == two_value_enclose(bits, n)
    assert e.bits_used == n


def test_enclosures_converge_on_the_quadratic_root():
    cases = {"110011": 6, "1001": 2, "010": None}
    for per, q in cases.items():
        root = quad_from_period(parse_design(per))
        if q is not None:
            assert sqrt_value(root) == q
        bits = per * 8
        for n in range(1, len(bits) + 1):
            e = assembly_enclose(bits, n)
            assert compare_ext(root, e.lo) > 0
            assert compare_ext(root, e.hi) < 0


def test_reflection_examples():
    assert reflection(Fraction(1, 2)) == (ExtRational(1), ExtRational(1))
    lo, hi = reflection(Fraction(0))
    assert lo.is_infinite and hi.is_infinite
    assert reflection(Fraction(5, 8)) == (ExtRational(2, 3), ExtRational(2, 3))


def test_reflection_names_the_callers_t():
    # 1 - t lies outside [0, 1] too, at 1 - t = -1/2 and 9/8
    for t in (Fraction(3, 2), Fraction(-1, 8)):
        with pytest.raises(OutOfRange) as info:
            reflection(t)
        assert str(info.value) == f"theta must lie in [0, 1], got {t}"


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
    assert isinstance(v, QuadIrr) and sqrt_value(v) == 2
    assert sqrt_value(assembly_of_rational_theta(Fraction(5, 7))) == 3
    golden = assembly_of_rational_theta(Fraction(2, 3))
    assert (golden.a2, golden.b1, golden.c0) == (1, 1, 1)


def test_question_mark_inverse_examples():
    assert question_mark_inverse(Fraction(1, 2)) == ExtRational(1, 2)
    assert question_mark_inverse(Fraction(0)) == ExtRational(0)
    assert question_mark_inverse(Fraction(3, 4)) == ExtRational(2, 3)
    assert question_mark_inverse(Fraction(1)) == ExtRational(1)
    # ?^-1(1/3) = [0; 2, 1, 1, 1, ...] = (3 - sqrt 5)/2, and ?^-1(2/3) = 1 - that
    assert question_mark_inverse(Fraction(1, 3)) == QuadIrr(1, 3, -1, plus_branch=False)
    assert question_mark_inverse(Fraction(2, 3)) == QuadIrr(1, -1, 1)


def test_question_mark_inverse_matches_mediant_walk():
    for n in range(11):
        for m in range(0, (1 << n) + 1):
            t = Fraction(m, 1 << n)
            got = question_mark_inverse(t)
            want = mediant_question_mark_inverse(t)
            assert got == ExtRational(want.numerator, want.denominator)


# --- the action and the mirror law at every rational theta ----------------------


def _value(d):
    """The value of a design by its own route: a word's table ratio, or a
    periodic design's root, from its period and preperiod."""
    if isinstance(d, PeriodicDesign):
        return quad_of_periodic(d)
    return assembly_dyadic(d.number, d.length)


def _words(top):
    return [format(m, f"0{n}b") if n else "" for n in range(top + 1) for m in range(1 << n)]


def _thetas(top):
    """Every t = a/q in [0, 1] with q < top."""
    return list(dict.fromkeys(Fraction(a, q) for q in range(1, top) for a in range(q + 1)))


def _assert_action(w, t, x):
    """Prepending w to t's design moves x = A(t) by sdm(w): by the library's
    action, by field arithmetic on x, and by the value of the longer design."""
    d = FiniteDesign(w)
    got = compose_action(d, x)
    assert got == _value(compose(d, design_of_theta(t)))
    if isinstance(x, QuadIrr):
        assert type(got) is QuadIrr and got == mobius(x, *sdm(d).entries())


@pytest.mark.parametrize("top, letters", [(100, 3), (16, 8)])
def test_compose_action_matches_the_value_of_the_composed_design(top, letters):
    # every t with q < 100 and words of up to 3 letters, then every t with
    # q < 16 and words of up to 8 letters
    words = _words(letters)
    for t in _thetas(top):
        x = assembly_of_rational_theta(t)
        for w in words:
            _assert_action(w, t, x)


def test_compose_action_builds_a_root_the_checked_constructor_accepts():
    # _root skips the radicand's isqrt and the sign test
    for t in _thetas(24):
        x = assembly_of_rational_theta(t)
        for w in _words(3) if isinstance(x, QuadIrr) else ():
            got = compose_action(FiniteDesign(w), x)
            assert got == QuadIrr(got.a2, got.b1, got.c0, got.plus_branch)


def test_reflection_holds_at_every_rational_t():
    for t in _thetas(100):
        lhs, rhs = reflection(t)
        assert lhs == rhs
        x = assembly_of_rational_theta(t)
        if isinstance(x, QuadIrr):
            assert type(rhs) is QuadIrr and rhs == mobius(x, 0, 1, 1, 0)
            assert question_mark_inverse(t) == mobius(x, 1, 0, 1, 1)


def test_apply_mobius_on_a_root_matches_field_arithmetic():
    roots = [QuadIrr(1, 1, 1), QuadIrr(3, 0, 1), QuadIrr(1, 5, -3, plus_branch=False),
             quad_of_periodic(parse_design("0110(10010)"))]
    for x in roots:
        for w in _words(6):
            m = sdm(FiniteDesign(w))
            got = apply_mobius(m, x)
            assert type(got) is QuadIrr and got == mobius(x, *m.entries())


def _bit_words(lo, hi):
    return st.integers(lo, hi).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda m: format(m, f"0{n}b") if n else ""))


@settings(max_examples=40, deadline=None)
@given(_bit_words(0, 64), _bit_words(2, 3000), _bit_words(0, 64))
def test_the_action_and_the_mirror_law_at_long_periods(pre, per, w):
    # design_of_theta finds the order of 2 in as many steps as the period has bits
    pd = make_periodic(pre, per)
    assume(isinstance(pd, PeriodicDesign))
    t, x = theta_of(pd), quad_of_periodic(pd)
    assert assembly_of_rational_theta(t) == x
    _assert_action(w, t, x)
    lhs, rhs = reflection(t)
    assert lhs == rhs == mobius(x, 0, 1, 1, 0) == quad_of_periodic(conjugate(pd))
    m = sdm(FiniteDesign(w))
    assert apply_mobius(m, x) == mobius(x, *m.entries())


# --- theta -> value -> design at 10^3..10^5 bits, through the half-gcd walk --

SIZES = [1000, 3162, 10000, 31623, 100000]


def reduced_design(m, n):
    return FiniteDesign(format(m, f"0{n}b").rstrip("0"))


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**64))
def test_inverse_recovers_the_reduced_design_at_size(n, seed):
    rng = random.Random(seed)
    m = rng.getrandbits(n)
    if rng.random() < 0.3:  # a long run of one letter
        i, j = sorted(rng.sample(range(n + 1), 2))
        mask = ((1 << (j - i)) - 1) << i
        m = m | mask if rng.random() < 0.5 else m & ~mask
    assert assembly_inverse(assembly_dyadic(m, n)) == reduced_design(m, n)


@pytest.mark.parametrize("n", SIZES)
def test_inverse_at_the_row_ends_at_size(n):
    for m in (0, 1, (1 << n) - 1):
        assert assembly_inverse(assembly_dyadic(m, n)) == reduced_design(m, n)
    assert assembly_inverse(assembly_dyadic(1 << n, n)) == FiniteDesign.terminal_of(0)
