import random
from fractions import Fraction
from math import gcd, isqrt
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diatomic import (
    FieldElement,
    FiniteDesign,
    PeriodicDesign,
    Purity,
    QuadIrr,
    assembly_enclose,
    cf_of_root,
    classify_type,
    conjugate_root_design,
    design_of_theta,
    inverse_design,
    make_periodic,
    parse_design,
    periodic_design_of_sqrt,
    purity_test,
    quad_from_period,
    quad_of_periodic,
    runs,
    sdi_quadruple,
    sdm,
    sqrt_cf,
    theta_of,
)
from diatomic.errors import InvalidPeriod, NonPositive, OutOfRange, PerfectSquare
from diatomic import quadratic
from diatomic.quadratic import _gap_frame, _moved_gap, _period_matrix, _root
from oracles import (
    compare_ext,
    conjugate_sign,
    equation_moved_gap,
    field_element_cf,
    field_element_floor,
    mobius,
    mobius_quad_of_periodic,
    recording_gcd,
    sqrt_value,
    sub_fraction,
    sub_times,
    whole_period_matrix,
)


def _squarefree(n: int) -> int:
    out = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            out *= p
        p += 1
    return out * n


# --- field elements ----------------------------------------------------------

def test_field_element_sign_and_compare():
    x = FieldElement(1, 1, 2, 5)  # golden ratio
    assert x.sign() > 0
    assert x.compare_fraction(Fraction(8, 5)) > 0
    assert x.compare_fraction(Fraction(13, 8)) < 0
    neg = FieldElement(-7, 3, 2, 5)
    assert neg.sign() < 0
    assert field_element_floor(neg) == -1
    assert field_element_floor(FieldElement(-7, -3, 2, 5)) == -7
    assert field_element_floor(FieldElement(1, 1, 2, 5)) == 1


def test_field_element_mobius():
    golden = FieldElement(1, 1, 2, 5)
    # fixed point of (2x+1)/(x+1)
    assert mobius(golden, 2, 1, 1, 1) == golden
    recip = mobius(golden, 0, 1, 1, 0)
    assert recip == FieldElement(-1, 1, 2, 5)


def test_field_element_rejects_square_radicand():
    with pytest.raises(OutOfRange):
        FieldElement(1, 1, 1, 9)
    with pytest.raises(OutOfRange):
        FieldElement(1, 1, 2, 5) - FieldElement(1, 1, 2, 3)


def test_radicand_error_names_a_huge_radicand_by_its_bit_length(huge):
    with pytest.raises(OutOfRange, match=r"nonsquare, got <\d+-bit integer>$"):
        FieldElement(1, 1, 2, huge * huge)
    with pytest.raises(OutOfRange, match=r"nonsquare, got 9$"):
        FieldElement(1, 1, 2, 9)


def test_public_constructor_checks_the_radicand():
    for d in (0, -5, 1, 4, 9, 10**40, 3**90):
        with pytest.raises(OutOfRange):
            FieldElement(1, 1, 2, d)
    with pytest.raises(OutOfRange, match="zero denominator"):
        FieldElement(1, 1, 0, 5)
    with pytest.raises(TypeError):  # no keyword skips a check
        FieldElement(1, 1, 2, 9, _checked=True)
    with pytest.raises(TypeError):
        QuadIrr(1, 3, -2, _checked=True)
    x, y = FieldElement(1, 1, 2, 5), FieldElement(1, 1, 2, 3)
    for op in (lambda: x - y, lambda: y - x, lambda: QuadIrr(1, 0, 3) - x):
        with pytest.raises(OutOfRange):
            op()


ints = st.integers(-(2**200), 2**200)
nonzero = ints.filter(bool)


@st.composite
def field_pairs(draw):
    """Two elements over one nonsquare radicand, up to 400 bits."""
    d = draw(st.integers(2, 2**400))
    assume(isqrt(d) ** 2 != d)
    x = FieldElement(draw(ints), draw(nonzero), draw(nonzero), d)
    y = FieldElement(draw(ints), draw(nonzero), draw(nonzero), d)
    return x, y


def _is_normal(el: FieldElement, d: int) -> bool:
    return el.r > 0 and gcd(el.p, el.q, el.r) == 1 and el.d == d


@settings(max_examples=200, deadline=None)
@given(field_pairs(), ints)
def test_fused_step_equals_subtract_then_scale(pair, k):
    x, y = pair
    fused = sub_times(x, y, k)
    scaled = (x - y).mul_fraction(Fraction(k))
    assert fused == scaled
    assert (fused.p, fused.q, fused.r) == (scaled.p, scaled.q, scaled.r)
    assert _is_normal(scaled, x.d)
    assert x - y == sub_times(x, y, 1)


@settings(max_examples=200, deadline=None)
@given(field_pairs(), nonzero, st.lists(ints, min_size=4, max_size=4))
def test_trusted_results_stay_normalised(pair, k, m):
    x, y = pair
    a, b, c, e = m
    assume(c or e)
    f = Fraction(k, 3 * k + 1)
    for el in (x - y, sub_times(x, y, k), sub_fraction(x, f), x.mul_fraction(f),
               mobius(x, a, b, c, e)):
        assert _is_normal(el, x.d)
    for g in (f, -f, Fraction(k)):
        assert x.compare_fraction(g) == sub_fraction(x, g).sign()
    assert mobius(x, a, b, c, e) == FieldElement(
        *_mobius_parts(x, a, b, c, e), x.d)


def _mobius_parts(x, a, b, c, e):
    # (a x + b)/(c x + e) by Fraction arithmetic on the two coordinates
    num = (Fraction(a * x.p + b * x.r, x.r), Fraction(a * x.q, x.r))
    den = (Fraction(c * x.p + e * x.r, x.r), Fraction(c * x.q, x.r))
    norm = den[0] ** 2 - den[1] ** 2 * x.d
    p = (num[0] * den[0] - num[1] * den[1] * x.d) / norm
    q = (num[1] * den[0] - num[0] * den[1]) / norm
    r = p.denominator * q.denominator
    return int(p * r), int(q * r), r


def test_field_element_of_an_equation_keeps_its_radicand():
    x = QuadIrr(3, 5, 7)  # disc 25 + 84 = 109
    el = x.field_element()
    assert _is_normal(el, 109) and el.sign() > 0
    y = QuadIrr(1, 0, 12)  # sqrt(12) = 2 sqrt(3): disc 48 = 4^2 * 3
    assert y.field_element(3) == FieldElement(0, 2, 1, 3)
    assert y.field_element(12) == FieldElement(0, 1, 1, 12)
    for d in (5, 7, 0, -3, 49, 16, 24):  # 48 = 3 * 16 = 2 * 24
        with pytest.raises(OutOfRange):
            y.field_element(d)


def test_quad_irr_construction_guards():
    with pytest.raises(OutOfRange):
        QuadIrr(1, 3, -2)  # discriminant 1 is a perfect square
    with pytest.raises(OutOfRange):
        QuadIrr(1, 0, 2, plus_branch=False)  # selected root is negative
    with pytest.raises(OutOfRange):
        QuadIrr(0, 1, 1)
    assert QuadIrr(2, 0, 4) == QuadIrr(1, 0, 2)  # primitive normalization


def test_quad_irr_is_its_field_element():
    x = QuadIrr(3, 5, 7)
    assert isinstance(x, FieldElement)
    assert x == FieldElement(5, 1, 6, 109)
    assert QuadIrr(1, 4, -2, plus_branch=False) == FieldElement(4, -1, 2, 8)
    y = QuadIrr(2, 8, -4, plus_branch=False)  # primitive (1, 4, -2): 2 - sqrt(2)
    assert (y.a2, y.b1, y.c0, y.plus_branch, y.discriminant) == (1, 4, -2, False, 8)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.integers(-2000, 2000), st.integers(-2000, 2000),
       st.booleans(), st.integers(1, 9))
def test_quad_irr_reads_back_its_primitive_equation(a2, b1, c0, plus, k):
    disc = b1 * b1 + 4 * a2 * c0
    assume(disc > 0 and isqrt(disc) ** 2 != disc)
    g = gcd(a2, b1, c0)
    a2, b1, c0, disc = a2 // g, b1 // g, c0 // g, disc // (g * g)
    el = FieldElement(b1, 1 if plus else -1, 2 * a2, disc)
    if el.sign() <= 0:
        with pytest.raises(OutOfRange):
            QuadIrr(k * a2, k * b1, k * c0, plus)
        return
    x = QuadIrr(k * a2, k * b1, k * c0, plus)
    assert x == el
    assert (x.a2, x.b1, x.c0, x.plus_branch, x.discriminant) == (a2, b1, c0, plus, disc)


def test_purity_domain():
    with pytest.raises(OutOfRange):
        purity_test(Fraction(1))


# --- the fixed-point equation ------------------------------------------------

def test_period_equation_examples():
    golden = quad_from_period(parse_design("10"))
    assert (golden.a2, golden.b1, golden.c0) == (1, 1, 1)
    root2 = quad_from_period(parse_design("1001"))
    assert sqrt_value(root2) == 2
    assert sqrt_value(quad_from_period(parse_design("101"))) == 3


def test_period_equation_rejects_degenerate_words():
    for bad in ("", "1", "0", "11", "000", "10t"):
        with pytest.raises(InvalidPeriod):
            quad_from_period(parse_design(bad))


def test_equation_strings():
    assert quad_from_period(parse_design("10")).equation_str() == "x^2 - x - 1 = 0"
    assert quad_from_period(parse_design("1001")).equation_str() == "x^2 - 2 = 0"


def test_periodic_value_reduces_to_pure_case():
    d = make_periodic("", "10")
    assert quad_of_periodic(d) == quad_from_period(parse_design("10"))


def test_periodic_value_with_preperiod():
    d = parse_design("1(10)")
    assert isinstance(d, PeriodicDesign)
    v = quad_of_periodic(d)
    assert (v.a2, v.b1, v.c0) == (1, 3, -1)
    assert conjugate_sign(v) > 0
    d2 = parse_design("0(01)")
    v2 = quad_of_periodic(d2)
    assert (v2.a2, v2.b1, v2.c0) == (1, 3, -1)
    assert v2.plus_branch != v.plus_branch
    assert theta_of(d2) == Fraction(1, 6)


def test_periodic_value_sits_inside_its_enclosures():
    cases = ["1(10)", "0(01)", "(1001)", "11(010)"]
    for text in cases:
        d = parse_design(text)
        v = quad_of_periodic(d)
        bits = d.preperiod.bits + d.period.bits * 10
        for n in range(1, min(len(bits), 24) + 1):
            e = assembly_enclose(bits, n)
            assert compare_ext(v, e.lo) > 0
            assert compare_ext(v, e.hi) < 0


def test_fixed_point_equation_matches_matrix():
    # the word's matrix fixes the root: gamma x^2 + (delta - alpha) x - beta = 0
    for per in ("10", "1001", "110", "0101"):
        m = sdm(parse_design(per))
        q = quad_from_period(parse_design(per))
        got = QuadIrr(m.c, m.a - m.d, m.b)
        assert got == q


@st.composite
def bit_words(draw, lo, hi):
    n = draw(st.integers(lo, hi))
    return format(draw(st.integers(0, (1 << n) - 1)), f"0{n}b") if n else ""


@settings(max_examples=40, deadline=None)
@given(bit_words(0, 64), bit_words(2, 4000))
def test_periodic_value_matches_the_mobius_route(pre, per):
    # the composition law at scale: the library's moved equation equals the
    # period's root moved by the preperiod's matrix in field arithmetic
    d = make_periodic(pre, per)
    assume(isinstance(d, PeriodicDesign))
    assert quad_of_periodic(d) == mobius_quad_of_periodic(d)


def _random_periodic_designs(seed, lengths):
    """Two random periodic designs per period length, preperiods up to 64 bits."""
    rng = random.Random(seed)
    for n in lengths:
        count = 2
        while count:
            pre = format(rng.getrandbits(64), "064b")[:rng.randint(0, 64)]
            d = make_periodic(pre, format(rng.getrandbits(n), f"0{n}b"))
            if isinstance(d, PeriodicDesign) and d.period.length == n:
                count -= 1
                yield d


@pytest.mark.parametrize(
    "d", _random_periodic_designs(2024, (2, 3, 5, 9, 40, 130, 500, 1000, 2000, 4000, 6000, 8000)),
    ids=lambda d: f"{d.preperiod.length}+{d.period.length}")
def test_trusted_fixed_point_equals_the_checked_constructor(d):
    # _root skips the discriminant's isqrt and the root's sign test; the
    # public constructor runs both on the same equation and must agree.  The
    # conjugate M P M^-1 of the period's matrix P by the preperiod's M fixes
    # the value, and _equation reads the value's equation off it as well
    a, b, c, e = sdm(d.preperiod).entries()
    pa, pb, pc, pe = sdm(d.period).entries()
    # M P M^-1 with M^-1 = (e -b; -c a)
    ta, tb, tc, te = a * pa + b * pc, a * pb + b * pe, c * pa + e * pc, c * pb + e * pe
    m = ta * e - tb * c, tb * a - ta * b, tc * e - te * c, te * a - tc * b
    if m[2] > 0:
        want = QuadIrr(m[2], m[0] - m[3], m[1])
    else:
        want = QuadIrr(-m[2], m[3] - m[0], -m[1], plus_branch=False)
    got = _root(*quadratic._equation(*m))
    assert type(got) is QuadIrr
    assert (got.p, got.q, got.r, got.d) == (want.p, want.q, want.r, want.d)
    assert got == quad_of_periodic(d)


def _value_and_depths(d):
    """quad_of_periodic(d), and the depths it asked the table for."""
    with mock.patch("diatomic.quadratic.sdi_quadruple", wraps=sdi_quadruple) as spy:
        x = quad_of_periodic(d)
    return x, [call.args[0] for call in spy.call_args_list]


_FLIP = str.maketrans("01", "10")


@settings(max_examples=40, deadline=None)
@given(bit_words(0, 64), bit_words(1, 4000))
def test_anti_periodic_value_reads_half_the_period(pre, half):
    # a period h + flip(h) stays one under rotation and under its primitive root
    d = make_periodic(pre, half + half.translate(_FLIP))
    x, depths = _value_and_depths(d)
    assert depths == [d.period.length // 2]
    assert x == mobius_quad_of_periodic(d)


@settings(max_examples=40, deadline=None)
@given(bit_words(1, 4000))
def test_anti_periodic_generator_has_the_whole_periods_fixed_point(half):
    # G = M(h) (0 1; 1 0) = (b a; d c) has determinant -1, and G^2 is the
    # period's matrix, whose equation the checked constructor reads
    a, b, c, d = sdm(FiniteDesign(half)).entries()
    assert _period_matrix(FiniteDesign(half + half.translate(_FLIP))) == (b, a, d, c)
    pa, pb, pc, pd = whole_period_matrix(half)
    want = QuadIrr(pc, pa - pd, pb)  # pc > 0: the period mixes both letters
    got = _root(*quadratic._equation(b, a, d, c))
    assert type(got) is QuadIrr
    assert (got.p, got.q, got.r, got.d) == (want.p, want.q, want.r, want.d)


def test_anti_periodic_value_takes_no_gcd_past_the_generator(monkeypatch):
    # the whole period's equation is (b + c) times G's, with a content of
    # G's bits: dividing it out met operands of twice G's bits in the gcd
    d = design_of_theta(Fraction(2000, 8069))  # an 8068-bit period
    w, n = d.period.bits, d.period.length // 2
    assert w[n:] == w[:n].translate(_FLIP)
    limit = max(sdm(FiniteDesign(w[:n])).entries()).bit_length() + 64
    want, pairs = mobius_quad_of_periodic(d), []
    monkeypatch.setattr(quadratic, "gcd", recording_gcd(pairs))
    assert quad_of_periodic(d) == want
    assert pairs and [(lo, hi) for lo, hi in pairs if hi > limit and lo > 64] == []


@settings(max_examples=40, deadline=None)
@given(bit_words(0, 64), bit_words(1, 4000), st.data())
def test_near_anti_periodic_value_reads_the_whole_period(pre, half, data):
    per = half + half.translate(_FLIP)
    if data.draw(st.booleans(), label="odd length"):
        per = per[:-1]
    else:
        i = data.draw(st.integers(0, len(per) - 1), label="changed bit")
        per = per[:i] + per[i].translate(_FLIP) + per[i + 1:]
    d = make_periodic(pre, per)
    # a primitive root shorter than the word may be anti-periodic again
    assume(isinstance(d, PeriodicDesign) and d.period.length == len(per))
    x, depths = _value_and_depths(d)
    assert depths == [len(per)]
    assert x == mobius_quad_of_periodic(d)


# --- the det-1 action on a root's equation -------------------------------------

entries = st.integers(-(2**16), 2**16)


@st.composite
def det_one_matrices(draw):
    """(a b; c e) with a e - b c = 1, any signs, entries within about 2^16."""
    a, c = draw(entries), draw(entries)
    assume(gcd(a, c) == 1)
    if c == 0:
        return a, draw(entries), 0, a
    e = pow(a, -1, abs(c)) - draw(st.sampled_from([0, abs(c)]))  # either sign
    return a, (a * e - 1) // c, c, e


def _equation(x):
    return x.r >> 1, x.p, (x.d - x.p * x.p) // (2 * x.r), x.q, x.d


# the scale of a scan sample: 1/h = +-2^j
scales = st.builds(lambda s, j: s << j, st.sampled_from([1, -1]), st.integers(0, 64))


def _assert_gap_like_mobius(x, m, k):
    got, want = _moved_gap(_gap_frame(*_equation(x)[:4]), *m, k), sub_times(mobius(x, *m), x, k)
    assert type(got) is FieldElement
    assert (got.p, got.q, got.r, got.d) == (want.p, want.q, want.r, want.d)
    eq = equation_moved_gap(_equation(x), *m, k)
    assert (got.p, got.q, got.r) == (eq.p, eq.q, eq.r)
    return got


@settings(max_examples=40, deadline=None)
@given(bit_words(0, 64), bit_words(2, 8000), det_one_matrices(), scales)
def test_moved_periodic_gap_matches_mobius(pre, per, m, k):
    d = make_periodic(pre, per)
    assume(isinstance(d, PeriodicDesign))
    _assert_gap_like_mobius(quad_of_periodic(d), m, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**64), st.integers(-(2**64), 2**64), st.integers(-(2**64), 2**64),
       st.sampled_from([1, -1]), det_one_matrices(), scales)
def test_moved_gap_of_a_primitive_equation_matches_mobius(a2, b1, c0, s, m, k):
    g = gcd(a2, b1, c0)
    a2, b1, c0 = a2 // g, b1 // g, c0 // g
    disc = b1 * b1 + 4 * a2 * c0
    assume(disc > 0 and isqrt(disc) ** 2 != disc)
    _assert_gap_like_mobius(FieldElement(b1, s, 2 * a2, disc), m, k)


@pytest.mark.parametrize("x", [QuadIrr(1, 1, 1), QuadIrr(1, 5, -3, plus_branch=False),
                               quad_of_periodic(parse_design("0110(10010)"))])
def test_moved_gap_flips_signs_when_the_new_leading_coefficient_is_negative(x):
    # (t -1; 1 0) sends x to t - 1/x, with n2 = a2 x xbar = -c0: the common
    # denominator 2 a2 n2 of the gap is negative exactly when c0 > 0
    assert x.c0 != 0
    for t in (-3, 0, 5):
        for k in (1, -2, 1 << 64, -(1 << 64)):
            assert _assert_gap_like_mobius(x, (t, -1, 1, 0), k).r > 0


@pytest.mark.parametrize("x", [QuadIrr(1, 1, 1), QuadIrr(59, 6, 5), QuadIrr(3, 0, 1),
                               quad_of_periodic(parse_design("0110(10010)"))])
@pytest.mark.parametrize("k", [1, -1, 3, -5, 7 << 10, 1 << 64])
def test_moved_gap_of_a_translation_is_the_shift(x, k):
    # (1 b; 0 1) moves x to x + b: n2 = a2, so h = a2, q = 0 and
    # r = 2 a2^2, and the gap is the integer b k: g is all of r
    for b in (-7, -1, 1, 4):
        got = _assert_gap_like_mobius(x, (1, b, 0, 1), k)
        assert (got.p, got.q, got.r) == (b * k, 0, 1)


@pytest.mark.parametrize("k", [1, -2, 3, -5, 9 << 20])
def test_moved_gap_takes_an_odd_common_factor_of_a2_and_n2(k):
    # x = 1/sqrt(3), a root of 3 X^2 - 1 = 0, moved by (1 0; 3 1) to
    # x/(3 x + 1): n2 = 3 - 9 = -6 shares 3 with a2 = 3, and the gap's
    # three parts share 9 = h^2 before the factors of k
    x = QuadIrr(3, 0, 1)
    frame = _gap_frame(*_equation(x)[:4])
    assert frame[:5] == (3, 0, 1, 1, 12)
    got = _assert_gap_like_mobius(x, (1, 0, 3, 1), k)
    raw_r = 2 * 3 * -6  # 2 a2 n2
    assert raw_r % got.r == 0 and (raw_r // -got.r) % 9 == 0
    # a second step with the same n2
    _assert_gap_like_mobius(x, (2, -1, 3, -1), k)


def test_moved_gap_matches_the_oracle_on_every_small_equation_and_step():
    # primitive equations and det-1 steps with small entries, at odd and
    # even k and at a scan's k = +-2^j: many have h = gcd(a2, n2) > 1, odd
    # or even with h^2 k a power of two, and many a negative r = 2 a2 n2
    seen_odd_h = seen_power_of_two = seen_negative_r = 0
    steps = [(a, (a * e - 1) // c, c, e) for c in range(-3, 4) for e in range(-3, 4)
             for a in range(-3, 4) if c and (a * e - 1) % c == 0]
    steps += [(1, 2, 0, 1), (-1, 3, 0, -1)]
    for a2 in range(1, 13):
        for b1 in range(-3, 4):
            for c0 in range(-3, 4):
                disc = b1 * b1 + 4 * a2 * c0
                if gcd(a2, b1, c0) != 1 or disc <= 0 or isqrt(disc) ** 2 == disc:
                    continue
                for s in (1, -1):
                    x = FieldElement(b1, s, 2 * a2, disc)
                    for m in steps:
                        n2 = a2 * m[3] ** 2 + b1 * m[2] * m[3] - c0 * m[2] ** 2
                        h = gcd(a2, n2)
                        seen_odd_h += h > 1 and h % 2 == 1
                        seen_negative_r += n2 < 0
                        for k in (-3, 4, -(1 << 20), 1 << 61):
                            v = abs(h * h * k)
                            seen_power_of_two += h > 1 and v & (v - 1) == 0
                            _assert_gap_like_mobius(x, m, k)
    assert seen_odd_h > 100 and seen_power_of_two > 100 and seen_negative_r > 100


def test_random_periodic_roots_sit_inside_their_enclosures():
    rng = random.Random(83)
    done = 0
    while done < 50:
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
        per = "".join(rng.choice("01") for _ in range(rng.randrange(2, 8)))
        d = make_periodic(pre, per)
        if not isinstance(d, PeriodicDesign):
            continue
        done += 1
        v = quad_of_periodic(d)
        bits = d.preperiod.bits + d.period.bits * 8
        for n in (5, 12, min(len(bits), 30)):
            e = assembly_enclose(bits, n)
            assert compare_ext(v, e.lo) > 0
            assert compare_ext(v, e.hi) < 0


# --- square roots ------------------------------------------------------------

SQRT_CASES = {
    Fraction(2): ("1001", Fraction(3, 5)),
    Fraction(3): ("101", Fraction(5, 7)),
    Fraction(5): ("11000011", Fraction(13, 17)),
    Fraction(6): ("110011", Fraction(17, 21)),
    Fraction(7): ("1101011", Fraction(107, 127)),
    Fraction(8): ("11011", Fraction(27, 31)),
    Fraction(1, 3): ("010", Fraction(2, 7)),
    Fraction(2, 5): ("01011010", Fraction(6, 17)),
}


def test_sqrt_designs_match_known_expansions():
    for q, (period, theta) in SQRT_CASES.items():
        d = periodic_design_of_sqrt(q)
        assert d.preperiod.is_empty
        assert d.period.bits == period
        assert theta_of(d) == theta


def test_sqrt_designs_round_trip_small_integers():
    for n in range(2, 31):
        if isqrt(n) ** 2 == n:
            continue
        d = periodic_design_of_sqrt(Fraction(n))
        q = quad_from_period(d.period)
        assert q.b1 == 0
        assert sqrt_value(q) == n
        ks = runs(d.period)
        assert ks == ks[::-1]
    for frac in (Fraction(1, 3), Fraction(2, 5), Fraction(5, 7)):
        q = quad_from_period(periodic_design_of_sqrt(frac).period)
        assert sqrt_value(q) == frac


def test_sqrt_rejects_bad_input():
    with pytest.raises(PerfectSquare):
        periodic_design_of_sqrt(Fraction(9))
    with pytest.raises(PerfectSquare):
        periodic_design_of_sqrt(Fraction(9, 4))
    with pytest.raises(NonPositive):
        periodic_design_of_sqrt(Fraction(0))


def test_sqrt_cf_basics():
    assert sqrt_cf(2, 1) == ([1], [2])
    assert sqrt_cf(6, 1) == ([2], [2, 4])
    assert sqrt_cf(1, 3) == ([0, 1], [1, 2])


@pytest.mark.parametrize("num, den, error", [
    (-2, 1, NonPositive),
    (0, 1, NonPositive),
    (2, 0, NonPositive),
    (2, -3, NonPositive),
    (4, 1, PerfectSquare),
    (1, 1, PerfectSquare),
    (2, 8, PerfectSquare),
    (9, 4, PerfectSquare),
])
def test_sqrt_cf_checks_its_input_first(num, den, error):
    with pytest.raises(error):
        sqrt_cf(num, den)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**4))
def test_sqrt_cf_matches_the_field_walk(num, den):
    assume(isqrt(num * den) ** 2 != num * den)
    assert sqrt_cf(num, den) == field_element_cf(FieldElement(0, 1, den, num * den))


def test_sqrt_cf_of_a_large_prime():
    d = 10**9 + 7
    prefix, cycle = sqrt_cf(d, 1)
    assert len(cycle) == 12352
    assert cf_of_root(QuadIrr(1, 0, d)) == (prefix, cycle)


# --- types and conjugates ----------------------------------------------------

def test_type_examples():
    assert classify_type(parse_design("1001")) == 2
    assert classify_type(parse_design("10")) == 1
    assert classify_type(parse_design("01")) == 4
    assert classify_type(parse_design("0110")) == 3


def test_types_match_root_positions():
    # value above/below 1 tracks the leading run; the mirrored conjugate
    # root size tracks the trailing run
    for n in range(2, 7):
        for m in range(1, (1 << n) - 1):
            word = format(m, f"0{n}b")
            period = parse_design(word)
            t = classify_type(period)
            root = quad_from_period(period)
            neg_conj = quad_from_period(inverse_design(period))
            above_one = root.compare_fraction(Fraction(1)) > 0
            conj_big = neg_conj.compare_fraction(Fraction(1)) > 0
            assert above_one == (t in (1, 2))
            assert conj_big == (t in (2, 4))


def test_conjugate_root_design_examples():
    assert conjugate_root_design(parse_design("1001")).bits == "1001"
    assert conjugate_root_design(parse_design("10")).bits == "01"
    assert conjugate_root_design(parse_design("110")).bits == "011"


def test_conjugate_root_satisfies_mirrored_equation():
    # the reversed period's equation is the original with the linear
    # coefficient negated, so its root is the negated conjugate
    rng = random.Random(67)
    for _ in range(100):
        n = rng.randrange(2, 9)
        m = rng.randrange(1, (1 << n) - 1)
        period = parse_design(format(m, f"0{n}b"))
        q = quad_from_period(period)
        qi = quad_from_period(conjugate_root_design(period))
        assert (qi.a2, qi.b1, qi.c0) == (q.a2, -q.b1, q.c0)


# --- purity ------------------------------------------------------------------

def test_purity_examples():
    assert purity_test(Fraction(3, 5)) is Purity.PURE
    assert purity_test(Fraction(5, 6)) is Purity.NON_PURE
    assert purity_test(Fraction(5, 8)) is Purity.RATIONAL


def test_purity_matches_conjugate_sign():
    rng = random.Random(71)
    seen = 0
    while seen < 50:
        q = rng.randrange(2, 201)
        p = rng.randrange(1, q)
        t = Fraction(p, q)
        if t.denominator & (t.denominator - 1) == 0:
            continue
        seen += 1
        d = design_of_theta(t)
        v = quad_of_periodic(d)
        if purity_test(t) is Purity.PURE:
            assert conjugate_sign(v) < 0
            assert d.preperiod.is_empty
        else:
            assert conjugate_sign(v) > 0
            assert not d.preperiod.is_empty


def test_pure_thetas_are_exactly_odd_full_denominators():
    for n in range(2, 9):
        top = (1 << n) - 1
        for m in range(1, top):
            d = design_of_theta(Fraction(m, top))
            assert isinstance(d, PeriodicDesign) and d.preperiod.is_empty
    for t in (Fraction(1, 6), Fraction(3, 10), Fraction(5, 12), Fraction(7, 24)):
        d = design_of_theta(t)
        assert isinstance(d, PeriodicDesign) and not d.preperiod.is_empty


def test_purely_periodic_continued_fractions():
    # the value's continued fraction is purely periodic exactly when the
    # repeating word starts with 1 and ends with 0
    for n in range(2, 9):
        top = (1 << n) - 1
        for m in range(1, top):
            t = Fraction(m, top)
            v = quad_of_periodic(design_of_theta(t))
            prefix, cycle = cf_of_root(v)
            expected = (m % 2 == 0) and (m >= 1 << (n - 1))
            assert (prefix == []) == expected, (m, n)


def test_cf_of_root_examples():
    golden = quad_from_period(parse_design("10"))
    assert cf_of_root(golden) == ([], [1])
    root2 = quad_from_period(parse_design("1001"))
    assert cf_of_root(root2) == ([1], [2])
    # 2 - sqrt(2): the walk starts at (-4 + sqrt(8))/(-2), whose upper
    # bound (-4 + 2)/(-2) = 1 is an integer the value stays below
    assert cf_of_root(QuadIrr(1, 4, -2, plus_branch=False)) == ([0, 1, 1], [2])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(1, 150), st.integers(0, 10**6))
def test_cf_of_periodic_values_matches_the_field_walk(k, half, a):
    # theta = a/(2^k q') with odd q' >= 3, kept off the dyadics
    den = (2 * half + 1) << k
    t = Fraction(a % den, den)
    assume(t.denominator & (t.denominator - 1))
    v = quad_of_periodic(design_of_theta(t))
    assert cf_of_root(v) == field_element_cf(v.field_element())


coefs = st.integers(1, 2000)


@st.composite
def quad_irrs(draw):
    """Roots of either branch; the minus branch needs c0 < 0 < b1, and its
    walk starts from the negative denominator -2 a2, kept small so that it
    often divides the numerator's integer part."""
    a2 = draw(st.integers(1, 60))
    if draw(st.booleans()):
        b1, c0, plus = draw(st.integers(-2000, 2000)), draw(st.integers(-2000, 2000)), True
    else:
        c0 = -draw(coefs)
        b1, plus = isqrt(-4 * a2 * c0) + draw(coefs), False
    disc = b1 * b1 + 4 * a2 * c0
    assume(disc > 0 and isqrt(disc) ** 2 != disc)
    try:
        return QuadIrr(a2, b1, c0, plus)
    except OutOfRange:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(quad_irrs())
def test_cf_of_root_matches_the_field_walk(x):
    assert cf_of_root(x) == field_element_cf(x.field_element())


# --- equivalence under a shared tail -----------------------------------------

def test_shared_tail_values_are_unimodular_related():
    tails = ["10", "1001", "010"]
    rng = random.Random(73)
    for per in tails:
        for _ in range(20):
            w1 = "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
            w2 = "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
            d1 = make_periodic(w1, per)
            d2 = make_periodic(w2, per)
            v1 = quad_of_periodic(d1) if isinstance(d1, PeriodicDesign) else None
            v2 = quad_of_periodic(d2) if isinstance(d2, PeriodicDesign) else None
            if v1 is None or v2 is None:
                continue
            core = _squarefree(v1.discriminant)
            assert core == _squarefree(v2.discriminant)
            m1 = sdm(parse_design(w1))
            m2 = sdm(parse_design(w2))
            # m2 * m1^{-1} carries value 1 to value 2
            a, b, c, d = m2.entries()
            e, f, g, h = m1.d, -m1.b, -m1.c, m1.a
            prod = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            lhs = mobius(v1.field_element(core), *prod)
            assert lhs == v2.field_element(core)
