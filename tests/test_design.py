import random
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diatomic import (
    FiniteDesign,
    PeriodicDesign,
    compose,
    conjugate,
    design_number,
    design_of_theta,
    euclidean_design,
    from_runs,
    inverse_design,
    is_primitive,
    is_reduced,
    make_periodic,
    parse_design,
    partial_quotients,
    realizing_pair,
    reduce,
    runs,
    stern,
    theta_of,
)
from diatomic.errors import (
    DesignSyntaxError,
    MalformedRuns,
    NotCoprime,
    OutOfRange,
    TerminalDesign,
    ZeroInput,
)
from diatomic.design import _is_primitive_word, _order_of_two

from oracles import (
    grouped_runs,
    linear_order_of_two,
    long_division_design,
    quotient_block_design,
    rotating_make_periodic,
)

words = st.text(alphabet="01", max_size=12)


# --- parsing and printing ---------------------------------------------------

def test_parse_finite():
    d = parse_design("11001")
    assert isinstance(d, FiniteDesign) and not d.terminal
    assert design_number(d) == (25, 5)


def test_parse_empty_is_empty_design():
    d = parse_design("")
    assert design_number(d) == (0, 0)
    assert d.is_empty


def test_parse_terminal_uses_bit_count_as_length():
    d = parse_design("100t")
    assert d.terminal
    assert design_number(d) == (8, 3)
    assert str(d) == "100t"
    assert design_number(parse_design("t")) == (1, 0)


def test_terminal_of_rejects_a_negative_length(huge):
    for n, text in ((-1, "-1"), (-3, "-3"), (-huge, "<-20000-bit integer>")):
        with pytest.raises(OutOfRange, match=f"got {text}$"):
            FiniteDesign.terminal_of(n)
    assert FiniteDesign.terminal_of(0) == FiniteDesign("", terminal=True)


def test_terminal_of_refuses_a_word_no_string_can_hold():
    # 2**63 letters would raise MemoryError and 2**64 OverflowError; both are
    # refused before any part of the word is built
    tracemalloc.start()
    try:
        for n in (sys.maxsize + 1, 2**64):
            with pytest.raises(OutOfRange) as info:
                FiniteDesign.terminal_of(n)
            assert str(info.value) == (f"a word of more than {sys.maxsize} letters"
                                       " is too long to build")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_parse_periodic_canonicalizes_keeping_theta():
    d = parse_design("1(1001)")
    assert str(d) == "(1100)"
    assert theta_of(d) == theta_of_raw("1", "1001")


def theta_of_raw(pre: str, per: str) -> Fraction:
    # rational form of 0.pre(per)^inf, computed from scratch
    k, n = len(pre), len(per)
    mp = int(pre, 2) if pre else 0
    mpp = int(per, 2)
    return Fraction(((1 << n) - 1) * mp + mpp, (1 << k) * ((1 << n) - 1))


def test_parse_rejects_garbage():
    for bad in ("12", "1(", "1)", "()", "10(1)t", "1(01)0", "(01"):
        with pytest.raises(DesignSyntaxError):
            parse_design(bad)


def test_parse_collapses_degenerate_periods():
    assert str(parse_design("10(0)")) == "10"
    assert str(parse_design("0(1)")) == "1"
    assert str(parse_design("(1)")) == "t"
    assert str(parse_design("(010101)")) == "(01)"


@given(words)
def test_parse_print_round_trip_finite(w):
    assert str(parse_design(w)) == w


@given(words, st.text(alphabet="01", min_size=1, max_size=6))
def test_parse_print_round_trip_periodic(pre, per):
    d = make_periodic(pre, per)
    again = parse_design(str(d))
    assert again == d
    assert theta_of(d) == theta_of_raw(pre, per)


def test_direct_construction_is_validated():
    with pytest.raises(DesignSyntaxError):
        FiniteDesign("102")
    with pytest.raises(DesignSyntaxError):
        FiniteDesign("111", terminal=True)  # not the canonical placeholder
    with pytest.raises(DesignSyntaxError):
        PeriodicDesign(FiniteDesign.terminal_of(1), FiniteDesign("10"))
    from diatomic.errors import InvalidPeriod

    with pytest.raises(InvalidPeriod):
        PeriodicDesign(FiniteDesign(""), FiniteDesign("1111"))
    with pytest.raises(InvalidPeriod):
        PeriodicDesign(FiniteDesign(""), FiniteDesign("1010"))  # not primitive
    with pytest.raises(InvalidPeriod):
        PeriodicDesign(FiniteDesign("10"), FiniteDesign("10"))  # rotatable
    with pytest.raises(InvalidPeriod, match="^period must be nonempty$"):
        make_periodic("1", "")


# --- run lengths ------------------------------------------------------------

def test_runs_examples():
    assert runs(parse_design("11001")) == (2, 2, 1)
    assert runs(parse_design("0110")) == (0, 1, 2, 1, 0)
    assert runs(parse_design("")) == (0,)


def test_runs_rejects_terminal():
    with pytest.raises(TerminalDesign):
        runs(parse_design("10t"))


def test_from_runs_inverts_runs_examples():
    for w in ("11001", "0110", ""):
        assert from_runs(runs(parse_design(w))).bits == w


@given(words)
def test_runs_round_trip(w):
    ks = runs(FiniteDesign(w))
    assert len(ks) % 2 == 1
    assert all(k >= 1 for k in ks[1:-1])
    assert from_runs(ks).bits == w


ENDS = st.sampled_from(["", "0", "1", "00", "11", "01", "10"])


@st.composite
def long_words(draw):
    """Words of 0 to about 10^4 letters with both end letters forced, either
    random bits or a few runs of up to thousands of letters each."""
    head, tail = draw(ENDS), draw(ENDS)
    if draw(st.booleans()):
        n = draw(st.integers(0, 10**4))
        body = format(random.Random(draw(st.integers(0, 2**32))).getrandbits(n), "b")
        body = body.zfill(n) if n else ""
    else:
        lengths = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=4))
        body = "".join("10"[(draw(st.integers(0, 1)) + i) & 1] * k
                       for i, k in enumerate(lengths))
    return head + body + tail


@settings(max_examples=150, deadline=None)
@given(long_words())
def test_runs_match_a_groupby_splitter(w):
    assert runs(FiniteDesign(w)) == grouped_runs(w)


def test_runs_of_single_runs_match_a_groupby_splitter():
    for w in ["", "0", "1", "1" * 7000, "0" * 7000, "0" * 3000 + "1", "1" + "0" * 3000]:
        assert runs(FiniteDesign(w)) == grouped_runs(w)


def test_from_runs_rejects_malformed():
    for bad in ((), (1, 1), (1, 0, 1), (-1,), (2, 2, -1)):
        with pytest.raises(MalformedRuns):
            from_runs(bad)


def test_run_errors_name_a_huge_run_by_its_bit_length(huge):
    named = r"<tuple of length {}, items up to 20000 bits>$"
    with pytest.raises(MalformedRuns, match=r"^run list length must be odd: " + named.format(2)):
        from_runs((huge, 1))
    with pytest.raises(MalformedRuns, match=r"^negative run in " + named.format(3)):
        from_runs((1, 2, -huge))
    with pytest.raises(MalformedRuns, match=r"^interior runs must be positive: " + named.format(3)):
        from_runs((huge, 0, 1))
    with pytest.raises(MalformedRuns, match=r"^run list length must be odd: \(1, 1\)$"):
        from_runs((1, 1))
    with pytest.raises(MalformedRuns, match=r"^negative run in \(2, 2, -1\)$"):
        from_runs((2, 2, -1))
    with pytest.raises(MalformedRuns, match=r"^interior runs must be positive: \(1, 0, 1\)$"):
        from_runs((1, 0, 1))


# --- design numbers ----------------------------------------------------------

def test_design_number_examples():
    assert design_number(parse_design("101")) == (5, 3)
    assert design_number(parse_design("100t")) == (8, 3)
    assert design_number(parse_design("")) == (0, 0)


# --- Euclidean designs and quotients -----------------------------------------

def test_euclidean_design_examples():
    assert euclidean_design(7, 3).bits == "11001"
    assert euclidean_design(12, 5).bits == "110011"
    assert euclidean_design(1, 1).bits == "1"


def test_euclidean_design_rejects_bad_input():
    with pytest.raises(NotCoprime):
        euclidean_design(6, 3)
    with pytest.raises(ZeroInput):
        euclidean_design(0, 3)


def test_quotient_error_names_a_huge_quotient_by_its_bit_length(huge):
    with pytest.raises(MalformedRuns,
                       match=r"^not a quotient sequence: <tuple of length 2, items up to 20000 bits>$"):
        realizing_pair((huge, 1))
    with pytest.raises(MalformedRuns, match=r"^not a quotient sequence: \(3, 1\)$"):
        realizing_pair((3, 1))


@pytest.mark.parametrize("walk", [euclidean_design, partial_quotients])
def test_pair_errors_name_a_huge_operand_by_its_bit_length(walk, huge):
    # a decimal form past the digit limit would raise a plain ValueError
    with pytest.raises(NotCoprime, match=r"^\(<20001-bit integer>, <20001-bit integer>\) share"):
        walk(3 * huge, 3 * (huge + 2))
    with pytest.raises(ZeroInput, match=r"got \(<-20000-bit integer>, 5\)$"):
        walk(-huge, 5)
    with pytest.raises(NotCoprime, match=r"^\(6, 3\) share a factor$"):
        walk(6, 3)
    with pytest.raises(ZeroInput, match=r"^need positive integers, got \(0, 3\)$"):
        walk(0, 3)


def test_partial_quotients_examples():
    assert partial_quotients(7, 3) == (2, 3)
    assert partial_quotients(1, 1) == (1,)
    assert partial_quotients(3, 5) == (0, 1, 1, 2)


def test_quotient_shape():
    for a in range(1, 40):
        for b in range(1, 40):
            if gcd(a, b) != 1:
                continue
            rs = partial_quotients(a, b)
            assert (rs[0] == 0) == (a < b)
            assert all(r >= 1 for r in rs[1:])
            if (a, b) != (1, 1):
                assert rs[-1] >= 2
            assert realizing_pair(rs) == (a, b)


def test_euclidean_design_represents_the_pair():
    # value of the design is a, of its conjugate is b
    for a in range(1, 41):
        for b in range(1, 41):
            if gcd(a, b) != 1:
                continue
            d = euclidean_design(a, b)
            m, n = design_number(d)
            assert is_reduced(d)
            assert stern(m) == a
            assert stern((1 << n) - m) == b


def test_reduced_design_recovers_its_quotients():
    # reading quotients back off the run lengths, split on m mod 4
    for n in range(1, 11):
        for m in range(1, 1 << n, 2):
            if (m, n) == (1, 1):
                continue
            d = FiniteDesign(format(m, f"0{n}b"))
            ks = runs(d)
            if m % 4 == 3:
                rs = ks
            else:
                rs = ks[:-2] + (ks[-2] + 1,)
            a, b = realizing_pair(rs)
            assert euclidean_design(a, b) == d


def test_euclidean_design_matches_quotient_blocks():
    for a in range(1, 80):
        for b in range(1, 80):
            if gcd(a, b) == 1:
                assert euclidean_design(a, b) == quotient_block_design(a, b)


@pytest.mark.parametrize("n", [1000, 3162, 10000, 31623, 100000])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**64), swap=st.booleans())
def test_euclidean_design_matches_quotient_blocks_at_size(n, seed, swap):
    # random n-bit pairs, past the half-gcd cutoff from 10^4 bits on, and
    # now and then a pair whose first quotient is about 2^20
    rng = random.Random(seed)
    b = rng.getrandbits(n) | 1
    a = rng.getrandbits(n) if rng.random() < 0.7 else b * (rng.getrandbits(20) | 1 << 19)
    a += rng.getrandbits(n - 1) | 1
    g = gcd(a, b)
    a, b = (b // g, a // g) if swap else (a // g, b // g)
    assert euclidean_design(a, b) == quotient_block_design(a, b)


# --- conjugate / inverse / compose / reduce ----------------------------------

def test_conjugate_examples():
    assert conjugate(parse_design("11001")).bits == "00111"
    c = conjugate(parse_design("00000"))
    assert c.terminal and design_number(c) == (32, 5)
    assert str(conjugate(parse_design("(10)"))) == "(01)"
    assert conjugate(parse_design("")).terminal
    assert conjugate(parse_design("t")).is_empty


def test_conjugate_is_involution():
    rng = random.Random(3)
    for _ in range(100):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(0, 10)))
        d = FiniteDesign(w)
        assert conjugate(conjugate(d)) == d
    for pre, per in (("", "10"), ("1", "10"), ("0", "01"), ("", "1101")):
        d = make_periodic(pre, per)
        assert conjugate(conjugate(d)) == d


def test_inverse_design_examples():
    assert inverse_design(parse_design("11001")).bits == "10011"
    assert inverse_design(parse_design("1")).bits == "1"
    assert inverse_design(parse_design("0110")).bits == "0110"


def test_inverse_design_involution_and_value():
    rng = random.Random(5)
    for _ in range(200):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(0, 12)))
        d = FiniteDesign(w)
        assert inverse_design(inverse_design(d)) == d
        m, n = design_number(d)
        mi, ni = design_number(inverse_design(d))
        assert ni == n
        assert stern(m) == stern(mi)


def test_compose_examples():
    assert compose(parse_design("10"), parse_design("101")).bits == "10101"
    d = parse_design("1100")
    assert compose(d, parse_design("")) == d
    out = compose(parse_design("11"), FiniteDesign.terminal_of(2))
    assert out.terminal and design_number(out) == (16, 4)
    padded = compose(parse_design("10"), FiniteDesign.terminal_of(2))
    assert padded.bits == "1100"


def test_compose_design_number_law():
    rng = random.Random(9)
    for _ in range(100):
        w1 = "".join(rng.choice("01") for _ in range(rng.randrange(0, 8)))
        w2 = "".join(rng.choice("01") for _ in range(rng.randrange(0, 8)))
        m, n = design_number(FiniteDesign(w1))
        m2, n2 = design_number(FiniteDesign(w2))
        out = compose(FiniteDesign(w1), FiniteDesign(w2))
        assert design_number(out) == ((m << n2) + m2, n + n2)


def test_compose_theta_law_periodic():
    d = parse_design("110")
    p = parse_design("0(01)")
    out = compose(d, p)
    assert theta_of(out) == theta_of(d) + Fraction(theta_of(p), 1 << 3)


def test_compose_associative():
    rng = random.Random(13)
    for _ in range(60):
        ws = [
            FiniteDesign("".join(rng.choice("01") for _ in range(rng.randrange(0, 6))))
            for _ in range(3)
        ]
        assert compose(compose(ws[0], ws[1]), ws[2]) == compose(
            ws[0], compose(ws[1], ws[2])
        )


def test_terminal_inputs_are_rejected_where_undefined():
    term = FiniteDesign.terminal_of(2)
    with pytest.raises(TerminalDesign):
        reduce(term)
    with pytest.raises(TerminalDesign):
        compose(term, parse_design("10"))
    with pytest.raises(TerminalDesign):
        inverse_design(term)


def test_reduce_examples():
    assert reduce(parse_design("10100")).bits == "101"
    assert reduce(parse_design("101")).bits == "101"
    assert reduce(parse_design("0000")).is_empty
    assert theta_of(reduce(parse_design("10100"))) == theta_of(parse_design("10100"))


def test_reduced_and_primitive_predicates():
    assert is_primitive(parse_design("110011"))
    assert not is_primitive(parse_design("10t")) and not is_primitive(parse_design(""))
    d = parse_design("0101")
    assert is_reduced(d) and not is_primitive(d)
    assert is_reduced(parse_design(""))
    assert is_reduced(parse_design("t"))
    assert not is_reduced(parse_design("10t"))


# --- theta <-> design --------------------------------------------------------

def test_theta_examples():
    assert theta_of(parse_design("101")) == Fraction(5, 8)
    assert theta_of(parse_design("(10)")) == Fraction(2, 3)
    assert theta_of(parse_design("(1001)")) == Fraction(3, 5)
    assert theta_of(parse_design("100t")) == 1


def test_design_of_theta_examples():
    assert str(design_of_theta(Fraction(5, 8))) == "101"
    assert str(design_of_theta(Fraction(2, 3))) == "(10)"
    assert str(design_of_theta(Fraction(3, 5))) == "(1001)"
    assert design_of_theta(Fraction(0)).is_empty
    assert design_of_theta(Fraction(1)).terminal


@given(st.fractions(min_value=0, max_value=1, max_denominator=400))
@settings(max_examples=300)
def test_theta_round_trip_all_rationals(t):
    assert theta_of(design_of_theta(t)) == t


def test_design_round_trip_on_canonical_designs():
    rng = random.Random(17)
    for _ in range(150):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(0, 9)))
        d = FiniteDesign(w.rstrip("0"))  # reduced representative
        assert design_of_theta(theta_of(d)) == d
    for _ in range(150):
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
        per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 6)))
        d = make_periodic(pre, per)
        if isinstance(d, PeriodicDesign):
            assert design_of_theta(theta_of(d)) == d


# --- canonicalisation against long division and one-bit rotations ----------

@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 8), data=st.data())
def test_design_of_theta_matches_long_division(k, data):
    # denominators up to 10^5, with 2-parts up to 2^8
    odd = data.draw(st.integers(1, ((10**5 >> k) - 1) // 2)) * 2 + 1
    q = odd << k
    t = Fraction(data.draw(st.integers(1, q - 1)), q)
    assume(t.denominator & (t.denominator - 1))
    assert design_of_theta(t) == long_division_design(t)


def test_design_of_theta_matches_long_division_near_the_top():
    for q in (99991, 3 * 2**15, 99999, 2**4 * 6247):
        for a in (1, 2, q // 3, q - 1):
            t = Fraction(a, q)
            assert design_of_theta(t) == long_division_design(t)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 8), data=st.data())
def test_design_of_theta_skips_only_checks_that_cannot_fail(k, data):
    # the period of a/(2^k q') is built primitive and mixed, so the public
    # constructor accepts the pair and make_periodic leaves it as it is
    odd = data.draw(st.integers(1, ((10**5 >> k) - 1) // 2)) * 2 + 1
    q = odd << k
    t = Fraction(data.draw(st.integers(1, q - 1)), q)
    assume(t.denominator & (t.denominator - 1))
    d = design_of_theta(t)
    assert PeriodicDesign(d.preperiod, d.period) == d
    assert make_periodic(d.preperiod.bits, d.period.bits) == d


# --- the order of 2 by baby steps and giant steps ------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, (10**6 - 1) // 2))
def test_order_of_two_matches_linear_loop(h):
    q = 2 * h + 1
    assert _order_of_two(q) == linear_order_of_two(q)


def test_order_of_two_on_every_small_odd_modulus():
    for q in range(1, 4001, 2):
        assert _order_of_two(q) == linear_order_of_two(q)


@pytest.mark.parametrize("q, n", [
    (1, 1), (3, 2), (1000003, 1000002),
    # orders far below isqrt(q): the baby steps must stop when 2^j = 1
    (2**61 - 1, 61), (2**89 - 1, 89), (3 * (2**61 - 1), 122),
])
def test_order_of_two_fixed_cases(q, n):
    assert _order_of_two(q) == n == linear_order_of_two(q)


def test_design_of_theta_at_a_mersenne_prime():
    d = design_of_theta(Fraction(1, 2**127 - 1))
    assert d.preperiod.is_empty and d.period.bits == "0" * 126 + "1"


def _periodic_tail(per, length):
    """The last `length` bits of per repeated leftwards."""
    ext = per * (length // len(per) + 1)
    return ext[len(ext) - length:]


@settings(max_examples=300, deadline=None)
@given(head=st.text(alphabet="01", max_size=30),
       root=st.text(alphabet="01", min_size=1, max_size=8),
       reps=st.integers(1, 5), tail=st.integers(0, 40))
def test_make_periodic_matches_rotating_oracle(head, root, reps, tail):
    # periods that repeat a shorter word, preperiods that end in many
    # rotations of it (more than one full period when tail > len(per))
    per = root * reps
    pre = head + _periodic_tail(per, tail)
    assert make_periodic(pre, per) == rotating_make_periodic(pre, per)


def test_make_periodic_rotates_past_a_full_period():
    assert str(make_periodic("0110110", "110")) == "(011)"
    assert str(make_periodic("10110110", "110")) == "(101)"
    assert str(make_periodic("00110110", "110110")) == "0(011)"
    for pre, per in (("0110110", "110"), ("1" + "01" * 9, "0101"), ("0" + "011" * 5, "011011")):
        assert make_periodic(pre, per) == rotating_make_periodic(pre, per)


@st.composite
def bit_words(draw, lo, hi):
    n = draw(st.integers(lo, hi))
    return format(draw(st.integers(0, (1 << n) - 1)), f"0{n}b") if n else ""


@st.composite
def raw_pairs(draw):
    """(pre, per) of up to 4,000 bits each: single-letter and repeated roots,
    preperiods that end in up to two periods' worth of rotatable bits."""
    root = draw(st.sampled_from(["0", "1"]) | bit_words(1, 1000))
    per = root * draw(st.integers(1, 4000 // len(root)))
    head = draw(bit_words(0, 1000))
    tail = draw(st.integers(0, min(2 * len(per), 4000 - len(head))))
    return head + _periodic_tail(per, tail), per


@settings(max_examples=60, deadline=None)
@given(raw_pairs())
def test_make_periodic_output_passes_the_public_checks(pair):
    # make_periodic skips PeriodicDesign's checks on its own output
    d = make_periodic(*pair)
    if isinstance(d, PeriodicDesign):
        assert PeriodicDesign(d.preperiod, d.period) == d
    else:
        assert len(set(pair[1])) == 1


@settings(max_examples=60, deadline=None)
@given(raw_pairs())
def test_conjugate_of_a_periodic_design_passes_the_public_checks(pair):
    # conjugate skips PeriodicDesign's checks on the flipped design
    d = make_periodic(*pair)
    assume(isinstance(d, PeriodicDesign))
    c = conjugate(d)
    assert PeriodicDesign(c.preperiod, c.period) == c
    assert theta_of(c) == 1 - theta_of(d)
    assert conjugate(c) == d


def test_primitive_word_check_matches_divisor_loop():
    for n in range(2, 13):
        for m in range(1, (1 << n) - 1):
            w = format(m, f"0{n}b")
            assert _is_primitive_word(w) == (rotating_make_periodic("", w).period.bits == w)


# --- primitive designs count -------------------------------------------------

def test_every_small_primitive_design_is_euclidean():
    # closes the coprime-pair <-> primitive-design bijection on small lengths
    for n in range(1, 11):
        for m in range((1 << (n - 1)) | 1, 1 << n, 2):
            d = FiniteDesign(format(m, f"0{n}b"))
            assert is_primitive(d)
            a = stern(m)
            b = stern((1 << n) - m)
            assert b <= a and gcd(a, b) == 1
            assert euclidean_design(a, b) == d
