import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diatomic import (
    ExtRational,
    FiniteDesign,
    cf_eval,
    cf_product_decomposition,
    continuant,
    design_number,
    euclidean_design,
    inverse_design,
    runs,
    sdi_corner_continuants,
    sdi_quadruple,
    stern,
)
from diatomic.errors import MalformedRuns

from oracles import det_continuant, leibniz_det, tridiagonal

entries = st.lists(st.integers(min_value=0, max_value=6), max_size=8)
pos_entries = st.lists(st.integers(min_value=1, max_value=6), max_size=8)


def test_base_values():
    assert continuant([]) == 1
    assert continuant([2, 2, 1]) == 7
    assert continuant([1, 1, 1, 1]) == 5


@pytest.mark.parametrize("ks", [
    [1.5],
    [2, 1.0],
    [Fraction(1, 2)],
    [Fraction(2), 3, 0],
    ["2"],
    [1] * 2000 + [0.5],  # past the float range
    [0.5] + [1] * 4000,  # long enough for the product tree
    [Fraction(3)] + [1] * 4000,
])
def test_continuant_rejects_non_integer_entries(ks):
    with pytest.raises(MalformedRuns, match="^continuant entries must be integers$"):
        continuant(ks)


@pytest.mark.parametrize("x", ["a", [0], (0,), b"a"], ids=["str", "list", "tuple", "bytes"])
def test_a_sequence_entry_is_refused_before_it_is_repeated(x):
    # an int times a sequence repeats it: the fold would build a copy as
    # long as the continuant before the entry, F(31) = 1,346,269 items here
    ks = [1] * 30 + [x]
    tracemalloc.start()
    try:
        with pytest.raises(MalformedRuns, match="^continuant entries must be integers$"):
            continuant(ks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@given(entries)
def test_matches_determinant_oracle(ks):
    assert continuant(ks) == det_continuant(ks)


def test_determinant_oracle_matches_the_leibniz_expansion():
    for n in range(6):
        for ks in product(range(4), repeat=n):
            assert det_continuant(ks) == leibniz_det(tridiagonal(ks))


@given(entries)
def test_reversal_symmetry(ks):
    assert continuant(ks) == continuant(ks[::-1])


@given(st.integers(min_value=0, max_value=6), entries)
def test_head_expansion(x0, rest):
    ks = [x0] + rest
    if len(ks) >= 2:
        assert continuant(ks) == x0 * continuant(ks[1:]) + continuant(ks[2:])


@given(entries)
def test_trailing_one_absorbs(ks):
    if ks:
        assert continuant(ks + [1]) == continuant(ks[:-1] + [ks[-1] + 1])


@given(entries)
def test_leading_one_absorbs(ks):
    if ks:
        assert continuant([1] + ks) == continuant([1 + ks[0]] + ks[1:])


@given(entries)
def test_trailing_zero_deletes(ks):
    if len(ks) >= 1:
        assert continuant(ks + [0]) == continuant(ks[:-1])


@given(entries)
def test_leading_zero_deletes(ks):
    if len(ks) >= 1:
        assert continuant([0] + ks) == continuant(ks[1:])


@given(entries, st.integers(min_value=0, max_value=6))
def test_last_entry_shift(ks, x):
    if ks:
        shifted = ks[:-1] + [ks[-1] + x]
        assert continuant(shifted) == continuant(ks[:-1]) * x + continuant(ks)


def test_cf_eval_examples():
    assert cf_eval((2, 3)) == ExtRational(7, 3)
    assert cf_eval((0,)) == ExtRational(0)
    assert cf_eval((5, 0)).is_infinite
    assert cf_eval((2, 0)).is_infinite


def test_cf_eval_rejects_interior_zero():
    with pytest.raises(MalformedRuns):
        cf_eval((1, 0, 1))
    with pytest.raises(MalformedRuns):
        cf_eval(())


def test_cf_word_error_names_a_huge_entry_by_its_bit_length(huge):
    with pytest.raises(MalformedRuns, match=r"^bad continued fraction word "
                       r"<tuple of length 3, items up to 20000 bits>$"):
        cf_eval((huge, 0, 1))
    with pytest.raises(MalformedRuns, match=r"^bad continued fraction word \(1, 0, 1\)$"):
        cf_eval((1, 0, 1))


def test_continuant_of_runs_examples():
    # the table value of a design is the continuant of its run encoding
    assert runs(FiniteDesign("11001")) == (2, 2, 1) and continuant((2, 2, 1)) == 7
    assert runs(FiniteDesign("")) == (0,) and continuant((0,)) == 0
    for n in range(1, 8):
        assert runs(FiniteDesign("1" + "0" * n)) == (1, n, 0) and continuant((1, n, 0)) == 1


def test_continuant_of_runs_matches_table():
    for n in range(9):
        for m in range(1 << n):
            d = FiniteDesign(format(m, f"0{n}b") if n else "")
            assert continuant(runs(d)) == stern(m)


def _reorder(quad):
    # corner order (value, mirror, successor, mirror-of-successor)
    q1, q2, q3, q4 = quad
    return q2, q4, q1, q3


def test_corner_continuants_examples():
    assert sdi_corner_continuants((2, 2, 1)) == (7, 3, 5, 2)
    assert sdi_corner_continuants((4,)) == (4, 1, 1, 0)
    assert sdi_corner_continuants((1, 1, 1)) == (3, 2, 2, 1)
    assert sdi_corner_continuants((1, 1, 1)) == _reorder(sdi_quadruple(3, 5))


def test_corner_continuants_match_quadruple():
    for n in range(9):
        for m in range(1 << n):
            d = FiniteDesign(format(m, f"0{n}b") if n else "")
            assert sdi_corner_continuants(runs(d)) == _reorder(sdi_quadruple(n, m))


def test_value_ratio_is_the_continued_fraction():
    for n in range(1, 11):
        for m in range(1, 1 << n, 2):
            d = FiniteDesign(format(m, f"0{n}b"))
            ratio = ExtRational(stern(m), stern((1 << n) - m))
            assert cf_eval(runs(d)) == ratio


def test_reversed_runs_preserve_value():
    for n in range(1, 11):
        for m in range(1 << n):
            d = FiniteDesign(format(m, f"0{n}b"))
            mi, _ = design_number(inverse_design(d))
            assert stern(m) == stern(mi)


def test_end_run_inequalities():
    # leading run nonempty iff value >= mirror; trailing iff value >= successor
    for n in range(1, 11):
        top = 1 << n
        for m in range(top):
            ks = runs(FiniteDesign(format(m, f"0{n}b")))
            assert (ks[0] >= 1) == (stern(m) >= stern(top - m))
            assert (ks[-1] >= 1) == (stern(m) >= stern(m + 1))


def test_ratio_uniquely_determines_reduced_design():
    # distinct (odd m, n) addresses never share a value ratio
    seen = {}
    for n in range(1, 13):
        top = 1 << n
        for m in range(1, top, 2):
            ratio = (Fraction(stern(m), stern(top - m)))
            assert ratio not in seen, (seen[ratio], (m, n))
            seen[ratio] = (m, n)
    # and every coprime pair's Euclidean address carries its ratio
    from math import gcd

    for a in range(1, 41):
        for b in range(1, 41):
            if gcd(a, b) == 1:
                m, n = design_number(euclidean_design(a, b))
                assert Fraction(stern(m), stern((1 << n) - m)) == Fraction(a, b)


def test_tail_product_decomposition():
    tails = cf_product_decomposition((1, 1))
    assert tails == [ExtRational(2), ExtRational(1)]
    tails = cf_product_decomposition((2, 2, 1))
    assert tails == [ExtRational(7, 3), ExtRational(3), ExtRational(1)]
    assert cf_product_decomposition((2, 2, 0)) == [ExtRational(2)]


def test_tail_product_random_words():
    rng = random.Random(23)
    for _ in range(200):
        ks = [rng.randrange(0, 5)] + [rng.randrange(1, 5) for _ in range(rng.randrange(0, 6))]
        if len(ks) == 1 and ks[0] == 0:
            ks[0] = 1
        tails = cf_product_decomposition(tuple(ks))
        prod = Fraction(1)
        for t in tails:
            prod *= Fraction(t.num, t.den)
        assert prod == continuant(ks)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64), length=st.integers(1, 2000),
       zero_head=st.booleans(), zero_tail=st.booleans())
def test_tail_pairs_telescope_to_the_continuant(seed, length, zero_head, zero_tail):
    # tail j is K(ks[j:]) / K(ks[j+1:]), so each denominator is the next
    # numerator, the first numerator is K(ks) and the last denominator K(()):
    # the product telescopes without being formed
    rng = random.Random(seed)
    ks = [rng.randrange(1, 1 << rng.randrange(1, 12)) for _ in range(length)]
    if zero_head and length > 1:
        ks[0] = 0
    kept = ks
    if zero_tail and length > 1:  # a trailing 0 truncates by two entries
        ks, kept = ks + [0], ks[:-1]
    tails = cf_product_decomposition(ks)
    assert len(tails) == len(kept)
    assert all(t.den == u.num for t, u in zip(tails, tails[1:]))
    assert tails[0].num == continuant(ks) == continuant(kept)
    assert tails[-1].den == 1
    for j in {0, len(kept) - 1, *(rng.randrange(len(kept)) for _ in range(3))}:
        assert tails[j] == cf_eval(kept[j:])


def test_tail_product_rejects_short_zero_tail():
    with pytest.raises(MalformedRuns):
        cf_product_decomposition((0,))
    with pytest.raises(MalformedRuns):
        cf_product_decomposition((3, 0))


def test_tail_error_names_a_huge_entry_by_its_bit_length(huge):
    with pytest.raises(MalformedRuns, match=r"^no tail decomposition for "
                       r"<tuple of length 2, items up to 20000 bits>$"):
        cf_product_decomposition((huge, 0))
    with pytest.raises(MalformedRuns, match=r"^no tail decomposition for \(3, 0\)$"):
        cf_product_decomposition((3, 0))
