import random

import pytest

from diatomic import (
    ExtRational,
    FiniteDesign,
    UniModMatrix,
    apply_mobius,
    compose,
    design_of_matrix,
    matrix_symmetries,
    parse_design,
    parse_matrix,
    sdi_quadruple,
    sdm,
)
from diatomic.errors import NegativeEntry, NotUnimodular, TerminalDesign

from oracles import word_symmetries


def rand_word(rng, lo=0, hi=12):
    return "".join(rng.choice("01") for _ in range(rng.randrange(lo, hi)))


def test_sdm_examples():
    assert sdm(parse_design("")) == UniModMatrix(1, 0, 0, 1)
    assert sdm(parse_design("10")) == UniModMatrix(2, 1, 1, 1)
    assert sdm(parse_design("10101")) == UniModMatrix(5, 8, 3, 5)


def test_sdm_entries_are_the_table_quadruple():
    rng = random.Random(31)
    for _ in range(300):
        w = rand_word(rng)
        d = FiniteDesign(w)
        assert sdm(d).entries() == sdi_quadruple(len(w), d.number)


def test_sdm_rejects_terminal():
    with pytest.raises(TerminalDesign):
        sdm(FiniteDesign.terminal_of(3))
    with pytest.raises(TerminalDesign):
        matrix_symmetries(FiniteDesign.terminal_of(3))


def test_matrix_validation():
    with pytest.raises(NotUnimodular):
        UniModMatrix(2, 2, 1, 1)
    with pytest.raises(NegativeEntry):
        UniModMatrix(2, -1, 1, 0)
    with pytest.raises(NotUnimodular):
        parse_matrix("1,2;1,2")


def test_matrix_errors_name_a_huge_entry_by_its_bit_length(huge):
    with pytest.raises(NotUnimodular, match=r"^determinant of \(<20000-bit integer>, 1, 1, 1\) is"):
        UniModMatrix(huge, 1, 1, 1)
    with pytest.raises(NegativeEntry, match=r"^negative entry in \(1, <-20000-bit integer>, 0, 1\)$"):
        UniModMatrix(1, -huge, 0, 1)
    with pytest.raises(NotUnimodular, match=r"^determinant of \(2, 2, 1, 1\) is not 1$"):
        UniModMatrix(2, 2, 1, 1)
    with pytest.raises(NegativeEntry, match=r"^negative entry in \(2, -1, 1, 0\)$"):
        UniModMatrix(2, -1, 1, 0)


def test_design_of_matrix_examples():
    assert design_of_matrix(parse_matrix("5,7;2,3")).bits == "11001"
    assert design_of_matrix(parse_matrix("8,3;5,2")).bits == "10100"
    for c in range(6):
        assert design_of_matrix(UniModMatrix(1, 0, c, 1)).bits == "0" * c
    assert design_of_matrix(UniModMatrix(1, 0, 0, 1)).is_empty


def test_round_trip_all_words_up_to_ten():
    for n in range(11):
        for m in range(1 << n):
            w = format(m, f"0{n}b") if n else ""
            assert design_of_matrix(sdm(FiniteDesign(w))).bits == w


def test_round_trip_random_long_words():
    rng = random.Random(37)
    for _ in range(200):
        w = rand_word(rng, 0, 21)
        assert design_of_matrix(sdm(FiniteDesign(w))).bits == w


def test_word_concatenation_is_matrix_product():
    rng = random.Random(41)
    for _ in range(200):
        w1, w2 = rand_word(rng), rand_word(rng)
        d1, d2 = FiniteDesign(w1), FiniteDesign(w2)
        assert sdm(compose(d1, d2)) == sdm(d1) * sdm(d2)


def test_product_example():
    assert sdm(parse_design("10")) * sdm(parse_design("101")) == UniModMatrix(5, 8, 3, 5)


def test_generator_powers():
    for n in range(13):
        assert sdm(FiniteDesign("0" * n)) == UniModMatrix(1, 0, n, 1)
        assert sdm(FiniteDesign("1" * n)) == UniModMatrix(1, n, 0, 1)


def test_column_dominance_dichotomy():
    # stated for every matrix other than the identity
    rng = random.Random(43)
    for _ in range(300):
        m = sdm(FiniteDesign(rand_word(rng, lo=1)))
        assert (m.a >= m.b and m.c >= m.d) or (m.a <= m.b and m.c <= m.d)


def test_mobius_examples():
    ident = UniModMatrix(1, 0, 0, 1)
    x = ExtRational(5, 3)
    assert apply_mobius(ident, x) == x
    assert apply_mobius(UniModMatrix(2, 1, 1, 1), ExtRational.infinity()) == ExtRational(2)
    assert apply_mobius(UniModMatrix(2, 3, 1, 2), ExtRational(3)) == ExtRational(9, 5)


def test_mobius_is_a_monoid_action():
    rng = random.Random(47)
    for _ in range(200):
        m1 = sdm(FiniteDesign(rand_word(rng)))
        m2 = sdm(FiniteDesign(rand_word(rng)))
        x = ExtRational(rng.randrange(0, 30), rng.randrange(1, 30))
        assert apply_mobius(m1 * m2, x) == apply_mobius(m1, apply_mobius(m2, x))
    assert apply_mobius(m1 * m2, ExtRational.infinity()) == apply_mobius(
        m1, apply_mobius(m2, ExtRational.infinity())
    )


def test_symmetry_permutations():
    rng = random.Random(53)
    cases = ["11001", "1", "0", "10", ""] + [rand_word(rng) for _ in range(100)]
    cases += [rand_word(rng, 100, 400) for _ in range(20)]
    for w in cases:
        d = FiniteDesign(w)
        assert matrix_symmetries(d) == word_symmetries(d)


def test_to_design_inverts_word_construction():
    # peel result of an arbitrary generator product reproduces the word
    rng = random.Random(59)
    for _ in range(200):
        w = rand_word(rng, 0, 21)
        m = UniModMatrix(1, 0, 0, 1)
        for ch in w:
            m = m * (UniModMatrix(1, 1, 0, 1) if ch == "1" else UniModMatrix(1, 0, 1, 1))
        assert design_of_matrix(m).bits == w
