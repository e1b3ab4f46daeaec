"""The four integer kernels against independent routes on seeded random
inputs: the sequence by its recurrence table, the matrix product by
explicit generator multiplication, and continuants by determinant
expansion."""

import random

import pytest

from diatomic._backend import continuant_pair, matrix_word, stern_pair, word_matrix
from diatomic.matrix import UniModMatrix
from oracles import det_continuant, stern_table

GENERATORS = {"1": UniModMatrix(1, 1, 0, 1), "0": UniModMatrix(1, 0, 1, 1)}


def test_stern_pair_consecutive():
    for m in range(2000):
        a, b = stern_pair(m)
        a2, _ = stern_pair(m + 1)
        assert b == a2


def test_stern_pair_matches_recurrence():
    rng = random.Random(101)
    table = stern_table((1 << 16) + 1)
    for _ in range(500):
        m = rng.randrange(0, 1 << rng.randrange(1, 17))
        assert stern_pair(m) == (table[m], table[m + 1])


def test_word_matrix_is_generator_product_and_peels_back():
    rng = random.Random(101)
    for _ in range(300):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(0, 40)))
        product = UniModMatrix.identity()
        for ch in w:
            product = product * GENERATORS[ch]
        mat = word_matrix(w)
        assert mat == product.entries()
        assert matrix_word(*mat) == w


def test_continuant_pair_matches_determinant():
    rng = random.Random(101)
    for _ in range(300):
        ks = [rng.randrange(0, 9) for _ in range(rng.randrange(0, 8))]
        prev = det_continuant(ks[:-1]) if ks else 0
        assert continuant_pair(ks) == (prev, det_continuant(ks))


def test_matrix_word_reports_stalled_peel():
    with pytest.raises(ValueError):
        matrix_word(0, 1, 1, 0)
    with pytest.raises(ValueError):
        matrix_word(3, 0, 0, 1)


def test_no_overflow_at_large_magnitude():
    m = (1 << 300) + (1 << 150) + 1
    a, b = stern_pair(m)
    assert a > 0 and b > 0
    prev, cur = continuant_pair([10 ** 20] * 20)
    assert cur > 10 ** 390
