"""The four integer kernels against independent routes on seeded random
inputs: the sequence by its recurrence table, the matrix product by
explicit generator multiplication, and continuants by determinant
expansion.  Property tests then hold the product trees and the pair walk
with its half-gcd rounds to the one-letter-at-a-time loops in oracles.py,
at sizes on both sides of every cutoff in diatomic._backend, and the
public values read off the kernels (assembly values, table quadruples,
quotient pairs, continued fractions) to the same loops and folds at the
same sizes."""

import importlib
import math
import random
import sys
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diatomic import (
    ExtRational,
    _backend,
    assembly_dyadic,
    assembly_inverse,
    cf_eval,
    design_of_matrix,
    euclidean_design,
    realizing_pair,
    sdi_quadruple,
)
from diatomic._backend import continuant_pair, matrix_word, stern_pair, word_matrix
from diatomic.errors import OutOfRange
from diatomic.matrix import UniModMatrix
from oracles import (
    det_continuant,
    folded_cf_eval,
    folded_realizing_pair,
    greedy_matrix_word,
    linear_continuant_pair,
    linear_stern_pair,
    linear_word_matrix,
    lsb_fusc,
    monoid_matrix,
    scalar_peel,
    stern_table,
)

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
        product = UniModMatrix(1, 0, 0, 1)
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
    # singular matrices, the zero matrix among them, raise rather than loop
    for bad in [(0, 1, 1, 0), (3, 0, 0, 1), (1, 1, 1, 1), (2, 2, 1, 1), (0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            matrix_word(*bad)


def test_no_overflow_at_large_magnitude():
    m = (1 << 300) + (1 << 150) + 1
    a, b = stern_pair(m)
    assert a > 0 and b > 0
    prev, cur = continuant_pair([10 ** 20] * 20)
    assert cur > 10 ** 390


# ------------------------------------------------- across the cutoffs
#
# Each size list straddles the cutoffs in diatomic._backend, and the word
# sizes a whole number of tree leaves, one letter short of it and one past
# it; hypothesis draws the seed of the random input, a few examples per size.

LEAF, WORD, ROW = _backend._LEAF_BITS, 8 * _backend._WORD_BYTES, 8 * _backend._ROW_BYTES
LEAF_ITEMS, ITEMS = _backend._LEAF_ITEMS, _backend._CONT_ITEMS
# 159, 160, 161 and 327 are a leaf and a part of one, and 2 leaves and a part.
WORD_SIZES = [1, WORD - 1, WORD, WORD + 1, LEAF - 1, LEAF, LEAF + 1, 159, 160, 161, 327,
              3 * LEAF + 5, 6 * LEAF - 1, 6 * LEAF, 6 * LEAF + 1, 12 * LEAF + 7, 5000, 30000]
ITEM_COUNTS = [1, LEAF_ITEMS, LEAF_ITEMS + 1, ITEMS - 1, ITEMS, ITEMS + 1,
               3 * ITEMS + 11, 10000]
# Random words of these lengths have largest entries on both sides of the
# half-gcd cutoff (about 0.57 entry bits per letter).
ROUND_TRIP_SIZES = [2000, 3500, 3700, 7000, 7400, 8000, 12000, 30000, 100000]
SEEDS = st.integers(0, 2**64)


def few(n):
    return settings(max_examples=n, deadline=None)


def random_bits(rng, n):
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


@pytest.mark.parametrize("n", WORD_SIZES)
@few(4)
@given(seed=SEEDS)
def test_stern_pair_matches_linear_loop(n, seed):
    m = random.Random(seed).getrandbits(n) | (1 << n >> 1)  # exactly n bits
    assert stern_pair(m) == linear_stern_pair(m)


@pytest.mark.parametrize("n", WORD_SIZES)
@few(4)
@given(seed=SEEDS)
def test_word_matrix_matches_linear_loop(n, seed):
    w = random_bits(random.Random(seed), n)
    assert word_matrix(w) == linear_word_matrix(w)


@pytest.mark.parametrize("n", ITEM_COUNTS)
@few(4)
@given(seed=SEEDS)
def test_continuant_pair_matches_linear_loop(n, seed):
    # mostly short runs, some zeros and negatives, now and then a 64-bit item
    rng = random.Random(seed)
    pool = [0, 1, 1, 1, 2, 3, 7, -1, -5]
    ks = [rng.getrandbits(64) if rng.random() < 0.01 else rng.choice(pool) for _ in range(n)]
    assert continuant_pair(ks) == linear_continuant_pair(ks)


@pytest.mark.parametrize("n", ROUND_TRIP_SIZES)
@few(2)
@given(seed=SEEDS)
def test_matrix_word_inverts_word_matrix(n, seed):
    w = random_bits(random.Random(seed), n)
    mat = word_matrix(w)
    assert matrix_word(*mat) == w
    if n <= 12000:
        assert matrix_word(*mat) == greedy_matrix_word(*mat)


def run_heavy_words():
    rng = random.Random(7)
    yield "1" * 30000
    yield "0" * 30000
    yield "10" * 15000
    yield "01" * 15000
    yield "110" * 6000
    for run in (40, 3000, 20000):
        for ch in "01":
            yield random_bits(rng, 9000) + ch * run + random_bits(rng, 9000)
    yield random_bits(rng, 12000) + "1" * 5000 + random_bits(rng, 64) + "0" * 5000
    # runs past 2^16 letters, which the pair walk takes in one division
    yield "01" + "1" * 70000 + "0" * 70000 + "10"
    yield random_bits(rng, 9000) + "0" * 70000 + "1" * 70000 + random_bits(rng, 9000)


@pytest.mark.parametrize("w", list(run_heavy_words()), ids=lambda w: f"{w[:2]}-{len(w)}")
def test_matrix_word_inverts_run_heavy_words(w):
    assert matrix_word(*word_matrix(w)) == w


@few(60)
@given(n=st.integers(0, 1500), seed=SEEDS)
def test_half_gcd_peel_below_its_cutoff(n, seed):
    # The half-gcd route, forced where the pair walk would go letter by
    # letter: pairs from a few bits up to past its own base-peel size.
    rng = random.Random(seed)
    w = random_bits(rng, n)
    if n and rng.random() < 0.3:
        i = rng.randrange(n)
        w = w[:i] + rng.choice("01") * rng.randrange(1, 400) + w[i:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_backend, "_HGCD_BITS", 0)
        assert matrix_word(*word_matrix(w)) == w


def test_lift_check_trims_prefixes_that_overshoot(monkeypatch):
    # Base peels that go past their safe floor make lifted prefixes overshoot
    # the path; the exact positivity check must trim them back.
    peel = _backend._peel

    def overshooting_peel(x, y, floor):
        return peel(x, y, 1 << (floor.bit_length() // 3))

    monkeypatch.setattr(_backend, "_peel", overshooting_peel)
    monkeypatch.setattr(_backend, "_HGCD_BITS", 0)
    rng = random.Random(13)
    for n in (600, 1500, 5000, 20000):
        w = random_bits(rng, n)
        assert matrix_word(*word_matrix(w)) == w


def test_a_lift_trimmed_to_no_run_ends_the_half_gcd():
    # A 245,573-letter run between random words: one half-gcd round lifts a
    # prefix that the positivity check trims down to no run at all, which
    # ends the half-gcd, and the pair walk reads the rest of the path.
    rng = random.Random(2)
    w = random_bits(rng, 10377) + "1" * 245573 + random_bits(rng, 1084)
    assert matrix_word(*word_matrix(w)) == w


def test_matrix_word_rejects_big_non_monoid_matrices():
    a, b, c, d = word_matrix(random_bits(random.Random(11), 20000))
    assert max(a, b, c, d).bit_length() > _backend._HGCD_BITS
    k = b // a + 1  # M (1 -k; 0 1) keeps determinant 1 but makes an entry negative
    for bad in [(2 * a, 2 * b, c, d),  # determinant 2
                (b, a, d, c),  # determinant -1
                (a, b - k * a, c, d - k * c),
                (-a, b, c, d)]:
        with pytest.raises(ValueError):
            matrix_word(*bad)


def test_each_slot_ends_in_its_byte_and_each_byte_owns_a_slot():
    # Slot u holds the pairs with u <= 2**12 x / (x + y) < u + 1, so it ends
    # at x/y = (u + 1) / (2**12 - 1 - u); byte v's matrix (a b; c d) spans
    # b/d < x/y <= a/c.  The slot holds the byte whose span holds its end.
    slots = _backend._SLOTS
    assert len(slots) == 1 << 12
    for u, v in enumerate(slots):
        a, b, c, d = _backend._BYTE_MATRICES[v]
        end = Fraction(u + 1, 4095 - u) if u < 4095 else math.inf
        assert Fraction(b, d) < end <= (Fraction(a, c) if c else math.inf)
    assert sorted(set(slots)) == list(range(256))


def _pairs_beside_byte_ends():
    # g (a, c) + (1, 0) lies just above the end a/c of byte v, where the path
    # starts with byte v + 1, and g (a, c) - (1, 0) just below it, where it
    # starts with byte v.  Both pairs most often share a slot, whose guess
    # then fails on one side: there a run step must take over.
    g = 1 << 20
    for v in range(1, 255):
        a, _, c, _ = _backend._BYTE_MATRICES[v]
        yield g * a + 1, g * c, v + 1
        yield g * a - 1, g * c, v


def test_a_pair_beside_a_byte_end_starts_with_that_byte():
    # The peel, at floor 2**10 and at 1, matches the scalar peel in joined
    # word, matrix and end pair.  At floor 1, which the peel does not stop
    # short of, that word starts with the byte beside the end, whichever
    # step took its letters.
    for x, y, first in _pairs_beside_byte_ends():
        for floor in (1 << 10, 1):
            chunks, mat, *end = _backend._peel(x, y, floor)
            runs, want_mat, *want_end = scalar_peel(x, y, floor)
            assert ("".join(chunks), mat, end) == ("".join(runs), want_mat, want_end)
        assert "".join(chunks).startswith(_backend._BYTE_WORDS[first])


def test_the_walk_reads_the_byte_beside_a_byte_end():
    # The same pairs through the pair walk.  At floor 1 the scalar peel
    # spells the whole path of the reduced pair, to (d, d), which the walk
    # must spell too, starting with the byte beside the end; the paths have
    # runs of about 2**20 letters, too long for greedy_matrix_word.
    for x, y, first in _pairs_beside_byte_ends():
        runs, _, *end = scalar_peel(x, y, 1)
        d = math.gcd(x, y)
        assert end == [d, d]
        word = _backend._pair_word(x, y)
        assert word == "".join(runs)
        assert word.startswith(_backend._BYTE_WORDS[first])


@pytest.mark.parametrize("floor", [1, 2, 3, 1 << 10, (1 << 64) + 1])
def test_a_run_that_reaches_the_floor(floor):
    # x = floor + j y + e takes j 1s down to floor + e: exactly the floor
    # (e = 0), one past it (e = 1), or one below, where the run stops a
    # letter short (e = -1); j = 1 is a single letter.  y runs from the
    # floor to 40 floor, so that a byte step takes some of these letters and
    # the run step, where the guess fails, the rest.  (y, x) mirrors to 0s.
    ks = (2, 7, 8, 9, 40)
    for y in (*range(floor, floor + 4), *(k * floor + e for k in ks for e in (-1, 0, 1))):
        for j in (1, 2, 3, 7, 100):
            for e in (-1, 0, 1):
                x = floor + j * y + e
                for pair in ((x, y), (y, x)):
                    chunks, mat, *end = _backend._peel(*pair, floor)
                    runs, want_mat, *want_end = scalar_peel(*pair, floor)
                    assert ("".join(chunks), mat, end) == ("".join(runs), want_mat, want_end)


def test_the_walk_rarely_guesses_a_wrong_byte():
    # A cost guard that needs no clock: a wrong table slows the walk but
    # spells the same word.  A guess reads _BYTE_MATRICES, and only a kept
    # one then reads _BYTE_WORDS; the half-gcd's own reads are not counted.
    # On short words, as in a table sweep, and on words of 1,000 to 5,623
    # letters, under 4% of the guesses fail (about 3%).
    reads = {"guesses": 0, "kept": 0}
    counting = [True]

    def recorded(table, key):
        class Recorded(list):
            def __getitem__(self, v):
                reads[key] += counting[0]
                return super().__getitem__(v)
        return Recorded(table)

    half = _backend._half

    def uncounted_half(x, y):
        counting[0] = False
        try:
            return half(x, y)
        finally:
            counting[0] = True

    rng = random.Random(11)
    short = [rng.randrange(20, 121) for _ in range(1000)]
    for lengths in (short, [1000, 1778, 3162, 5623] * 3):
        mats = [(w, word_matrix(w)) for w in (random_bits(rng, n) for n in lengths)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_backend, "_BYTE_MATRICES", recorded(_backend._BYTE_MATRICES, "guesses"))
            mp.setattr(_backend, "_BYTE_WORDS", recorded(_backend._BYTE_WORDS, "kept"))
            mp.setattr(_backend, "_half", uncounted_half)
            reads.update(guesses=0, kept=0)
            for w, mat in mats:
                assert matrix_word(*mat) == w
        assert reads["guesses"] > len(lengths)
        assert reads["guesses"] - reads["kept"] < 0.04 * reads["guesses"]


# every byte end a/c but that of 11111111, which is 1/0
BYTE_ENDS = [(a, c) for a, _, c, _ in _backend._BYTE_MATRICES[:255]]


@pytest.mark.parametrize("bits", [10, 12, 13, 14, 16, 64, 700, _backend._HGCD_BITS + 60])
@few(25)
@given(seed=SEEDS)
def test_pair_walk_matches_the_greedy_word(bits, seed):
    # The byte step runs once the pair has 13 bits, and the half-gcd above
    # its cutoff.  The pairs: a random one; g (a, c) + (e, f) with e, f in
    # {-1, 0, 1}, on or next to a byte end a/c, where the slot's guess can
    # fail (its path has a run of about g letters, so g stays short); and a
    # random pair times a common factor, whose walk ends at an equal pair.
    # A coprime pair's word is also its monoid matrix's word.
    rng = random.Random(seed)
    a, c = rng.choice(BYTE_ENDS)
    g = rng.getrandbits(min(bits, 16)) | 2
    h = rng.getrandbits(bits // 2) | 1
    pairs = [(rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1),
             (g * a + rng.choice((-1, 0, 1)), g * c + rng.choice((-1, 0, 1))),
             (h * (rng.getrandbits(bits // 2) | 1), h * (rng.getrandbits(bits // 2) | 1))]
    for x, y in pairs:
        d = math.gcd(x, y)
        want = greedy_matrix_word(*monoid_matrix(x // d, y // d))
        assert _backend._pair_word(x, y) == want
        if d == 1:
            assert matrix_word(*monoid_matrix(x, y)) == want


def test_peel_stops_below_its_floor_and_at_an_equal_pair():
    assert _backend._peel(5, 100, 8) == ([], (1, 0, 0, 1), 5, 100)
    # (2 1; 1 1) (9, 9) = (27, 18): one 1 and one 0 reach the equal pair
    assert _backend._peel(27, 18, 8) == (["1", "0"], (2, 1, 1, 1), 9, 9)


# ------------------------------------------------------ packed columns
#
# The tree's word leaves and the half-gcd's base peel keep each matrix
# column as one int of two lanes.  The words include the ones with the
# largest entries of their length, at sizes on each side of a leaf and of
# the tree cutoff, and the pairs fill the base peel's size.


def lane_words(rng, n):
    """A random word, the two alternating words (Fibonacci entries, the
    largest any n-letter word has) and the two constant words, n letters each."""
    return [random_bits(rng, n), ("10" * n)[:n], ("01" * n)[:n], "1" * n, "0" * n]


@pytest.mark.parametrize("n", [WORD - 1, WORD + 1, LEAF - 1, LEAF, LEAF + 1, 159, 161, 2 * LEAF + 1])
def test_packed_word_leaves_match_the_linear_loop(n, monkeypatch):
    rng = random.Random(n)
    for w in lane_words(rng, n):
        padded = word_of(int(w, 2), -n % 8 + n)  # the word of its bytes
        data = int(w, 2).to_bytes(len(padded) >> 3, "big")
        pieces = [padded[i:i + LEAF] for i in range(0, len(padded), LEAF)]
        assert _backend._leaves(data) == [linear_word_matrix(p) for p in pieces]
        assert word_matrix(w) == linear_word_matrix(w)
    monkeypatch.setattr(_backend, "_LETTERS", 0)  # every word through the tree
    monkeypatch.setattr(_backend, "_WORD_BYTES", 0)
    for w in lane_words(rng, n):
        assert word_matrix(w) == linear_word_matrix(w)


def test_each_byte_matrix_is_the_product_of_its_eight_letters():
    for v in range(256):
        assert _backend._BYTE_MATRICES[v] == linear_word_matrix(format(v, "08b"))


# every length to 300, one letter each side of a whole number of bytes, and
# 1, 2, 3 and 5 whole leaves with a letter or a byte more or less
BYTE_SIZES = sorted({*range(1, 301), *(8 * k + e for k in (40, 63, 100, 333) for e in (-1, 1)),
                     *(j * LEAF + e for j in (1, 2, 3, 5) for e in (-9, -8, -1, 0, 1, 7, 8))})


def test_word_matrix_reads_bytes_at_every_length(monkeypatch):
    rng = random.Random(34)
    for n in BYTE_SIZES:
        for w in lane_words(rng, n):
            assert word_matrix(w) == linear_word_matrix(w)
    monkeypatch.setattr(_backend, "_LETTERS", 0)  # short words through the leaves too
    monkeypatch.setattr(_backend, "_WORD_BYTES", 0)
    for n in BYTE_SIZES:
        for w in lane_words(rng, n):
            assert word_matrix(w) == linear_word_matrix(w)


@pytest.mark.parametrize("n", [_backend._LETTERS - 1, _backend._LETTERS, _backend._LETTERS + 1])
def test_word_matrix_at_its_letter_cutoff(n):
    # at most _LETTERS letters go one at a time, longer words as their integer
    for w in lane_words(random.Random(n), n):
        assert word_matrix(w) == linear_word_matrix(w)


# ------------------------------------------------- the integer routes
#
# bits_matrix and stern_pair read the k bytes of m.  Their word has
# z = n - 8k fewer 0s in front than the n-bit word of m, for z of either
# sign; a top row needs no fix.


def integer_cases(rng, n):
    """m = 0, 2^n - 1, a random n-bit m and a random shorter one."""
    return [0, (1 << n) - 1, rng.getrandbits(n) | 1 << n >> 1,
            rng.getrandbits(rng.randrange(n + 1))]


def check_integer_routes(m, n):
    assert _backend.bits_matrix(m, n) == linear_word_matrix(word_of(m, n))
    assert stern_pair(m) == linear_stern_pair(m)


@pytest.mark.parametrize("tree", [False, True])
def test_integer_routes_match_linear_loops_at_every_bit_length(tree, monkeypatch):
    # every n to 300, so every pad 8k - n of m's bytes and every m.bit_length() - 8k;
    # then the same through the trees
    if tree:
        monkeypatch.setattr(_backend, "_WORD_BYTES", 0)
        monkeypatch.setattr(_backend, "_ROW_BYTES", 0)
    rng = random.Random(38)
    for n in range(301):
        for m in integer_cases(rng, n):
            check_integer_routes(m, n)


@pytest.mark.parametrize("cutoff", ["_WORD_BYTES", "_ROW_BYTES", "_LEAF_BITS"])
def test_integer_routes_at_each_byte_cutoff(cutoff):
    # one byte short of the cutoff, at it and one past it, at every bit length of each
    k = getattr(_backend, cutoff) >> (3 if cutoff == "_LEAF_BITS" else 0)
    rng = random.Random(k)
    for n in range(8 * k - 15, 8 * k + 9):
        for m in integer_cases(rng, n):
            check_integer_routes(m, n)


def test_bits_matrix_far_past_the_bits_of_m():
    # n - m.bit_length() leading 0s, up to 2^64 of them, are (1 0; z 1) times
    # the matrix of m's own bits
    rng = random.Random(64)
    for bits in (0, 1, 7, 8, 9, 60, 64, 65, 200, 3100):
        m = rng.getrandbits(bits) | 1 << bits >> 1
        a, b, c, d = linear_word_matrix(format(m, "b") if m else "")
        for z in (1, 7, 8, 9, 100, 2**32 + 3, 2**64):
            n = m.bit_length() + z
            if z < 1000:
                assert _backend.bits_matrix(m, n) == linear_word_matrix(word_of(m, n))
            assert _backend.bits_matrix(m, n) == (a, b, c + z * a, d + z * b)
    assert _backend.bits_matrix(0, 0) == (1, 0, 0, 1)


def test_integer_routes_build_no_0_1_string(monkeypatch):
    # A cost guard: with the letter loop, the word printer and every format
    # call of the modules on the way refused, the integer routes still
    # answer at sizes across every cutoff.  (The package's sdi is the
    # function, which takes its module's name.)
    assembly, design, sdi = (importlib.import_module(f"diatomic.{name}")
                             for name in ("assembly", "design", "sdi"))
    sizes = [1, 13, WORD, WORD + 1, LEAF + 1, ROW, ROW + 1, 5000]
    rng = random.Random(13)
    cases = [(m, n, linear_word_matrix(word_of(m, n)), linear_stern_pair(m))
             for n in sizes for m in integer_cases(rng, n)]

    def refused(*args):
        raise AssertionError("an integer route built a 0/1 string")

    monkeypatch.setattr(_backend, "word_matrix", refused)
    monkeypatch.setattr(design, "_bits", refused)
    for module in (_backend, assembly, design, sdi):
        monkeypatch.setattr(module, "format", refused, raising=False)
    sdi_quadruple.cache_clear()
    for m, n, (a, b, c, d), pair in cases:
        assert stern_pair(m) == pair
        assert sdi.stern(m) == sdi.sdi(n, m) == pair[0]
        assert sdi_quadruple(n, m) == (a, b, c, d)
        assert assembly_dyadic(m, n) == ExtRational(b, d)


# 2^k - 1, 2^k and 2^k + 1 are the all-ones word, a 1 then 0s, and 10...01
STERN_EDGE_BITS = [*range(1, 140), 255, 256, 257, 1000, 3071, 3072, 3073, 10_000]


@pytest.mark.parametrize("k", STERN_EDGE_BITS)
def test_stern_pair_at_the_powers_of_two(k):
    for m in ((1 << k) - 1, 1 << k, (1 << k) + 1):
        assert stern_pair(m) == (lsb_fusc(m), lsb_fusc(m + 1))


@pytest.mark.parametrize("n", [ITEMS - 1, ITEMS, ITEMS + 1])
def test_continuant_pair_with_zero_entries(n):
    # a 0 entry merges its neighbours; lists of 0s and 1s keep the values small
    rng = random.Random(n)
    for ks in ([0] * n, [0] + [1] * (n - 1), [1] * (n - 1) + [0],
               [rng.choice([0, 0, 1, 2]) for _ in range(n)],
               [rng.choice([0, 1, 5, 2**70]) for _ in range(n)]):
        assert continuant_pair(ks) == linear_continuant_pair(ks)


def test_top_row_kernels_build_no_full_product(monkeypatch):
    # A cost guard that needs no clock: above the cutoff, stern_pair and
    # continuant_pair multiply the left half's top row by the right half's
    # product, so no product call takes the whole leaf list; below it,
    # stern_pair folds the top row alone, with no call to word_matrix.
    product, calls = _backend._product, []

    def counted_product(mats):
        calls.append(len(mats))
        return product(mats)

    def no_word_matrix(bits):
        raise AssertionError("stern_pair below the cutoff called word_matrix")

    monkeypatch.setattr(_backend, "_product", counted_product)
    monkeypatch.setattr(_backend, "word_matrix", no_word_matrix)
    rng = random.Random(8)
    for n in (WORD + 1, LEAF + 1, 4 * LEAF, ROW + 1, 10_000, 31_623):
        calls.clear()
        m = rng.getrandbits(n) | 1 << (n - 1)
        assert stern_pair(m) == linear_stern_pair(m)
        assert max(calls, default=0) < math.ceil(n / LEAF)
        assert bool(calls) == (n > ROW)
    for n in (ITEMS + 1, 4 * ITEMS, 20_000):
        calls.clear()
        ks = [rng.randrange(0, 9) for _ in range(n)]
        assert continuant_pair(ks) == linear_continuant_pair(ks)
        assert 0 < max(calls) < math.ceil(n / LEAF_ITEMS)
    for n in (*range(1, WORD + 1), ROW):
        m = rng.getrandbits(n) | 1 << (n - 1)
        assert stern_pair(m) == linear_stern_pair(m)


def test_packed_peel_matches_the_scalar_peel():
    # random pairs up to the base-peel size, both of one drawn size so that
    # no run is astronomically long, with random floors: some start below
    # the floor, most stop at it, and pairs with a common factor at or above
    # the floor end at an equal pair.  The packed peel takes a mixed byte of
    # eight letters where it can, so only its joined word matches the runs.
    rng = random.Random(27)
    top = _backend._PEEL_BITS
    endings, kinds = set(), set()
    for _ in range(3000):
        k = rng.randrange(1, top)
        x, y = rng.getrandbits(k) + 1, rng.getrandbits(k) + 1
        floor = rng.getrandbits(rng.randrange(1, k + 1)) + 1
        if rng.random() < 0.3:
            g = rng.getrandbits(rng.randrange(1, top // 2)) + 1
            x, y = g * (x >> g.bit_length()) + g, g * (y >> g.bit_length()) + g
            floor = rng.randrange(1, g + 1)
        chunks, mat, x1, y1 = _backend._peel(x, y, floor)
        runs, want_mat, *want_end = scalar_peel(x, y, floor)
        assert ("".join(chunks), mat, [x1, y1]) == ("".join(runs), want_mat, want_end)
        for i, chunk in enumerate(chunks):
            if chunk.count(chunk[0]) == len(chunk):  # a run, which the next chunk does not go on
                assert i + 1 == len(chunks) or chunks[i + 1][0] != chunk[0]
                kinds.add("run")
            else:
                assert len(chunk) == 8
                kinds.add("byte")
        endings.add("start" if chunks == [] else "equal" if x1 == y1 else "floor")
    assert endings == {"start", "equal", "floor"}
    assert kinds == {"run", "byte"}


def test_matrix_word_cost_stays_within_its_bounds(monkeypatch):
    # A cost guard that needs no clock: over a geometric ladder of word
    # lengths, the product tree's leaf count, the half-gcd's recursion depth,
    # and the size and chunk count of every base peel.  A run can be split
    # between two base peels, so each peel may add one to the word's runs;
    # and most chunks are bytes of eight letters, where a random word has a
    # run for every two letters.
    half, peel, leaves = _backend._half, _backend._peel, _backend._leaves
    seen = {}

    def counted_half(x, y):
        seen["depth"] += 1
        seen["deepest"] = max(seen["deepest"], seen["depth"])
        try:
            return half(x, y)
        finally:
            seen["depth"] -= 1

    def counted_peel(x, y, floor):
        out = peel(x, y, floor)
        seen["peels"] += 1
        seen["chunks"] += len(out[0])
        seen["peel_bits"] = max(seen["peel_bits"], x.bit_length(), y.bit_length())
        return out

    def counted_leaves(data):
        out = leaves(data)
        seen["leaves"].append(len(out))
        return out

    monkeypatch.setattr(_backend, "_half", counted_half)
    monkeypatch.setattr(_backend, "_peel", counted_peel)
    monkeypatch.setattr(_backend, "_leaves", counted_leaves)
    rng = random.Random(10)
    for n in (10_000, 31_623, 100_000):
        w = random_bits(rng, n)
        seen.update(depth=0, deepest=0, peels=0, chunks=0, peel_bits=0, leaves=[])
        a, b, c, d = word_matrix(w)
        assert seen["leaves"] == [math.ceil(n / LEAF)]
        assert matrix_word(a, b, c, d) == w
        pair_bits = max(a + b, c + d).bit_length()
        assert seen["deepest"] <= math.ceil(math.log2(pair_bits / _backend._PEEL_BITS)) + 2
        assert seen["peel_bits"] <= _backend._PEEL_BITS
        assert seen["chunks"] <= len(list(groupby(w))) + seen["peels"]
        assert seen["chunks"] <= n / 6 + seen["peels"]


HUGE_RUNS = {
    # the pair walk's division names the run, on either letter
    "0s of 1/10^23": (lambda: euclidean_design(1, 10**23), str(10**23 - 1)),
    "1s of 10^23": (lambda: assembly_inverse(ExtRational(10**23)), str(10**23 - 1)),
    "1s of a matrix": (lambda: design_of_matrix(UniModMatrix(1, 10**23, 0, 1)), str(10**23)),
    # a 5,001-bit pair whose first run leaves no room for a half step
    "no half step": (lambda: euclidean_design(1, (1 << 5000) + 1), "<5001-bit integer>"),
    # the half-gcd's base peel, on each letter, names only the bound
    "peeled 1s": (lambda: euclidean_design(1 << 5000, (1 << 4900) + 1),
                  f"more than {sys.maxsize}"),
    "peeled 0s": (lambda: euclidean_design((1 << 4900) + 1, 1 << 5000),
                  f"more than {sys.maxsize}"),
}


@pytest.mark.parametrize("case", HUGE_RUNS)
def test_a_run_past_sys_maxsize_letters_is_out_of_range(case):
    # "1" * j would raise OverflowError; no such input is ever spelled out
    call, run = HUGE_RUNS[case]
    with pytest.raises(OutOfRange) as info:
        call()
    assert str(info.value) == f"a path run of {run} letters is too long to build"


def test_a_run_of_2_to_the_16_letters_or_more_is_one_division():
    # the pair walk's division branch for 0s, on the plain word it spells
    n = 1 << 17
    assert design_of_matrix(UniModMatrix(1, 0, n, 1)).bits == "0" * n
    assert euclidean_design(1, n + 1).bits == "0" * n + "1"


# ------------------------------------- public values across the cutoffs


def word_of(m, n):
    return format(m, f"0{n}b") if n else ""


@pytest.mark.parametrize("n", WORD_SIZES)
@few(3)
@given(seed=SEEDS)
def test_assembly_dyadic_and_its_mirror_match_linear_loops(n, seed):
    m = random.Random(seed).randrange((1 << n) + 1)
    value = assembly_dyadic(m, n)
    assert (value.num, value.den) == (linear_stern_pair(m)[0], linear_stern_pair((1 << n) - m)[0])
    mirror = assembly_dyadic((1 << n) - m, n)
    assert (mirror.num, mirror.den) == (value.den, value.num)


@pytest.mark.parametrize("n", WORD_SIZES)
@few(3)
@given(seed=SEEDS)
def test_sdi_quadruple_matches_linear_loop(n, seed):
    m = random.Random(seed).getrandbits(n)
    assert sdi_quadruple(n, m) == linear_word_matrix(word_of(m, n))


@pytest.mark.parametrize("n", WORD_SIZES)
@few(3)
@given(seed=SEEDS)
def test_a_short_order_is_read_off_its_own_bits(n, seed):
    # the closed form for the n - m.bit_length() leading 0s against the padded word
    rng = random.Random(seed)
    m = rng.getrandbits(rng.randrange(n + 1))
    a, b, c, d = linear_word_matrix(word_of(m, n))
    assert sdi_quadruple(n, m) == (a, b, c, d)
    assert assembly_dyadic(m, n) == ExtRational(b, d)


def test_dyadic_addresses_past_any_word_length():
    # the word would have 2**63 or 2**100 letters; only m's bits are read
    assert assembly_dyadic(1, 2**100) == ExtRational(1, 2**100)
    assert assembly_dyadic(0, 2**63) == ExtRational(0)
    # 100 1s are (1 100; 0 1), under k = 2**100 - 100 leading 0s: b / (d + k b)
    assert assembly_dyadic((1 << 100) - 1, 2**100) == ExtRational(100, 100 * 2**100 - 9999)
    k = 2**63 - 2  # U("0")**k times the matrix (2 1; 1 1) of "10"
    assert sdi_quadruple(2**63, 2) == (2, 1, 1 + 2 * k, 1 + k)


@pytest.mark.parametrize("n", [0] + WORD_SIZES)
def test_sdi_quadruple_at_the_row_ends(n):
    for m in (0, (1 << n) - 1):
        assert sdi_quadruple(n, m) == linear_word_matrix(word_of(m, n))


def quotient_list(rng, n, last):
    """n quotients: a head that may be 0, interior items >= 1, then `last`."""
    pool = [1, 1, 1, 2, 3, 7]
    ks = [rng.getrandbits(64) | 1 if rng.random() < 0.01 else rng.choice(pool) for _ in range(n)]
    ks[0] = rng.choice([0] + pool)
    ks[-1] = last
    return ks


# These counts stop just past the cutoff of the continuant's product tree.
CF_COUNTS = [1, 2, LEAF_ITEMS + 1, ITEMS - 1, ITEMS, ITEMS + 1]


@pytest.mark.parametrize("n", ITEM_COUNTS)
@few(4)
@given(seed=SEEDS)
def test_realizing_pair_matches_fold(n, seed):
    rng = random.Random(seed)
    rs = quotient_list(rng, n, rng.randrange(2, 9))
    assert realizing_pair(rs) == folded_realizing_pair(rs)


@pytest.mark.parametrize("n", CF_COUNTS)
@few(2)
@given(seed=SEEDS)
def test_cf_eval_matches_fold(n, seed):
    rng = random.Random(seed)
    ks = quotient_list(rng, n, rng.randrange(0, 9))
    assert cf_eval(ks) == folded_cf_eval(ks)
