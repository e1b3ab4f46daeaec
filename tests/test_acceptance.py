"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Everything asserts exact values (integers, Fractions, ExtRationals); the
two timed criteria measure wall-clock with perf_counter.
"""

import random
import time
from fractions import Fraction
from math import gcd

from diatomic import (
    ExtRational,
    FiniteDesign,
    Side,
    UniModMatrix,
    assembly_dyadic,
    cf_eval,
    compose,
    continuant,
    design_of_matrix,
    design_of_theta,
    euclidean_design,
    fib_continuant,
    is_primitive,
    parse_design,
    periodic_design_of_sqrt,
    purity_test,
    quad_from_period,
    quad_of_periodic,
    question_mark_inverse,
    quotient_scan,
    reflection,
    runs,
    sdi_quadruple,
    sdm,
    stern,
    theta_of,
)
from diatomic.quadratic import Purity

from oracles import det_continuant, euler_phi, mediant_question_mark_inverse


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_table_row():
    stern(8)  # warm the import path before timing
    t0 = time.perf_counter()
    row = [stern(m) for m in range(9)]
    elapsed = time.perf_counter() - t0
    ok = row == [0, 1, 1, 2, 1, 3, 2, 3, 1] and elapsed < 0.001
    _report(1, ok, f"row n=3 values exact, {elapsed * 1e6:.0f}us")
    assert row == [0, 1, 1, 2, 1, 3, 2, 3, 1]
    assert elapsed < 0.001


def test_criterion_02_determinant_identity():
    t0 = time.perf_counter()
    checked = 0
    for n in range(13):
        for m in range(1 << n):
            q1, q2, q3, q4 = sdi_quadruple(n, m)
            assert q1 * q4 - q2 * q3 == 1
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(2, elapsed < 10, f"{checked} quadruples, zero violations, {elapsed:.2f}s")
    assert elapsed < 10


def test_criterion_03_primitive_design_counts():
    for a in range(1, 31):
        designs = {
            euclidean_design(a, b)
            for b in range(1, a + 1)
            if gcd(a, b) == 1
        }
        assert len(designs) == euler_phi(a)
        for d in designs:
            assert is_primitive(d)
            assert stern(d.number) == a
    twelve = {str(d) for b in (1, 5, 7, 11) for d in [euclidean_design(12, b)]}
    assert twelve == {"111111111111", "110011", "101101", "100000000001"}
    _report(3, True, "phi(a) primitive designs for a <= 30; a=12 list exact")


def test_criterion_04_continuant_identity_suite():
    rng = random.Random(12021)
    for _ in range(1000):
        ks = [rng.randrange(0, 7) for _ in range(rng.randrange(1, 9))]
        x = rng.randrange(0, 7)
        assert continuant(ks) == continuant(ks[::-1])
        if len(ks) >= 2:
            assert continuant(ks) == ks[0] * continuant(ks[1:]) + continuant(ks[2:])
        assert continuant(ks + [1]) == continuant(ks[:-1] + [ks[-1] + 1])
        assert continuant([1] + ks) == continuant([1 + ks[0]] + ks[1:])
        assert continuant(ks + [0]) == continuant(ks[:-1])
        assert continuant([0] + ks) == continuant(ks[1:])
        assert continuant(ks[:-1] + [ks[-1] + x]) == (
            continuant(ks[:-1]) * x + continuant(ks)
        )
    for _ in range(100):
        ks = [rng.randrange(0, 7) for _ in range(rng.randrange(0, 7))]
        assert continuant(ks) == det_continuant(ks)
    _report(4, True, "1000 random words, identities exact; 100 determinant checks")


def test_criterion_05_continued_fraction_presentation():
    for n in range(1, 11):
        top = 1 << n
        for m in range(1, top, 2):
            d = FiniteDesign(format(m, f"0{n}b"))
            assert cf_eval(runs(d)) == ExtRational(stern(m), stern(top - m))
    _report(5, True, "value ratio equals CF of runs, exhaustive n <= 10")


def test_criterion_06_matrix_round_trip():
    for n in range(15):
        for m in range(1 << n):
            w = format(m, f"0{n}b") if n else ""
            assert design_of_matrix(sdm(FiniteDesign(w))).bits == w
    rng = random.Random(65537)
    for _ in range(200):
        n1 = rng.randrange(0, 13)
        n2 = rng.randrange(0, 25 - n1 - 1)
        d1 = FiniteDesign("".join(rng.choice("01") for _ in range(n1)))
        d2 = FiniteDesign("".join(rng.choice("01") for _ in range(n2)))
        assert sdm(compose(d1, d2)) == sdm(d1) * sdm(d2)
    assert sdm(parse_design("10")) * sdm(parse_design("101")) == UniModMatrix(5, 8, 3, 5)
    _report(6, True, "32767-word round trip exact; 200 product checks; example matrix")


def test_criterion_07_assembly_exact_values():
    assert assembly_dyadic(1, 1) == ExtRational(1)
    assert assembly_dyadic(25, 5) == ExtRational(7, 3)
    for n in range(11):
        top = 1 << n
        for m in range(top):
            lhs, rhs = reflection(Fraction(m, top))
            assert lhs == rhs
            gap = assembly_dyadic(m + 1, n) - assembly_dyadic(m, n)
            if m + 1 < top:
                assert gap == ExtRational(1, stern(top - m) * stern(top - m - 1))
            else:
                assert gap.is_infinite
    _report(7, True, "A(1/2)=1, A(25/32)=7/3, reflection and gap formula n <= 10")


def test_criterion_08_square_root_identities():
    cases = {
        Fraction(2): "1001",
        Fraction(3): "101",
        Fraction(5): "11000011",
        Fraction(6): "110011",
        Fraction(7): "1101011",
        Fraction(8): "11011",
        Fraction(1, 3): "010",
        Fraction(2, 5): "01011010",
    }
    for q, period in cases.items():
        d = periodic_design_of_sqrt(q)
        assert d.preperiod.is_empty
        assert d.period.bits == period
        t = theta_of(d)
        assert design_of_theta(t) == d
        eq = quad_from_period(d.period)
        assert eq.b1 == 0
        assert Fraction(eq.c0, eq.a2) == q
        assert quad_of_periodic(d) == eq
        ks = runs(d.period)
        assert ks == ks[::-1]
    _report(8, True, "all eight square-root expansions, X^2 = Q, palindromic runs")


def test_criterion_09_purity_classification():
    rng = random.Random(9091)
    seen = 0
    while seen < 50:
        den = rng.randrange(2, 201)
        num = rng.randrange(1, den)
        t = Fraction(num, den)
        if t.denominator & (t.denominator - 1) == 0:
            continue
        seen += 1
        verdict = purity_test(t)
        conj = quad_of_periodic(design_of_theta(t)).conjugate_sign()
        assert (verdict is Purity.PURE) == (conj < 0)
        assert (verdict is Purity.NON_PURE) == (conj > 0)
    _report(9, True, "50 random thetas: parity verdict matches conjugate sign")


def test_criterion_10_question_mark_bridge():
    for n in range(11):
        for m in range((1 << n) + 1):
            t = Fraction(m, 1 << n)
            want = mediant_question_mark_inverse(t)
            assert question_mark_inverse(t) == ExtRational(
                want.numerator, want.denominator
            )
    _report(10, True, "inverse question-mark equals mediant walk, all dyadics n <= 10")


def test_criterion_11a_derivative_divergence_and_bound():
    scan = quotient_scan(Fraction(1, 2), Side.RIGHT, 15)
    by_j = {h.denominator.bit_length() - 1: q for h, q in scan.samples}
    for n in range(1, 13):
        assert by_j[n + 1] == ExtRational(1 << (n + 1), n)
    assert any(by_j[n + 1] > ExtRational(1 << 10) for n in range(1, 14))

    scan = quotient_scan(Fraction(2, 3), Side.RIGHT, 20)
    by_j = {h.denominator.bit_length() - 1: q for h, q in scan.samples}
    for n in range(2, 11):
        b = fib_continuant(2 * n - 3)
        bound = Fraction(1 << (2 * n - 2), b * b)
        assert by_j[2 * n].compare_fraction(bound) < 0
    _report(11, True, "quotients at 1/2 exact and diverging; 2/3 bound exact n <= 10")


def test_criterion_11b_vanishing_threshold_as_stated():
    # the stated threshold: the quotient at h = 2**-20 is below 10**-3.
    # The exact value is ~0.0332 (it first drops below 10**-3 at h = 2**-34),
    # so this assertion records the criterion faithfully and fails.
    scan = quotient_scan(Fraction(2, 3), Side.RIGHT, 20)
    quotient = scan.samples[-1][1]
    below = quotient.compare_fraction(Fraction(1, 1000)) < 0
    _report("11b", below, "quotient at 2/3, h=2^-20, required < 10^-3")
    assert below, "quotient at h=2^-20 is not below 10^-3"
