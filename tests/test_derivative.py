import random
from fractions import Fraction

import pytest

from diatomic import (
    ExtRational,
    FiniteDesign,
    Side,
    Verdict,
    affine_derivative_factor,
    assembly_theta,
    derivative_at_rational,
    fib_continuant,
    quotient_scan,
    theta_of,
)
from diatomic.errors import OutOfRange, ZeroLength

from oracles import fib


def test_fib_continuant_values():
    assert fib_continuant(1) == 1
    assert fib_continuant(2) == 2
    assert fib_continuant(7) == 21
    for m in range(1, 30):
        assert fib_continuant(m) == fib(m + 1)
    with pytest.raises(ZeroLength):
        fib_continuant(0)


def test_fib_continuant_golden_lower_bound():
    # (1+sqrt5)^k < 2^k * b_{k+2}, checked in integers via (p + q sqrt5)
    p, q = 1, 1
    for k in range(1, 40):
        rhs = (1 << k) * fib_continuant(k + 2)
        lead = rhs - p
        assert lead > 0 and lead * lead > 5 * q * q
        p, q = p + 5 * q, p + q


def test_scan_right_of_one_half():
    scan = quotient_scan(Fraction(1, 2), Side.RIGHT, 6)
    by_j = {h.denominator.bit_length() - 1: q for h, q in scan.samples}
    assert 1 not in by_j  # 1/2 + 1/2 leaves the open interval
    for j in range(2, 7):
        n = j - 1
        assert by_j[j] == ExtRational(1 << j, n)
    assert by_j[5] == ExtRational(8)


def test_scan_positive_both_sides():
    for side in (Side.LEFT, Side.RIGHT):
        scan = quotient_scan(Fraction(5, 8), side, 8)
        assert scan.samples
        for h, q in scan.samples:
            assert (h < 0) == (side is Side.LEFT)
            assert isinstance(q, ExtRational)
            assert q > ExtRational(0)


def test_scan_rejects_endpoints():
    with pytest.raises(OutOfRange):
        quotient_scan(Fraction(0), Side.RIGHT, 3)
    with pytest.raises(OutOfRange):
        quotient_scan(Fraction(3, 2), Side.LEFT, 3)
    for jmax in (0, -3):
        with pytest.raises(OutOfRange):
            quotient_scan(Fraction(1, 2), Side.RIGHT, jmax)


def test_dyadic_quotients_blow_up_everywhere():
    # both one-sided quotients pass 2^10; j <= 22 is the exact budget the
    # slowest k=6 points need
    bound = Fraction(1 << 10)
    for k in range(1, 7):
        for m in range(1, 1 << k, 2):
            eta = Fraction(m, 1 << k)
            for side in (Side.LEFT, Side.RIGHT):
                scan = quotient_scan(eta, side, 22)
                best = max(q.as_fraction() for _, q in scan.samples)
                assert best > bound, (eta, side)


def test_two_thirds_quotients_vanish():
    # tight bound on the right, the wider window bound on both sides
    for side in (Side.RIGHT, Side.LEFT):
        scan = quotient_scan(Fraction(2, 3), side, 24)
        by_j = {abs(h.denominator).bit_length() - 1: q for h, q in scan.samples}
        for n in range(2, 13):
            q = by_j[2 * n]
            b1 = fib_continuant(2 * n - 3)
            b2 = fib_continuant(max(2 * n - 4, 1))
            window = Fraction(1 << (2 * n), b1 * b2)
            assert q.compare_fraction(window) < 0
            if side is Side.RIGHT:
                tight = Fraction(1 << (2 * n - 2), b1 * b1)
                assert q.compare_fraction(tight) < 0


def test_one_half_sandwich_lower_bound():
    # between grid steps the quotient keeps the previous grid's floor:
    # h in [2^-(n+2), 2^-(n+1)] gives quotient > 2^(n+1)/(n+1)
    for n in range(1, 13):
        for num, shift in ((1, n + 1), (3, n + 3), (1, n + 2)):
            h = Fraction(num, 1 << shift)
            q = (assembly_theta(Fraction(1, 2) + h).as_fraction() - 1) / h
            assert q > Fraction(1 << (n + 1), n + 1), (n, h)


def test_classification():
    assert derivative_at_rational(Fraction(1, 2)) is Verdict.DIVERGES_TO_INFINITY
    assert derivative_at_rational(Fraction(5, 8)) is Verdict.DIVERGES_TO_INFINITY
    assert derivative_at_rational(Fraction(2, 3)) is Verdict.ZERO_IF_DIFFERENTIABLE
    with pytest.raises(OutOfRange):
        derivative_at_rational(Fraction(1))


def test_affine_factor_examples():
    one = ExtRational(1)
    assert affine_derivative_factor(FiniteDesign(""), one) == ExtRational(1)
    assert affine_derivative_factor(FiniteDesign("1"), one) == ExtRational(2)
    assert affine_derivative_factor(FiniteDesign("0"), one) == ExtRational(1, 2)
    from diatomic.errors import TerminalDesign

    with pytest.raises(TerminalDesign):
        affine_derivative_factor(FiniteDesign.terminal_of(2), one)


def _symmetric_quotient(theta: Fraction, h: Fraction) -> Fraction:
    lo = assembly_theta(theta - h).as_fraction()
    hi = assembly_theta(theta + h).as_fraction()
    return (hi - lo) / (2 * h)


def test_chain_factor_is_the_scaling_limit():
    # ratio of symmetric quotients across a prefix approaches the affine
    # factor; asserted as a non-increasing distance over 5 step sizes
    rng = random.Random(79)
    for _ in range(25):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(1, 6)))
        d = FiniteDesign(w)
        n = len(w)
        k = rng.randrange(3, 7)
        m = rng.randrange(1, (1 << k) - 1) | 1
        inner = Fraction(m, 1 << k)
        outer = theta_of(d) + inner / (1 << n)
        factor = affine_derivative_factor(d, assembly_theta(inner))
        factor_f = factor.as_fraction()
        dists = []
        for j in range(k + 2, k + 7):
            h = Fraction(1, 1 << j)
            ratio = _symmetric_quotient(outer, h / (1 << n)) / _symmetric_quotient(inner, h)
            dists.append(abs(ratio - factor_f))
        assert all(b <= a for a, b in zip(dists, dists[1:])), (w, inner)


def test_period_trace_never_hits_two():
    # the blocked value in the vanishing argument: q1 + q4 stays above 2
    from diatomic import sdi_quadruple

    for n in range(2, 9):
        for m in range(1, (1 << n) - 1):
            q1, _, _, q4 = sdi_quadruple(n, m)
            assert q1 + q4 > 2


def test_nondyadic_scan_is_exact_in_the_period_field():
    from diatomic.quadratic import FieldElement

    scan = quotient_scan(Fraction(2, 3), Side.RIGHT, 8)
    for h, q in scan.samples:
        assert isinstance(q, FieldElement)
        assert q.sign() > 0
    scan_l = quotient_scan(Fraction(2, 3), Side.LEFT, 8)
    for h, q in scan_l.samples:
        assert q.sign() > 0
