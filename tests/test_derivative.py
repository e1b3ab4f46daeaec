import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diatomic import (
    ExtRational,
    FiniteDesign,
    Side,
    Verdict,
    affine_derivative_factor,
    assembly_of_rational_theta,
    assembly_theta,
    derivative_at_rational,
    fib_continuant,
    quotient_scan,
    theta_of,
)
from diatomic import assembly, derivative, quadratic
from diatomic.errors import OutOfRange, ZeroLength

from oracles import ext_key, fib, rebuild_quotient_scan, recording_gcd


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
            assert ext_key(q) > ext_key(ExtRational(0))


def test_scan_rejects_endpoints():
    for side in Side:
        for eta in (Fraction(0), Fraction(1)):
            with pytest.raises(OutOfRange):
                quotient_scan(eta, side, 3)
    with pytest.raises(OutOfRange):
        quotient_scan(Fraction(3, 2), Side.LEFT, 3)
    for jmax in (0, -3):
        with pytest.raises(OutOfRange):
            quotient_scan(Fraction(1, 2), Side.RIGHT, jmax)


def test_scan_rejects_a_side_that_is_not_a_side():
    # a str or None scanned the left side before, labelled with what was given
    for side in ("right", "left", None, 1):
        with pytest.raises(OutOfRange) as info:
            quotient_scan(Fraction(1, 3), side, 4)
        assert str(info.value) == f"side must be a Side, got {type(side).__name__}"
    assert quotient_scan(Fraction(1, 3), Side("right"), 4).side is Side.RIGHT


def test_scan_errors_name_a_huge_operand_by_its_bit_length(huge):
    # a jmax below the first useful step is below eta's denominator's bit
    # length, so only eta and a negative jmax can be huge
    with pytest.raises(OutOfRange, match=r"got <20000-bit integer>/3$"):
        quotient_scan(Fraction(huge, 3), Side.RIGHT, 3)
    with pytest.raises(OutOfRange, match=r"got -1/<20000-bit integer>$"):
        quotient_scan(Fraction(-1, huge), Side.LEFT, 3)
    with pytest.raises(OutOfRange, match=r"^jmax must be >= 1, got <-20000-bit integer>$"):
        quotient_scan(Fraction(1, 3), Side.RIGHT, -huge)
    with pytest.raises(OutOfRange, match=r"^eta must lie in \(0, 1\), got 3/2$"):
        quotient_scan(Fraction(3, 2), Side.LEFT, 3)
    with pytest.raises(OutOfRange, match=r"^jmax must be >= 1, got -3$"):
        quotient_scan(Fraction(1, 2), Side.RIGHT, -3)


@pytest.mark.parametrize("eta, side, first", [
    (Fraction(1, 2), Side.RIGHT, 2), (Fraction(1, 3), Side.LEFT, 2),
    (Fraction(1, 1023), Side.LEFT, 10), (Fraction(1022, 1023), Side.RIGHT, 10),
    (Fraction(1, 4 * 4093), Side.LEFT, 14), (Fraction(3, 4), Side.RIGHT, 3),
])
def test_empty_scan_names_the_smallest_jmax(eta, side, first):
    for jmax in (1, first - 1):
        with pytest.raises(OutOfRange, match=f"jmax must be >= {first}"):
            quotient_scan(eta, side, jmax)
    assert [h for h, _ in quotient_scan(eta, side, first).samples] == [
        Fraction(1 if side is Side.RIGHT else -1, 1 << first)]


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
    for eta in (Fraction(0), Fraction(1)):
        with pytest.raises(OutOfRange):
            derivative_at_rational(eta)


def test_affine_factor_examples():
    one = ExtRational(1)
    assert affine_derivative_factor(FiniteDesign(""), one) == ExtRational(1)
    assert affine_derivative_factor(FiniteDesign("1"), one) == ExtRational(2)
    assert affine_derivative_factor(FiniteDesign("0"), one) == ExtRational(1, 2)
    inf = ExtRational.infinity()  # the value A(1)
    assert affine_derivative_factor(FiniteDesign(""), inf) == ExtRational(1)
    assert affine_derivative_factor(FiniteDesign("11"), inf) == ExtRational(4)
    assert affine_derivative_factor(FiniteDesign("10"), inf) == ExtRational(0)
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


# --- the composition-law scan against a rebuild of every probed point ------
#
# The scan moves the base value by one det-1 matrix per step, at dyadic and
# non-dyadic points alike; the oracle rebuilds each probed value on its own.

def _assert_scan_matches_rebuild(eta, side, jmax):
    want = rebuild_quotient_scan(eta, side, jmax)
    if not want:  # no step stays inside (0, 1)
        with pytest.raises(OutOfRange):
            quotient_scan(eta, side, jmax)
    else:
        assert quotient_scan(eta, side, jmax).samples == want


@pytest.mark.parametrize("k", range(5))  # 2-part of the denominator: 0 is pure
@settings(max_examples=20, deadline=None)
@given(odd=st.integers(1, 1500).map(lambda i: 2 * i + 1), data=st.data(),
       jmax=st.integers(1, 64))
def test_scan_matches_rebuild_oracle(k, odd, data, jmax):
    q = odd << k
    eta = Fraction(data.draw(st.integers(1, q - 1)), q)  # dyadic when odd divides it
    for side in Side:
        _assert_scan_matches_rebuild(eta, side, jmax)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 12), data=st.data(), jmax=st.integers(1, 64))
def test_dyadic_scan_matches_rebuild_oracle(k, data, jmax):
    eta = Fraction(2 * data.draw(st.integers(0, (1 << (k - 1)) - 1)) + 1, 1 << k)
    for side in Side:
        _assert_scan_matches_rebuild(eta, side, jmax)


def test_scan_matches_rebuild_oracle_on_a_long_period():
    # 2 is a primitive root mod 1019, 4021 and 8069, so the periods have
    # 1018, 4020 and 8068 bits
    for eta in (Fraction(300, 1019), Fraction(1340, 4021), Fraction(2000, 8069),
                Fraction(2000, 4 * 8069)):
        for side in Side:
            _assert_scan_matches_rebuild(eta, side, 12)


def test_scan_samples_take_no_gcd_past_a2_but_big_by_small(monkeypatch):
    # A sample takes one gcd against a2, and, unless its common factor is a
    # power of two, one that starts from the small 2 h^2 k.  The gap's parts
    # p and r have about twice a2's bits; a gcd step that meets one of them
    # with another long operand (q has a2's bits) costs a long division and
    # a long gcd, more than the rest of the sample.
    eta = Fraction(2000, 8069)  # an 8068-bit period
    limit = assembly_of_rational_theta(eta).a2.bit_length() + 64
    pairs, in_sample = [], []

    def sample(*args, moved_gap=derivative._moved_gap):
        in_sample.append(True)
        try:
            return moved_gap(*args)
        finally:
            in_sample.pop()

    monkeypatch.setattr(quadratic, "gcd", recording_gcd(pairs, lambda: in_sample))
    monkeypatch.setattr(derivative, "_moved_gap", sample)
    samples = sum(len(quotient_scan(eta, side, 12).samples) for side in Side)
    assert samples == 22 and sum(lo > 64 for lo, _ in pairs) == samples
    assert [(lo, hi) for lo, hi in pairs if hi > limit and lo > 64] == []


def test_scan_reads_the_base_equation_without_building_the_base_value(monkeypatch):
    # the frame comes from the period's equation moved by the preperiod: no
    # QuadIrr is made, and the public value route does not run
    calls, value = [], assembly.assembly_of_rational_theta.__code__

    def make(*parts, make=quadratic._quad):
        calls.append("_quad")
        return make(*parts)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is value:
            calls.append("assembly_of_rational_theta")

    monkeypatch.setattr(quadratic, "_quad", make)
    sys.setprofile(profile)
    try:
        scans = [quotient_scan(Fraction(2000, 8069), side, 12) for side in Side]
    finally:
        sys.setprofile(None)
    assert calls == [] and [len(s.samples) for s in scans] == [10, 12]


@pytest.mark.parametrize("eta", [
    Fraction(1, 1023), Fraction(1022, 1023), Fraction(1, 4 * 4093), Fraction(4092, 4093),
    Fraction(2, 3), Fraction(5, 12)])
def test_scan_matches_rebuild_oracle_past_long_runs(eta):
    # the first four open with a long run of 0s or of 1s, so on one side
    # M(w) starts late in the walk over eta's bits
    for side in Side:
        _assert_scan_matches_rebuild(eta, side, 64)
