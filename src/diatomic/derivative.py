"""Difference-quotient probes of the assembly map at rational points.

Quotients are exact: rational when the base point is dyadic, elements of
the quadratic field fixed by the point's period otherwise.  Step sizes
are negative powers of two only, so every probed point stays inside that
field: eta and eta + 2**-j share every bit past the j-th, and by the
composition law (prepending a word applies the Moebius action of its
matrix) the probed value is the base value moved by two j-bit matrices.
Their product has determinant 1, so it moves the base's primitive equation,
the period's moved by the preperiod's matrix, to another; a sample takes
big-by-small products and one gcd against a2, the equation's leading
coefficient, and its common factor is a power of two shifted out, or
else a gcd that starts from a small operand.  At a dyadic point it moves
the reduced value, and a sample is one normalisation.
"""

from __future__ import annotations

import enum
import sys
from fractions import Fraction

from ._backend import continuant_pair, word_matrix
from ._value import Value, _set
from .assembly import assembly_dyadic
from .design import FiniteDesign, _plain, design_of_theta
from .errors import OutOfRange, ZeroLength, _check_kind
from .matrix import sdm
from .quadratic import FieldElement, _equation, _gap_frame, _moved, _moved_gap, _period_matrix
from .rational import ExtRational

__all__ = ["fib_continuant", "Side", "Verdict", "QuotientScan", "quotient_scan",
           "derivative_at_rational", "affine_derivative_factor"]


def fib_continuant(m: int) -> int:
    """Continuant of m ones: 1, 2, 3, 5, 8, ... (the Fibonacci shift)."""
    _check_kind(m, int)
    if m < 1:
        raise ZeroLength("need m >= 1, got {}", m)
    if m > sys.maxsize:  # no list holds m ones: [1] * m would raise OverflowError
        raise OutOfRange("need m <= {}, got {}", sys.maxsize, m)
    return continuant_pair([1] * m)[1]


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class Verdict(enum.Enum):
    DIVERGES_TO_INFINITY = "diverges-to-infinity"
    ZERO_IF_DIFFERENTIABLE = "zero-if-differentiable"


class QuotientScan(Value):
    """Exact one-sided difference quotients at eta, h = (+/-)2**-j."""

    __slots__ = _fields = ("eta", "side", "samples")

    def __init__(self, eta: Fraction, side: Side,
                 samples: tuple[tuple[Fraction, ExtRational | FieldElement], ...]):
        _set(self, "eta", eta)
        _set(self, "side", side)
        _set(self, "samples", samples)


def quotient_scan(eta: Fraction, side: Side, jmax: int) -> QuotientScan:
    """Quotients (A(eta+h) - A(eta))/h for h = (+/-)2**-j, j = 1..jmax.

    Steps that leave (0, 1) are skipped; a scan with none left raises.  The
    quotients are rationals at a dyadic eta, else field elements over the
    discriminant fixed by eta.  With u and w the first j bits of eta and of
    eta + h, A(eta + h) = M(w) M(u)^-1 A(eta) by the composition law, and
    one walk over eta's bits grows M(u) and M(w) by a letter each per step.
    A sample moves the base equation, the period's moved by the preperiod's
    matrix, by that det-1 matrix, with big-by-small products of the
    coefficient products formed once per scan and one gcd against a2, or at
    a dyadic eta moves the base value with one normalisation.
    """
    _check_kind(eta, (int, Fraction))
    if not isinstance(side, Side):
        raise OutOfRange("side must be a Side, got {}", type(side).__name__)
    if not 0 < eta < 1:
        raise OutOfRange("eta must lie in (0, 1), got {}", eta)
    _check_kind(jmax, int)
    if jmax < 1:
        raise OutOfRange("jmax must be >= 1, got {}", jmax)
    sgn = 1 if side is Side.RIGHT else -1
    num, den = eta.numerator, eta.denominator
    # 0 < eta + h < 1 exactly when x 2^j > den, x the gap to the far end
    first = (den // (den - num if sgn > 0 else num)).bit_length()
    if first > jmax:
        raise OutOfRange("jmax must be >= {} for a step inside (0, 1), got {}", first, jmax)
    design = design_of_theta(eta)
    if isinstance(design, FiniteDesign):  # dyadic eta: the value at its design number
        base = assembly_dyadic(design.number, design.length)
        moved, at = _moved_ratio_gap, (base.num, base.den)
    else:  # the base value's primitive equation, with no QuadIrr built
        eq = _equation(*_period_matrix(design.period))
        moved, at = _moved_gap, _gap_frame(*_moved(eq, *word_matrix(design.preperiod.bits)))
    # w = u + sgn starts at the first bit `start` as the old M(u) times the
    # other letter; then it takes the letter u does not, as the carry runs
    start, r = int(sgn < 0), num
    a, b, c, d, wa, wb, wc, wd = 1, 0, 0, 1, 0, 0, 0, 0
    samples = []
    for j in range(1, jmax + 1):
        bit, r = divmod(r << 1, den)
        if bit == start:
            wa, wb, wc, wd = a, b, c, d
        if bit:  # M(u) takes "1", M(w) takes "0"
            b, d, wa, wc = a + b, c + d, wa + wb, wc + wd
        else:
            a, c, wb, wd = a + b, c + d, wa + wb, wc + wd
        if j >= first:  # M(w) times M(u)^-1 = (d -b; -c a), as det M(u) = 1
            samples.append((Fraction(sgn, 1 << j), moved(
                at, wa * d - wb * c, wb * a - wa * b, wc * d - wd * c, wd * a - wc * b, sgn << j)))
    return QuotientScan(eta, side, tuple(samples))


def _moved_ratio_gap(at: tuple, a: int, b: int, c: int, e: int, k: int) -> ExtRational:
    """((a x + b)/(c x + e) - x) * k at x = v/w, at = (v, w), over one denominator."""
    v, w = at
    return ExtRational((b * w * w + (a - e) * v * w - c * v * v) * k, (c * v + e * w) * w)


def derivative_at_rational(eta: Fraction) -> Verdict:
    """Dyadic points blow up on both sides; elsewhere a derivative, if any, is 0."""
    _check_kind(eta, (int, Fraction))
    if not 0 < eta < 1:
        raise OutOfRange("eta must lie in (0, 1), got {}", eta)
    if eta.denominator & (eta.denominator - 1) == 0:
        return Verdict.DIVERGES_TO_INFINITY
    return Verdict.ZERO_IF_DIFFERENTIABLE


def affine_derivative_factor(d: FiniteDesign, v: ExtRational) -> ExtRational:
    """Chain factor 2**n / (q3 * v + q4)**2 relating slopes across a prefix d.

    v is the map's value at the suffix's theta; v = inf is allowed.
    """
    _plain(d, "prefix must be a plain word")
    _check_kind(v, ExtRational)
    m = sdm(d)
    if m.c == 0:  # d = 1^k with matrix (1 k; 0 1): the factor is 2**k at every v
        return ExtRational(1 << d.length)
    # at v = p/q it is 2**n q^2 / (c p + d q)^2, and c p + d q >= 1 as d >= 1
    p, q = v.num, v.den
    return ExtRational((q << d.length) * q, (m.c * p + m.d * q) ** 2)
