"""Difference-quotient probes of the assembly map at rational points.

Quotients are exact: rational when the base point is dyadic, elements of
the quadratic field fixed by the point's period otherwise.  Step sizes
are negative powers of two only, so every probed point stays inside that
field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .assembly import assembly_of_rational_theta, assembly_theta
from .design import FiniteDesign
from .errors import OutOfRange, TerminalDesign, ZeroLength
from .matrix import sdm
from .quadratic import FieldElement, QuadIrr
from .rational import ExtRational


def fib_continuant(m: int) -> int:
    """Continuant of m ones: 1, 2, 3, 5, 8, ... (the Fibonacci shift)."""
    if m < 1:
        raise ZeroLength(f"need m >= 1, got {m}")
    prev, cur = 1, 1
    for _ in range(m - 1):
        prev, cur = cur, cur + prev
    return cur


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class Verdict(enum.Enum):
    DIVERGES_TO_INFINITY = "diverges-to-infinity"
    ZERO_IF_DIFFERENTIABLE = "zero-if-differentiable"


@dataclass(frozen=True)
class QuotientScan:
    """Exact one-sided difference quotients at eta, h = (+/-)2**-j."""

    eta: Fraction
    side: Side
    samples: tuple[tuple[Fraction, ExtRational | FieldElement], ...]


def _is_dyadic(t: Fraction) -> bool:
    q = t.denominator
    return q & (q - 1) == 0


def quotient_scan(eta: Fraction, side: Side, jmax: int) -> QuotientScan:
    """Quotients (A(eta+h) - A(eta))/h for h = (+/-)2**-j, j = 1..jmax.

    Steps that leave (0, 1) are skipped.  At a non-dyadic eta the values
    are quadratic irrationals and the quotients come back as exact field
    elements over the discriminant fixed by eta.
    """
    if not 0 < eta < 1:
        raise OutOfRange(f"eta must lie in (0, 1), got {eta}")
    if jmax < 1:
        raise OutOfRange(f"jmax must be >= 1, got {jmax}")
    sgn = 1 if side is Side.RIGHT else -1
    samples = []
    if _is_dyadic(eta):
        base = assembly_theta(eta).as_fraction()
        for j in range(1, jmax + 1):
            h = Fraction(sgn, 1 << j)
            if not 0 < eta + h < 1:
                continue
            gap = (assembly_theta(eta + h).as_fraction() - base) / h
            samples.append((h, ExtRational.from_fraction(gap)))
    else:
        base_irr = assembly_of_rational_theta(eta)
        assert isinstance(base_irr, QuadIrr)
        disc = base_irr.discriminant
        base_el = base_irr.field_element()
        for j in range(1, jmax + 1):
            h = Fraction(sgn, 1 << j)
            if not 0 < eta + h < 1:
                continue
            val = assembly_of_rational_theta(eta + h)
            el = (
                FieldElement(val.num, 0, val.den, disc)
                if isinstance(val, ExtRational)
                else val.field_element(disc)
            )
            samples.append((h, (el - base_el).mul_fraction(1 / h)))
    return QuotientScan(eta, side, tuple(samples))


def derivative_at_rational(eta: Fraction) -> Verdict:
    """Dyadic points blow up on both sides; elsewhere a derivative, if any, is 0."""
    if not 0 < eta < 1:
        raise OutOfRange(f"eta must lie in (0, 1), got {eta}")
    if _is_dyadic(eta):
        return Verdict.DIVERGES_TO_INFINITY
    return Verdict.ZERO_IF_DIFFERENTIABLE


def affine_derivative_factor(d: FiniteDesign, v: ExtRational) -> ExtRational:
    """Chain factor 2**n / (q3 * v + q4)**2 relating slopes across a prefix d.

    v is the map's value at the suffix's theta.
    """
    if d.terminal:
        raise TerminalDesign("prefix must be a plain word")
    m = sdm(d)
    den = ExtRational(m.c * v.num + m.d * v.den, v.den)
    scale = ExtRational(1 << d.length)
    return scale / (den * den)
