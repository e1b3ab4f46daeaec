"""The assembly map: dyadic arguments to exact rationals, and back.

On m/2**n the value is the ratio of the table entry at order m to the one
at order 2**n - m; the map extends to a strictly increasing bijection of
[0, 1] onto [0, inf], which is what the enclosure evaluator exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._backend import stern_pair
from .design import FiniteDesign, design_of_theta, euclidean_design
from .errors import InsufficientBits, OutOfRange
from .matrix import apply_mobius, sdm
from .quadratic import QuadIrr, quad_of_periodic
from .rational import ExtRational


def assembly_dyadic(m: int, n: int) -> ExtRational:
    """Value at m/2**n; m = 2**n is allowed and gives infinity."""
    if n < 0 or m < 0 or m > (1 << n):
        raise OutOfRange(f"need 0 <= m <= 2^n, got m={m}, n={n}")
    num = stern_pair(m)[0]
    den = stern_pair((1 << n) - m)[0]
    return ExtRational(num, den)


def assembly_theta(t: Fraction) -> ExtRational:
    """Value at a dyadic theta given as an exact fraction."""
    q = t.denominator
    if t < 0 or t > 1 or q & (q - 1):
        raise OutOfRange(f"need a dyadic in [0, 1], got {t}")
    return assembly_dyadic(t.numerator, q.bit_length() - 1)


def assembly_inverse(v: ExtRational) -> FiniteDesign:
    """The unique reduced design whose theta maps to v."""
    if v.num == 0:
        return FiniteDesign("")
    if v.is_infinite:
        return FiniteDesign.terminal_of(0)
    return euclidean_design(v.num, v.den)


@dataclass(frozen=True)
class Enclosure:
    """Exact bracket of the value at any theta with the given bit prefix."""

    lo: ExtRational
    hi: ExtRational
    bits_used: int

    def width(self) -> ExtRational:
        return self.hi - self.lo

    def contains(self, v: ExtRational) -> bool:
        return self.lo <= v <= self.hi


def assembly_enclose(bits: str, n: int) -> Enclosure:
    """Bracket from the first n bits: [value at prefix, value one ulp up].

    The width is exactly 1 / (q4 * q3) for the quadruple at the truncated
    address, so it shrinks to 0 as n grows.
    """
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    if len(bits) < n:
        raise InsufficientBits(f"need {n} bits, got {len(bits)}")
    if bits.strip("01"):
        raise OutOfRange(f"bits must be 0/1, got {bits!r}")
    m = int(bits[:n], 2) if n else 0
    return Enclosure(assembly_dyadic(m, n), assembly_dyadic(m + 1, n), n)


def assembly_of_rational_theta(t: Fraction) -> ExtRational | QuadIrr:
    """Exact value at rational theta: rational if dyadic, else quadratic."""
    if t < 0 or t > 1:
        raise OutOfRange(f"theta must lie in [0, 1], got {t}")
    d = design_of_theta(t)
    if isinstance(d, FiniteDesign):
        return assembly_theta(t)
    return quad_of_periodic(d)


def reflection(t: Fraction) -> tuple[ExtRational, ExtRational]:
    """(value at 1-t, reciprocal of value at t); equal by the mirror law."""
    return assembly_theta(1 - t), assembly_theta(t).reciprocal()


def compose_action(d: FiniteDesign, v: ExtRational) -> ExtRational:
    """Prepending the word d moves the value by the Moebius action of sdm(d)."""
    return apply_mobius(sdm(d), v)


def question_mark_inverse(t: Fraction) -> ExtRational:
    """Inverse Minkowski question mark at a dyadic, as v/(v+1) of the value."""
    v = assembly_theta(t)
    return ExtRational(v.num, v.num + v.den)
