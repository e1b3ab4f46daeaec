"""The assembly map: dyadic arguments to exact rationals, and back.

On m/2**n the value is the ratio of the table entry at order m to the one
at order 2**n - m; the map extends to a strictly increasing bijection of
[0, 1] onto [0, inf], which is what the enclosure evaluator exploits.
"""

from __future__ import annotations

from fractions import Fraction

from ._backend import word_matrix
from ._value import Value, _set
from .design import FiniteDesign, _bits, _design_of, design_of_theta, euclidean_design
from .errors import (
    DomainError,
    InsufficientBits,
    OutOfRange,
    _check_fraction,
    _check_int,
    _check_kind,
    _check_str,
)
from .matrix import UniModMatrix, apply_mobius, sdm
from .quadratic import QuadIrr, _moved, _root, quad_of_periodic
from .rational import ExtRational, _ratio


def assembly_dyadic(m: int, n: int) -> ExtRational:
    """Value at m/2**n: b/d of the matrix of the n-bit word of m, the table
    values at orders m and 2**n - m; m = 2**n is allowed and gives infinity."""
    _check_int(m)
    _check_int(n)
    # m > 2**n, with neither built: past n + 1 bits, or n + 1 bits but not 2**n
    if n < 0 or m < 0 or (m.bit_length() > n and (m.bit_length() > n + 1 or m.bit_count() > 1)):
        raise OutOfRange("need 0 <= m <= 2^n, got m={}, n={}", m, n)
    if m >> n:  # m = 2**n
        return ExtRational.infinity()
    _, b, _, d = word_matrix(_bits(m, n))
    return _ratio(b, d)  # ad - bc = 1 makes b, d coprime, and d >= 1


def assembly_theta(t: Fraction) -> ExtRational:
    """Value at a dyadic theta given as an exact fraction."""
    _check_fraction(t)
    q = t.denominator
    if t < 0 or t > 1 or q & (q - 1):
        raise OutOfRange("need a dyadic in [0, 1], got {}", t)
    return assembly_dyadic(t.numerator, q.bit_length() - 1)


def assembly_inverse(v: ExtRational) -> FiniteDesign:
    """The unique reduced design whose theta maps to v."""
    _check_kind(v, ExtRational)
    if v.num == 0 or v.is_infinite:
        return _design_of(v.num, 0)  # 0/1 and the canonical 1/0: the two length-0 designs
    return euclidean_design(v.num, v.den)


class Enclosure(Value):
    """Exact bracket of the value at any theta with the given bit prefix."""

    __slots__ = _fields = ("lo", "hi", "bits_used")

    def __init__(self, lo: ExtRational, hi: ExtRational, bits_used: int):
        _check_kind(lo, ExtRational)
        _check_kind(hi, ExtRational)
        _check_int(bits_used)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "bits_used", bits_used)

    def width(self) -> ExtRational:
        lo, hi = self.lo, self.hi  # hi - lo on the integer pairs
        if hi.is_infinite:
            if lo.is_infinite:
                raise DomainError("infinity - infinity")
            return ExtRational.infinity()
        n = hi.num * lo.den - lo.num * hi.den  # an infinite lo makes it -hi.den
        if n < 0:
            raise OutOfRange("difference would be negative")
        return ExtRational(n, hi.den * lo.den)

    def contains(self, v: ExtRational) -> bool:
        _check_kind(v, ExtRational)
        lo, hi = self.lo, self.hi  # lo <= v <= hi cross-multiplied, infinity above all
        return lo.num * v.den <= v.num * lo.den and v.num * hi.den <= hi.num * v.den


def assembly_enclose(bits: str, n: int) -> Enclosure:
    """Bracket from the first n bits: [value at prefix, value one ulp up].

    The prefix followed by 0s, and by 1s, gives b/d and a/c for its matrix
    (a b; c d), so the width is exactly 1 / (c * d) and shrinks to 0.
    """
    _check_str(bits)
    _check_int(n)
    if n < 0:
        raise OutOfRange("n must be >= 0, got {}", n)
    if len(bits) < n:
        raise InsufficientBits("need {} bits, got {}", n, len(bits))
    if bits.strip("01"):
        raise OutOfRange(f"bits must be 0/1, got {bits!r}")
    a, b, c, d = word_matrix(bits[:n])
    # ad - bc = 1: both pairs are coprime, d >= 1, and c = 0 only for an
    # all-ones prefix, (1 n; 0 1), whose a/c is the canonical infinity 1/0
    return Enclosure(_ratio(b, d), _ratio(a, c), n)


def assembly_of_rational_theta(t: Fraction) -> ExtRational | QuadIrr:
    """Exact value at rational theta: rational if dyadic, else quadratic."""
    d = design_of_theta(t)  # checks 0 <= t <= 1
    if isinstance(d, FiniteDesign):
        return assembly_dyadic(d.number, d.length)  # its design number
    return quad_of_periodic(d)


def reflection(t: Fraction) -> tuple[ExtRational | QuadIrr, ExtRational | QuadIrr]:
    """(value at 1-t, reciprocal of value at t); equal by the mirror law."""
    v, w = assembly_of_rational_theta(t), assembly_of_rational_theta(1 - t)  # t checked first
    if isinstance(v, QuadIrr):  # the reciprocal is the action of J = (0 1; 1 0)
        return w, _root(*_moved((v.a2, v.b1, v.c0, v.q), 0, 1, 1, 0))
    return w, _ratio(v.den, v.num)  # a reduced pair swapped


def compose_action(d: FiniteDesign, v: ExtRational | QuadIrr) -> ExtRational | QuadIrr:
    """Prepending the word d moves the value by the Moebius action of sdm(d)."""
    _check_kind(d, FiniteDesign)
    return apply_mobius(sdm(d), v)


def question_mark_inverse(t: Fraction) -> ExtRational | QuadIrr:
    """Inverse Minkowski question mark at rational theta: v/(v+1) of the value."""
    return apply_mobius(UniModMatrix(1, 0, 1, 1), assembly_of_rational_theta(t))
