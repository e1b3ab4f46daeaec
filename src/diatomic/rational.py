"""Nonnegative exact rationals extended with a single point at infinity.

Infinity is the canonical pair 1/0; it is an ordinary value here because
the assembly map sends 1 to it and the Moebius action moves it around.
0/0 can never be formed: the constructor rejects it.  A value has no
arithmetic; callers compute on num and den in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._value import Value, _set, trusted
from .errors import DomainError, OutOfRange, _check_kind

__all__ = ["ExtRational", "parse_ratio", "parse_fraction"]


class ExtRational(Value):
    """Immutable num/den pair, gcd-reduced, den == 0 encodes infinity."""

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        _check_kind(num, int)
        _check_kind(den, int)
        if num < 0 or den < 0:
            raise OutOfRange("negative component {}/{}", num, den)
        if num == 0 and den == 0:
            raise DomainError("0/0 is not a value")
        g = gcd(num, den)
        _set(self, "num", num // g)
        _set(self, "den", den // g)

    @classmethod
    def infinity(cls) -> "ExtRational":
        return cls(1, 0)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinite:
            raise DomainError("infinity has no Fraction form")
        return Fraction(self.num, self.den)

    def __repr__(self) -> str:
        return f"ExtRational({self.num}, {self.den})"

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


# an ExtRational from a coprime nonnegative pair, which is never 0/0
_ratio = trusted(ExtRational)


def _read_int(text: str) -> int:
    """The integer written as ASCII digits after an optional leading '-';
    ValueError for anything else, such as '+3', '1_000', ' 4' or digits of
    another script, all of which int() would read."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not an integer")
    return int(text)


def parse_ratio(text: str) -> ExtRational:
    """Parse 'a/b', a bare integer, or 'inf'; whitespace around the text is ignored."""
    _check_kind(text, str)
    text = text.strip()
    if text == "inf":
        return ExtRational.infinity()
    num, slash, den = text.partition("/")
    try:
        num, den = _read_int(num), _read_int(den) if slash else 1
    except ValueError as exc:
        raise DomainError("bad rational {!r}", text) from exc
    return ExtRational(num, den)


def parse_fraction(text: str) -> Fraction:
    """Parse 'a/b' or a bare integer as a finite exact fraction."""
    return parse_ratio(text).as_fraction()
