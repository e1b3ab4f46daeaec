"""Nonnegative unimodular 2x2 matrices and their design words.

The map word -> matrix is the monoid isomorphism onto determinant-1
matrices with nonnegative entries, generated by U("1") = (1 1; 0 1) and
U("0") = (1 0; 1 1).  Factorisation back to the word peels whichever row
dominates; exactness of the determinant guarantees exactly one choice at
every non-identity step.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._backend import matrix_word, word_matrix
from .design import FiniteDesign, _flip, inverse_design
from .errors import DesignSyntaxError, NegativeEntry, NotUnimodular, TerminalDesign
from .rational import ExtRational


@dataclass(frozen=True)
class UniModMatrix:
    """Row-major entries (a b; c d) with a*d - b*c = 1, all nonnegative."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c, self.d) < 0:
            raise NegativeEntry(f"negative entry in {self.entries()}")
        if self.a * self.d - self.b * self.c != 1:
            raise NotUnimodular(f"determinant of {self.entries()} is not 1")

    @classmethod
    def identity(cls) -> "UniModMatrix":
        return cls(1, 0, 0, 1)

    def entries(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d

    def __mul__(self, other: "UniModMatrix") -> "UniModMatrix":
        return UniModMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"


def parse_matrix(text: str) -> UniModMatrix:
    """Parse the wire format 'a,b;c,d'."""
    try:
        rows = text.strip().split(";")
        (a, b), (c, d) = (tuple(int(x) for x in row.split(",")) for row in rows)
    except ValueError as exc:
        raise DesignSyntaxError(f"bad matrix text {text!r}") from exc
    return UniModMatrix(a, b, c, d)


def sdm(d: FiniteDesign) -> UniModMatrix:
    """The table matrix of a finite design: generator product along its word."""
    if d.terminal:
        raise TerminalDesign("terminal designs have no matrix")
    return UniModMatrix(*word_matrix(d.bits))


def design_of_matrix(m: UniModMatrix) -> FiniteDesign:
    """The unique design word with sdm(word) == m, possibly unreduced."""
    return FiniteDesign(matrix_word(*m.entries()))


def apply_mobius(m: UniModMatrix, x: ExtRational) -> ExtRational:
    """(a x + b)/(c x + d) on the extended rationals; infinity maps to a/c."""
    return ExtRational(m.a * x.num + m.b * x.den, m.c * x.num + m.d * x.den)


def matrix_symmetries(d: FiniteDesign) -> tuple[UniModMatrix, UniModMatrix, UniModMatrix]:
    """Matrices of the run-reversal, its bit-flip, and the bit-flip of d.

    Their entries are the (d b; c a), (a c; b d) and (d c; b a)
    permutations of sdm(d).
    """
    if d.terminal:
        raise TerminalDesign("terminal designs have no matrix")
    inv = inverse_design(d)
    return sdm(inv), sdm(_bitflip(inv)), sdm(_bitflip(d))


def _bitflip(d: FiniteDesign) -> FiniteDesign:
    # complement word: m maps to 2^n - (m+1), not the conjugate's 2^n - m
    return FiniteDesign(_flip(d.bits))
