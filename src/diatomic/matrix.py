"""Nonnegative unimodular 2x2 matrices and their design words.

The map word -> matrix is the monoid isomorphism onto determinant-1
matrices with nonnegative entries, generated by U("1") = (1 1; 0 1) and
U("0") = (1 0; 1 1).  Factorisation back to the word walks the
Stern-Brocot path of the image of (1, 1); the determinant makes that pair
coprime, so the path ends at (1, 1).
"""

from __future__ import annotations

from ._backend import matrix_word, word_matrix
from ._value import Value, _set, trusted
from .design import FiniteDesign, _plain, _word
from .errors import (
    DesignSyntaxError,
    NegativeEntry,
    NotUnimodular,
    OutOfRange,
    _check_kind,
)
from .quadratic import QuadIrr, _moved, _root
from .rational import ExtRational, _ratio, _read_int

__all__ = ["UniModMatrix", "parse_matrix", "sdm", "design_of_matrix", "apply_mobius",
           "matrix_symmetries"]


class UniModMatrix(Value):
    """Row-major entries (a b; c d) with a*d - b*c = 1, all nonnegative."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if not all(isinstance(x, int) for x in (a, b, c, d)):
            raise OutOfRange("entries must be integers, got ({}, {}, {}, {})", a, b, c, d)
        if min(a, b, c, d) < 0:
            raise NegativeEntry("negative entry in ({}, {}, {}, {})", a, b, c, d)
        if a * d - b * c != 1:
            raise NotUnimodular("determinant of ({}, {}, {}, {}) is not 1", a, b, c, d)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    def entries(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d

    def __mul__(self, other: "UniModMatrix") -> "UniModMatrix":
        if not isinstance(other, UniModMatrix):
            return NotImplemented
        # a product of two nonnegative det-1 matrices is one
        return _matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"


_matrix = trusted(UniModMatrix)  # for nonnegative entries of determinant 1


def parse_matrix(text: str) -> UniModMatrix:
    """Parse the wire format 'a,b;c,d'."""
    _check_kind(text, str)
    try:
        rows = text.strip().split(";")
        (a, b), (c, d) = (tuple(_read_int(x) for x in row.split(",")) for row in rows)
    except ValueError as exc:
        raise DesignSyntaxError("bad matrix text {!r}", text) from exc
    return UniModMatrix(a, b, c, d)


def sdm(d: FiniteDesign) -> UniModMatrix:
    """The table matrix of a finite design: generator product along its word."""
    # a generator product: nonnegative, determinant 1
    return _matrix(*word_matrix(_plain(d, "terminal designs have no matrix")))


def design_of_matrix(m: UniModMatrix) -> FiniteDesign:
    """The unique design word with sdm(word) == m, possibly unreduced."""
    _check_kind(m, UniModMatrix)
    # matrix_word checks the sign and the determinant (a singular matrix
    # would walk forever), and its path is made of 0s and 1s only
    return _word(matrix_word(m.a, m.b, m.c, m.d), False)


def apply_mobius(m: UniModMatrix, x: ExtRational | QuadIrr) -> ExtRational | QuadIrr:
    """(a x + b)/(c x + d) on ExtRational (infinity maps to a/c) and QuadIrr values."""
    _check_kind(m, UniModMatrix)
    if isinstance(x, QuadIrr):  # nonnegative entries keep a positive x positive
        return _root(*_moved((x.a2, x.b1, x.c0, x.q), m.a, m.b, m.c, m.d))
    _check_kind(x, ExtRational)
    # a determinant-1 matrix keeps the gcd of the pair it moves: a reduced
    # x, never 0/0, has a reduced image, never 0/0
    return _ratio(m.a * x.num + m.b * x.den, m.c * x.num + m.d * x.den)


def matrix_symmetries(d: FiniteDesign) -> tuple[UniModMatrix, UniModMatrix, UniModMatrix]:
    """Matrices of the run-reversal, its bit-flip, and the bit-flip of d:
    the (d b; c a), (a c; b d) and (d c; b a) permutations of sdm(d)."""
    a, b, c, e = sdm(d).entries()
    # each permutation keeps the entries nonnegative and the determinant ae - bc
    return _matrix(e, b, c, a), _matrix(a, c, b, e), _matrix(e, c, b, a)
