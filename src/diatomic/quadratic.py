"""Periodic designs and the quadratic irrationals they evaluate to.

A periodic design's value is the attracting fixed point of one det +-1
generator of the period's map, moved by the preperiod's matrix.  The
generator is the period's matrix, whose entries are the table quadruple at
(n, m), or for a period h + flip(h) a det -1 matrix G whose square G^2 is
the period's matrix, read off half the word.  One exact type holds the
value: QuadIrr, a FieldElement (p + q sqrt(d))/r read back as its
primitive equation (a2, b1, c0, s).  _equation reads it off a generator,
_moved moves it by any det +-1 matrix and _root wraps it; a quotient
scan's gaps are moved from it directly.  Roots are compared through
integer sign tests, never floats.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, isqrt

from ._backend import word_matrix
from ._value import Value, _set, trusted
from .design import (
    FiniteDesign,
    PeriodicDesign,
    _flip,
    _run_word,
    make_periodic,
)
from .errors import (
    InvalidPeriod,
    NonPositive,
    OutOfRange,
    PerfectSquare,
    _check_kind,
)
from .sdi import sdi_quadruple

__all__ = ["FieldElement", "QuadIrr", "Purity", "quad_from_period", "quad_of_periodic", "sqrt_cf",
           "cf_of_root", "periodic_design_of_sqrt", "classify_type", "purity_test"]


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _sign_p_q_sqrt(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d) for nonsquare d > 0."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    # opposite signs: compare p^2 with q^2 d on the side of the positive term
    if p > 0:
        return 1 if p * p > q * q * d else -1
    return 1 if q * q * d > p * p else -1


def _reduced(p: int, q: int, r: int) -> tuple[int, int, int]:
    """The normal form of (p + q*sqrt(d))/r for r != 0: r > 0, then no common factor."""
    if r < 0:
        p, q, r = -p, -q, -r
    g = gcd(p, q, r)
    return p // g, q // g, r // g


class FieldElement(Value):
    """Exact (p + q*sqrt(d)) / r with integer components and fixed d.

    The constructor checks r != 0 and that d is a positive nonsquare, then
    stores the normal form.  Arithmetic keeps the radicand of its operands,
    so its results skip the radicand check.
    """

    __slots__ = _fields = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int):
        for x in (p, q, r, d):
            _check_kind(x, int)
        if r == 0:
            raise OutOfRange("zero denominator in field element")
        if d <= 0 or _is_square(d):
            raise OutOfRange("radicand must be a positive nonsquare, got {}", d)
        p, q, r = _reduced(p, q, r)
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "r", r)
        _set(self, "d", d)

    def sign(self) -> int:
        return _sign_p_q_sqrt(self.p, self.q, self.d)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.d != other.d:
            raise OutOfRange("mixed radicands")
        # over the operands' checked d, with r1 r2 != 0
        return _field(*_reduced(self.p * other.r - other.p * self.r,
                                self.q * other.r - other.q * self.r,
                                self.r * other.r), self.d)

    def mul_fraction(self, f: Fraction) -> "FieldElement":
        _check_kind(f, (int, Fraction))
        # over self's checked d, with r and f's denominator nonzero
        return _field(*_reduced(self.p * f.numerator, self.q * f.numerator,
                                self.r * f.denominator), self.d)

    def compare_fraction(self, f: Fraction) -> int:
        """Sign of self - f: of (p den - num r) + q den sqrt(d), as r den > 0."""
        _check_kind(f, (int, Fraction))
        den = f.denominator
        return _sign_p_q_sqrt(self.p * den - f.numerator * self.r, self.q * den, self.d)

    def __eq__(self, other: object) -> bool:  # a QuadIrr equals its FieldElement
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self._values(self) == other._values(other)

    __hash__ = Value.__hash__

    def __str__(self) -> str:
        rat = Fraction(self.p, self.r)
        coef = Fraction(self.q, self.r)
        if coef == 0:
            return str(rat)
        sign = "-" if coef < 0 else "+"
        return f"{rat} {sign} {abs(coef)}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"FieldElement({self.p}, {self.q}, {self.r}, d={self.d})"


_field = trusted(FieldElement)  # for parts in normal form over a positive nonsquare d


class QuadIrr(FieldElement):
    """A quadratic irrational as the selected root of a2 X^2 - b1 X - c0 = 0.

    Coefficients are made primitive with a2 >= 1; plus_branch picks
    (b1 + sqrt(disc)) / (2 a2) over the minus sign.  The root is stored as
    that field element, (b1, +-1, 2 a2, disc), whose constructor checks the
    discriminant; the coefficients are read back from it.  The selected
    root is always the positive one when the roots straddle 0, and the
    constructor checks it to be positive in every case.
    """

    __slots__ = ()

    def __init__(self, a2: int, b1: int, c0: int, plus_branch: bool = True):
        for x in (a2, b1, c0):
            _check_kind(x, int)
        _check_kind(plus_branch, bool)
        if a2 <= 0:
            raise OutOfRange("leading coefficient must be positive")
        g = gcd(a2, b1, c0)
        a2, b1, c0 = a2 // g, b1 // g, c0 // g
        super().__init__(b1, 1 if plus_branch else -1, 2 * a2, b1 * b1 + 4 * a2 * c0)
        if self.sign() <= 0:
            raise OutOfRange("selected root is not positive")

    @property
    def a2(self) -> int:
        return self.r >> 1

    @property
    def b1(self) -> int:
        return self.p

    @property
    def c0(self) -> int:
        return (self.d - self.p * self.p) // (2 * self.r)  # disc = b1^2 + 4 a2 c0

    @property
    def plus_branch(self) -> bool:
        return self.q > 0

    @property
    def discriminant(self) -> int:
        return self.d

    def __repr__(self) -> str:
        return (f"QuadIrr(a2={self.a2}, b1={self.b1}, c0={self.c0}, "
                f"plus_branch={self.plus_branch})")

    def field_element(self, d: int | None = None) -> FieldElement:
        """The root over sqrt(d), where t^2 d = disc; d defaults to disc."""
        if d is None:
            return self
        _check_kind(d, int)
        t = isqrt(self.d // d) if d > 0 else 0
        if t == 0 or t * t * d != self.d:
            raise OutOfRange("root lies outside Q(sqrt({}))", d)
        # d > 0 and t^2 d = disc, a nonsquare, so d is a nonsquare too
        return _field(*_reduced(self.p, t * self.q, self.r), d)

    def equation_str(self) -> str:
        """Render a2 x^2 - b1 x - c0 = 0 with conventional signs."""
        terms = ["x^2" if self.a2 == 1 else f"{self.a2} x^2"]
        for coef, sym in ((-self.b1, " x"), (-self.c0, "")):
            if coef == 0:
                continue
            sign = "+" if coef > 0 else "-"
            mag = abs(coef)
            body = sym.strip() if (mag == 1 and sym) else f"{mag}{sym}"
            terms.append(f"{sign} {body}")
        return " ".join(terms) + " = 0"


# for (b1, +-1, 2 a2, disc) of a primitive equation with a nonsquare disc and a positive root
_quad = trusted(QuadIrr)


class Purity(enum.Enum):
    RATIONAL = "rational"
    PURE = "pure"
    NON_PURE = "non-pure"


def _check_period(period: FiniteDesign) -> FiniteDesign:
    _check_kind(period, FiniteDesign)
    if period.terminal:
        raise InvalidPeriod("terminal designs cannot be periods")
    w = period.bits
    if not w.strip("0") or not w.strip("1"):
        raise InvalidPeriod("period {!r} must have length >= 2 and mix 0s and 1s", w)
    return period


def _equation(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The primitive equation (a2, b1, c0, s) of the attracting fixed point of
    x -> (a x + b)/(c x + d), of determinant e = +-1 and trace t, for a
    period's generator (see _period_matrix).  The root is
    (b1 + s sqrt(disc))/(2 a2) of a2 X^2 - b1 X - c0 = 0, a2 >= 1.
    A det-1 generator is a positive matrix, so a d = 1 + b c >= 2 and t >= 3;
    the det -1 (b a; d c) has t = b + c >= 1, as M(h) is not the identity.

    It solves c x^2 - (a - d) x - b = 0, where c != 0: else a d = e, and t
    would be +-2 or 0.  At a fixed point the derivative is e/(c x + d)^2,
    with c x + d = (t +- sqrt(disc))/2: two values of product e, the plus
    one above 1 for these t.  So the attracting root takes +sqrt(disc)/(2c):
    the plus branch exactly when c > 0.

    Its discriminant is (a - d)^2 + 4 b c = t^2 - 4 e, never a square:
    t^2 - 4 e = u^2 with u >= 0 gives |t - u| (t + u) = 4, two factors of
    one parity, so both are 2 and t is 2 or 0.  Dividing the equation by
    its content g divides the discriminant by g^2, which keeps it a
    nonsquare.  The root is positive: a period mixes both letters, so its
    matrix, whose attracting fixed point it is, maps [0, inf] into (0, inf).
    """
    s = 1 if c > 0 else -1
    a2, b1, c0 = s * c, s * (a - d), s * b
    g = gcd(a2, b1, c0)
    if g > 1:
        a2, b1, c0 = a2 // g, b1 // g, c0 // g
    return a2, b1, c0, s


def _moved(eq: tuple, a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The primitive equation n2 Y^2 - n1 Y - n0 = 0 of (a x + b)/(c x + d),
    for the root x of eq = (a2, b1, c0, s) and a det e = +-1 matrix: X =
    (d Y - b)/(a - c Y) put into a2 X^2 - b1 X - c0 = 0.  No gcd: the
    substitution and its inverse are integral, so each equation's content
    divides the other's, and n1^2 + 4 n2 n0 = e^2 disc.  As c X + d != 0 at
    an irrational X, the roots' images differ by e sqrt(disc)/n2, e times
    the moved roots' gap: x's image is on branch s e, or -s e once n2 > 0."""
    a2, b1, c0, s = eq
    n2 = (a2 * d + b1 * c) * d - c * c * c0  # small products first
    n1 = 2 * b * d * a2 + (a * d + b * c) * b1 - 2 * a * c * c0
    n0 = a * a * c0 - a * b * b1 - b * b * a2
    sign = 1 if n2 > 0 else -1
    return sign * n2, sign * n1, sign * n0, sign * s * (a * d - b * c)


def _root(a2: int, b1: int, c0: int, s: int) -> QuadIrr:
    """A positive root of an equation from _equation or _moved: its disc is
    a nonsquare (see both), and gcd(b1, s, 2 a2) = 1 keeps it reduced."""
    return _quad(b1, s, 2 * a2, b1 * b1 + 4 * a2 * c0)


def _gap_frame(a2: int, b1: int, c0: int, s: int) -> tuple:
    """What every gap moved from the root (b1 + s sqrt(disc))/(2 a2) of the
    primitive equation a2 X^2 - b1 X - c0 = 0 reads, computed once: the tuple
    (a2, b1, c0, s, disc) and the products 2 a2^2, a2 b1, 2 a2 b1, 2 a2 c0,
    b1 c0 and b1^2, with disc = b1^2 + 4 a2 c0."""
    bb, ab, ac = b1 * b1, a2 * b1, a2 * c0
    return a2, b1, c0, s, bb + 4 * ac, 2 * a2 * a2, ab, 2 * ab, 2 * ac, b1 * c0, bb


def _moved_gap(frame: tuple, a: int, b: int, c: int, e: int, k: int) -> FieldElement:
    """((a x + b)/(c x + e) - x) * k for a det-1 matrix: big-by-small
    products and one gcd against a2.

    The frame (see _gap_frame) gives x = (b1 + s sqrt(disc))/(2 a2), a root
    of a2 X^2 - b1 X - c0 = 0.  Putting X = (e Y - b)/(a - c Y) gives
    n2 Y^2 - n1 Y - n0 = 0 of the same discriminant, with
    n2 = a2 e^2 + b1 c e - c0 c^2 and n1 = 2 a2 b e + b1 (a e + b c) - 2 c0 a c,
    and the moved roots differ by s sqrt(disc)/n2, so the branch stays s.
    The gap is (p + q sqrt(disc))/r with p = (a2 n1 - b1 n2) k,
    q = s (a2 - n2) k and r = 2 a2 n2.  Over the frame's products, and with
    a e + b c = 2 b c + 1, each term of p and r is a frame value times a
    small entry of the step.  A negative r turns k's sign before p and q
    are formed, so r > 0 costs no negation of a long part.

    With h = gcd(a2, n2), g = gcd(p, q, r) divides 2 h^2 k: at a prime l,
    if l divides a2 and n2 to different orders, the smaller order is l's in
    h and a2 - n2 has exactly that order, so l's order in q is at most
    l's in h k; otherwise l's order in r is that of 2 h^2.  So g is
    gcd(2 h^2 k, p, q, r), whose first operand is small.  When h^2 k is
    +-2^u, as in every scan sample whose h is a power of two, g is a power
    of two too, and it is the lowest set bit of p | q | r.
    """
    a2, b1, c0, s, disc, aa2, ab, ab2, ac2, bc, bb = frame
    ee, ce, cc = e * e, c * e, c * c
    n2 = (a2 * e + b1 * c) * e - c0 * cc
    r = ee * aa2 + ce * ab2 - cc * ac2
    if r < 0:
        r, k = -r, -k
    p = (b * e * aa2 + (2 * b * c + 1 - ee) * ab - a * c * ac2 - ce * bb + cc * bc) * k
    q = (a2 - n2) * s * k
    h = gcd(a2, n2)
    w = 2 * h * h * k
    v = w if w > 0 else -w
    # the normal form over the base's checked disc: r // g > 0 and no common factor
    if v & (v - 1):  # 2 h^2 k is not +-2^(u+1)
        g = gcd(w, p, q, r)
        return _field(p // g, q // g, r // g, disc)
    # g divides 2^(u+1), so it is 2^t, t the least of the parts' orders of 2:
    # the trailing zeros of their OR, as a negative x in two's complement
    # ends in the zeros of -x.  Each part is a multiple of 2^t, so a right
    # shift divides it exactly and keeps its sign.
    x = p | q | r
    t = (x & -x).bit_length() - 1
    return _field(p >> t, q >> t, r >> t, disc)


def _period_matrix(period: FiniteDesign) -> tuple[int, int, int, int]:
    """A det +-1 generator of the period's map.  Flipping every letter
    conjugates a word's matrix M by J = (0 1; 1 0), so a period h + flip(h)
    has the matrix M(h) J M(h) J = G^2 for the det -1 generator
    G = M(h) J = (b a; d c), with M(h) = (a b; c d); G has the same
    attracting fixed point.  Any other period's generator is its matrix."""
    w, n = period.bits, period.length >> 1
    if not len(w) & 1 and w[n:] == _flip(w[:n]):
        a, b, c, d = sdi_quadruple(n, int(w[:n], 2))
        return b, a, d, c
    return sdi_quadruple(period.length, period.number)


def quad_from_period(period: FiniteDesign) -> QuadIrr:
    """Fixed-point equation of a purely periodic design with this period."""
    return _root(*_equation(*_period_matrix(_check_period(period))))


def quad_of_periodic(pd: PeriodicDesign) -> QuadIrr:
    """Value of a periodic design: the period's root moved by the preperiod's matrix."""
    _check_kind(pd, PeriodicDesign)
    eq = _equation(*_period_matrix(pd.period))
    return _root(*_moved(eq, *word_matrix(pd.preperiod.bits)))


def _cf_walk(p: int, q: int, d: int) -> tuple[list[int], list[int]]:
    """Continued fraction of (p + sqrt(d))/q: (prefix, repeating cycle).

    Needs d a positive nonsquare, q != 0 and q | d - p^2; each step keeps
    q | d - p^2, so the walk stays in integers.  With s = isqrt(d) the
    value lies strictly between (p + s)/q and (p + s + 1)/q, and no integer
    lies strictly between those two, so the floor of the lower one is the
    quotient, for either sign of q.
    """
    s = isqrt(d)
    seen: dict[tuple[int, int], int] = {}
    quots: list[int] = []
    while (p, q) not in seen:
        seen[p, q] = len(quots)
        a = (p + s + (q < 0)) // q
        quots.append(a)
        p = a * q - p
        q = (d - p * p) // q
    k = seen[p, q]
    return quots[:k], quots[k:]


def sqrt_cf(num: int, den: int) -> tuple[list[int], list[int]]:
    """Continued fraction of sqrt(num/den): (prefix, repeating cycle)."""
    _check_kind(num, int)
    _check_kind(den, int)
    if num < 1 or den < 1:
        raise NonPositive("need a positive rational, got {}/{}", num, den)
    if _is_square(num * den):
        raise PerfectSquare("sqrt({}) is rational", Fraction(num, den))
    return _cf_walk(0, den, num * den)


def cf_of_root(x: QuadIrr) -> tuple[list[int], list[int]]:
    """Continued fraction of the root: (prefix, cycle).

    The root is (b1 +- sqrt(disc))/(2 a2), and 2 a2 divides
    disc - b1^2 = 4 a2 c0, so the integer walk takes it unscaled.
    """
    _check_kind(x, QuadIrr)
    sign = 1 if x.plus_branch else -1
    return _cf_walk(sign * x.b1, sign * 2 * x.a2, x.discriminant)


def periodic_design_of_sqrt(value: Fraction) -> PeriodicDesign:
    """The purely periodic design whose value is sqrt(value).

    Runs the square-root continued fraction to its cycle, lays the
    quotients out as alternating 1/0 blocks (doubling odd cycles so the
    block parity lines up), and canonicalizes.  The result is always
    purely periodic with a run-palindromic period.  sqrt_cf rejects a
    value that is not positive or whose square root is rational.

    Pure, because the conjugate of x = sqrt(value) is -x.  With a the last
    prefix quotient, x + a (value > 1) or 1/x + a (value < 1) is reduced,
    so by Galois's theorem the prefix is (a) or (0, a), its word is a run
    of a letters, and the cycle ends in a run of 2a of the same letter:
    make_periodic rotates the whole prefix word into the period.
    """
    _check_kind(value, (int, Fraction))
    value = Fraction(value)
    prefix, cycle = sqrt_cf(value.numerator, value.denominator)
    cyc = cycle if len(cycle) % 2 == 0 else cycle + cycle
    letters = "01" if len(prefix) % 2 else "10"  # the cycle's runs go on alternating
    return make_periodic(_run_word(prefix, "10"), _run_word(cyc, letters))


def classify_type(period: FiniteDesign) -> int:
    """Type 1-4 of the pure value by whether the end runs are empty: the
    run list starts and ends with a run of 1s, so by the end letters."""
    w = _check_period(period).bits
    first, last = w[0] == "1", w[-1] == "1"
    if first:
        return 2 if last else 1
    return 4 if last else 3


def purity_test(t: Fraction) -> Purity:
    """Classify the value at rational theta by the denominator's 2-part."""
    _check_kind(t, (int, Fraction))
    if t < 0 or t >= 1:
        raise OutOfRange("theta must lie in [0, 1), got {}", t)
    q = t.denominator
    if q & (q - 1) == 0:
        return Purity.RATIONAL
    return Purity.PURE if q % 2 else Purity.NON_PURE
