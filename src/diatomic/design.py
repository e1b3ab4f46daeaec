"""Design words: finite 0/1 words, terminal markers, eventually periodic words.

A finite design of length n is a binary word for some m with
0 <= m <= 2**n - 1; the terminal design of length n stands for m = 2**n
and is flagged rather than spelled out, so it stays distinct from the
length-(n+1) word 10...0.  Eventually periodic designs are held as a
canonical (preperiod, period) pair: the period is primitive and the
preperiod is minimal, which makes equality and the theta value decidable.

Text grammar (also the CLI wire format):

    design   := [01]*            finite word, '' is the empty design
              | [01]* 't'        terminal design; length = number of bits
              | [01]* '(' [01]+ ')'   eventually periodic word
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt

from ._backend import _pair_word, continuant_pair
from ._value import Value, _set, trusted
from .errors import (
    DesignSyntaxError,
    InvalidPeriod,
    MalformedRuns,
    NotCoprime,
    OutOfRange,
    TerminalDesign,
    ZeroInput,
    _check_kind,
)

__all__ = ["FiniteDesign", "PeriodicDesign", "Design", "make_periodic", "parse_design", "runs",
           "from_runs", "design_number", "partial_quotients", "realizing_pair", "euclidean_design",
           "conjugate", "inverse_design", "compose", "reduce", "is_reduced", "is_primitive",
           "theta_of", "design_of_theta"]


_BITS = str.maketrans("", "", "01")  # deletes the two letters
_FLIP = str.maketrans("01", "10")


def _check_word(word: str) -> None:
    _check_kind(word, str)
    if word.translate(_BITS):
        raise DesignSyntaxError("design word may contain only 0 and 1: {!r}", word)


def _terminal_word(n: int) -> str:
    return "1" + "0" * (n - 1) if n else ""


class FiniteDesign(Value):
    """A finite design; ``terminal`` marks the row-end value 2**n."""

    __slots__ = _fields = ("bits", "terminal")

    def __init__(self, bits: str, terminal: bool = False):
        _check_word(bits)
        _check_kind(terminal, bool)
        if terminal and bits != _terminal_word(len(bits)):
            raise DesignSyntaxError("terminal design carries only its length")
        _set(self, "bits", bits)
        _set(self, "terminal", terminal)

    @classmethod
    def terminal_of(cls, n: int) -> "FiniteDesign":
        _check_kind(n, int)
        if n < 0:
            raise OutOfRange("terminal length must be >= 0, got {}", n)
        if n > sys.maxsize:  # no string holds the word; _terminal_word would raise
            raise OutOfRange("a word of more than {} letters is too long to build", sys.maxsize)
        return cls(_terminal_word(n), terminal=True)

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def number(self) -> int:
        if self.terminal:
            return 1 << len(self.bits)
        return int(self.bits, 2) if self.bits else 0

    @property
    def is_empty(self) -> bool:
        return not self.bits and not self.terminal

    def __str__(self) -> str:
        return self.bits + ("t" if self.terminal else "")


class PeriodicDesign(Value):
    """Canonical eventually periodic design.

    Invariants: the period is nonempty, not all one symbol, primitive
    (no shorter word repeats into it), and the preperiod cannot be
    shortened by rotating a shared trailing bit into the period.  The
    constructor checks them all; the library's own canonicalisation and
    conjugation build a pair they know to be canonical with the trusted
    maker instead, so as not to check it again.
    """

    __slots__ = _fields = ("preperiod", "period")

    def __init__(self, preperiod: FiniteDesign, period: FiniteDesign):
        _check_kind(preperiod, FiniteDesign)
        _check_kind(period, FiniteDesign)
        if preperiod.terminal or period.terminal:
            raise DesignSyntaxError("periodic design parts must be plain words")
        per = period.bits
        if not per or not per.strip("0") or not per.strip("1"):
            raise InvalidPeriod("period {!r} must mix 0s and 1s", per)
        if not _is_primitive_word(per):
            raise InvalidPeriod("period {!r} repeats a shorter word", per)
        if preperiod.bits and preperiod.bits[-1] == per[-1]:
            raise InvalidPeriod("preperiod can be rotated into the period")
        _set(self, "preperiod", preperiod)
        _set(self, "period", period)

    def __str__(self) -> str:
        return f"{self.preperiod.bits}({self.period.bits})"


Design = FiniteDesign | PeriodicDesign

# makers for a word known to hold only 0s and 1s (with terminal False), and
# for a canonical pair of plain words
_word = trusted(FiniteDesign)
_periodic = trusted(PeriodicDesign)


def _bits(m: int, n: int) -> str:
    """The n-bit word of m, for 0 <= m < 2**n."""
    return format(m, "b").zfill(n) if n else ""


def _design_of(m: int, n: int) -> FiniteDesign:
    """The inverse of design_number, for 0 <= m <= 2**n: terminal when m >> n.
    With _bits it is the one way from an (m, n) pair back to a word."""
    if m >> n:
        return _word(_terminal_word(n), True)
    return _word(_bits(m, n), False)  # a word printed by _bits


def _run_word(ks, letters: str) -> str:
    """The word of alternating runs of the two letters, the first one first.
    A run past sys.maxsize letters, which no string can hold, raises OutOfRange."""
    try:
        return "".join(letters[i & 1] * k for i, k in enumerate(ks))
    except OverflowError:  # letter * k, caught once here to keep the join lean
        raise OutOfRange("a run of more than {} letters is too long to build",
                         sys.maxsize) from None


def _is_primitive_word(word: str) -> bool:
    # a word is a proper power exactly when it recurs inside its own square
    return (word + word).find(word, 1) == len(word)


def make_periodic(pre: str, per: str) -> Design:
    """Canonicalize a (preperiod, period) word pair, keeping theta fixed.

    All-zero periods collapse to the finite preperiod; all-one periods
    carry into it (a trailing 111... tail is a dyadic reached from below).
    """
    _check_word(pre)
    _check_word(per)
    if not per:
        raise InvalidPeriod("period must be nonempty")
    if not per.strip("0"):
        return FiniteDesign(pre)
    if not per.strip("1"):
        m, n = int(pre or "0", 2) + 1, len(pre)
        return _design_of(1, 0) if m >> n else _design_of(m, n)  # a carry out is 1 = 1/2^0
    return _canonical(pre, per[:(per + per).find(per, 1)])  # primitive root


def _canonical(pre: str, per: str) -> PeriodicDesign:
    """The canonical pair for a primitive period that mixes 0s and 1s:
    every trailing preperiod bit that the period repeats rotates into it."""
    if pre:
        n, k = len(per), len(pre)
        diff = int(pre, 2) ^ int((per * (k // n + 1))[-k:], 2)
        c = (diff & -diff).bit_length() - 1 if diff else k
        r = c % n
        per, pre = per[n - r:] + per[:n - r], pre[:k - c]
    # slices and rotations of checked words, or words printed by _bits
    return _periodic(_word(pre, False), _word(per, False))


def parse_design(text: str) -> Design:
    """Parse the design grammar; periodic results come out canonical."""
    _check_kind(text, str)
    text = text.strip()
    if text.endswith("t"):
        body = text[:-1]
        if "(" in body or ")" in body:
            raise DesignSyntaxError("terminal marker cannot combine with a period")
        _check_word(body)
        return FiniteDesign.terminal_of(len(body))
    if "(" in text:
        head, _, rest = text.partition("(")
        per, close, tail = rest.partition(")")
        if not close or tail:
            raise DesignSyntaxError("unbalanced period group in {!r}", text)
        if not per:
            raise DesignSyntaxError("empty period group")
        return make_periodic(head, per)
    if ")" in text:
        raise DesignSyntaxError("unbalanced period group in {!r}", text)
    return FiniteDesign(text)


def _plain(d: FiniteDesign, refusal: str) -> str:
    """The word of d, a FiniteDesign that is not terminal: another kind raises
    _check_kind's OutOfRange, and a terminal design TerminalDesign(refusal)."""
    if not isinstance(d, FiniteDesign):
        _check_kind(d, FiniteDesign)
    if d.terminal:
        raise TerminalDesign(refusal)
    return d.bits


def runs(d: FiniteDesign) -> tuple[int, ...]:
    """Odd-length run encoding 1^k0 0^k1 ... 1^k_{l-1}; end runs may be 0."""
    return _runs_of_word(_plain(d, "terminal designs have the fixed encoding (1, n, 0)"))


def _byte_runs(b: int) -> tuple:
    """(first, interior, last) runs of the 8-letter word of b, split where the
    letter changes; () for a byte of one letter."""
    rs = [len(r) for r in format(b, "08b").replace("01", "0 1").replace("10", "1 0").split()]
    return (rs[0], tuple(rs[1:-1]), rs[-1]) if len(rs) > 1 else ()


_BYTE_RUNS = [_byte_runs(b) for b in range(256)]


def _runs_of_word(word: str) -> tuple[int, ...]:
    """Eight letters per step: each byte of the word indexes its runs.

    k counts the open run, of the letter s, and is stored once, when the
    run ends.  1s put in front to fill the first byte lengthen only the
    first run of 1s, so k starts at minus their count.
    """
    pad = -len(word) & 7
    ks = []
    s, k = 1, -pad
    for b in int("1" * pad + word or "0", 2).to_bytes((len(word) + pad) >> 3, "big"):
        if b >> 7 != s:
            ks.append(k)
            k = 0
        t = _BYTE_RUNS[b]
        if t:
            first, interior, last = t
            ks.append(k + first)
            ks.extend(interior)
            k = last
        else:
            k += 8
        s = b & 1
    ks.append(k)
    if s == 0:
        ks.append(0)
    return tuple(ks)


def _entries(xs, what: str) -> tuple:
    """tuple(xs), with MalformedRuns naming the type of an xs that is not iterable."""
    try:
        return tuple(xs)
    except TypeError:
        raise MalformedRuns("{} must be an iterable of integers, got {}", what,
                            type(xs).__name__) from None


def _check_runs(ks: Iterable[int]) -> tuple[int, ...]:
    ks = _entries(ks, "runs")
    if not all(map(isinstance, ks, repeat(int))):
        raise MalformedRuns("runs must be integers: {}", ks)
    if len(ks) % 2 == 0:
        raise MalformedRuns("run list length must be odd: {}", ks)
    if min(ks) < 0:
        raise MalformedRuns("negative run in {}", ks)
    if min(ks[1:-1], default=1) < 1:  # a one-item list has no interior
        raise MalformedRuns("interior runs must be positive: {}", ks)
    return ks


def from_runs(ks: Iterable[int]) -> FiniteDesign:
    """Inverse of runs()."""
    return _word(_run_word(_check_runs(ks), "10"), False)  # runs of the two letters


def design_number(d: FiniteDesign) -> tuple[int, int]:
    """(m, n) with m the word value and n the length; terminal gives (2**n, n)."""
    _check_kind(d, FiniteDesign)
    return d.number, d.length


def _check_coprime_pair(a: int, b: int) -> None:
    _check_kind(a, int)
    _check_kind(b, int)
    if a < 1 or b < 1:
        raise ZeroInput("need positive integers, got ({}, {})", a, b)
    if gcd(a, b) != 1:
        raise NotCoprime("({}, {}) share a factor", a, b)


def partial_quotients(a: int, b: int) -> tuple[int, ...]:
    """Euclidean quotients of a generated by b, for coprime positive a, b.

    The first quotient may be 0 (when a < b); the last is >= 2 except for
    the single case (1, 1) -> (1,).
    """
    _check_coprime_pair(a, b)
    rs = []
    hi, lo = a, b
    while lo:
        rs.append(hi // lo)
        hi, lo = lo, hi % lo
    return tuple(rs)


def realizing_pair(rs: Iterable[int]) -> tuple[int, int]:
    """The unique coprime (a, b) whose quotients are rs; inverts partial_quotients."""
    rs = _entries(rs, "quotients")
    if not all(isinstance(r, int) for r in rs):
        raise MalformedRuns("quotients must be integers: {}", rs)
    if rs == (1,):
        return 1, 1
    if not rs or rs[0] < 0 or any(r < 1 for r in rs[1:-1]) or rs[-1] < 2:
        raise MalformedRuns("not a quotient sequence: {}", rs)
    b, a = continuant_pair(rs[::-1])  # a continuant reads the same reversed
    return a, b


def euclidean_design(a: int, b: int) -> FiniteDesign:
    """The reduced design of a/b: the Stern-Brocot path of (a, b), then "1".
    Its runs are the partial quotients of a/b, the last one short by 1."""
    _check_coprime_pair(a, b)
    return _word(_pair_word(a, b) + "1", False)  # the walk writes only 0s and 1s


def conjugate(d: Design) -> Design:
    """Finite: the design of 2**n - m at the same length.  Periodic: flip bits."""
    _check_kind(d, (FiniteDesign, PeriodicDesign))
    if isinstance(d, PeriodicDesign):
        # flipping every bit keeps a canonical design canonical
        return _periodic(_word(_flip(d.preperiod.bits), False),
                         _word(_flip(d.period.bits), False))
    return _design_of((1 << d.length) - d.number, d.length)


def _flip(word: str) -> str:
    return word.translate(_FLIP)


def inverse_design(d: FiniteDesign) -> FiniteDesign:
    """Reverse the run-length list; an involution that preserves the table value.
    The list starts and ends with a run of 1s, maybe empty: it reverses the word."""
    word = _plain(d, "terminal designs have the fixed encoding (1, n, 0)")
    return _word(word[::-1], False)  # the reversal of a checked word


def compose(d: FiniteDesign, d2: Design) -> Design:
    """Concatenate words: theta(d d2) = theta(d) + 2**-n * theta(d2).

    On design numbers d2 adds m2 below m: a terminal one (m2 = 2**n2) adds 1
    to d, and the all-ones d overflows into the longer terminal design.
    """
    word = _plain(d, "left factor must be a plain word")
    _check_kind(d2, (FiniteDesign, PeriodicDesign))
    if isinstance(d2, PeriodicDesign):
        return make_periodic(word + d2.preperiod.bits, d2.period.bits)
    return _design_of((d.number << d2.length) + d2.number, d.length + d2.length)


def reduce(d: FiniteDesign) -> FiniteDesign:
    """Strip trailing zeros; the theta value is unchanged."""
    return FiniteDesign(_plain(d, "terminal designs do not reduce").rstrip("0"))


def is_reduced(d: FiniteDesign) -> bool:
    """Odd design number; the two length-0 designs count as reduced."""
    _check_kind(d, FiniteDesign)
    if d.terminal:
        return d.length == 0
    return not d.bits or d.bits.endswith("1")


def is_primitive(d: FiniteDesign) -> bool:
    """Reduced with the leading bit set, i.e. 2**(n-1) <= m <= 2**n - 1."""
    _check_kind(d, FiniteDesign)
    if d.terminal or not d.bits:
        return False
    return d.bits.startswith("1") and d.bits.endswith("1")


def theta_of(d: Design) -> Fraction:
    """The binary value in [0, 1] of the design's (possibly infinite) word."""
    _check_kind(d, (FiniteDesign, PeriodicDesign))
    if isinstance(d, PeriodicDesign):
        mp, k = d.preperiod.number, d.preperiod.length
        mpp, n = d.period.number, d.period.length
        top = (1 << n) - 1
        return Fraction(top * mp + mpp, (1 << k) * top)
    return Fraction(d.number, 1 << d.length)  # a terminal design's 2**n / 2**n is 1


def _order_of_two(q: int) -> int:
    """The multiplicative order of 2 modulo an odd q, in O(sqrt(q)) steps.

    Baby steps store 2^j mod q for j < k = isqrt(q) + 1 and return at once
    when 2^j = 1, so an order of at most k costs only its own length.  A
    longer order lies in ((i-1)k, ik] for the first giant step i with
    2^(ik) = 2^j, and is n = ik - j (Shanks).
    """
    k = isqrt(q) + 1
    baby, x = {}, 1
    for j in range(k):
        baby[x] = j
        x = 2 * x % q
        if x == 1:
            return j + 1
    i, y = 1, x  # x = 2^k
    while y not in baby:
        i, y = i + 1, y * x % q
    return i * k - baby[y]


def design_of_theta(t: Fraction) -> Design:
    """The unique canonical design with the given theta.

    Dyadic values give the reduced finite design (1 gives the length-0
    terminal).  For other rationals, with q = 2**k * q' and q' odd, the
    k-bit preperiod is the integer part of 2**k * t, and the period has
    length n = ord_q'(2), found in O(sqrt(q')) steps (O(n) when n is at
    most sqrt(q')): its bits are the remainder r of 2**k * t times
    (2**n - 1) / q', one big-int quotient.  _canonical rotates the tail.
    """
    _check_kind(t, (int, Fraction))
    if t < 0 or t > 1:
        raise OutOfRange("theta must lie in [0, 1], got {}", t)
    q = t.denominator
    if q & (q - 1) == 0:
        return _design_of(t.numerator, q.bit_length() - 1)
    k = (q & -q).bit_length() - 1
    odd = q >> k
    head, r = divmod(t.numerator, odd)
    n = _order_of_two(odd)
    # r is prime to q' > 1, so r/q' has least period n: the word is primitive,
    # and 0 < r < q' keeps it off all 0s and all 1s
    return _canonical(_bits(head, k), _bits(r * ((1 << n) - 1) // odd, n))
