"""Domain errors raised by the library.

Everything derives from DomainError so callers (notably the CLI) can
catch one type and map it to a diagnostic exit.
"""

from fractions import Fraction


# 2**209 < 10**63: an int of at most this many bits prints in 64 characters, sign included
_INT_BITS = 209


def _text(x) -> str:
    """An operand as str() prints it, but named by its size past 64
    characters, decided without printing a long integer or list: an int past
    _INT_BITS bits, alone or as a part of a Fraction, by its bit length; a
    tuple or list by its length and its items' largest bit length, nested
    items too; and a quoted text by its length or digit count."""
    if isinstance(x, str) and len(x) > 64:
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
            return f"<{'-' if digits != x else ''}{len(digits)}-digit integer>"
        return f"<{len(x)}-character text>"
    bits = _most_bits(x)
    if isinstance(x, (tuple, list)):
        # 22 items print in at least 66 characters: only a shorter list is
        # printed to measure it, and only when its least width is no more than 64
        if len(x) < 22 and bits <= _INT_BITS and _width(x) <= 64 and len(text := str(x)) <= 64:
            return text
        return f"<{type(x).__name__} of length {len(x)}, items up to {bits} bits>"
    if bits <= _INT_BITS:
        return str(x)
    num, den = x.numerator, x.denominator
    if den != 1:
        return f"{_text(num)}/{_text(den)}"
    return f"<{'-' if num < 0 else ''}{num.bit_length()}-bit integer>"


def _most_bits(x) -> int:
    """The largest bit length of an int or a Fraction part in x, which may
    be one or a tuple or list of them, nested to any depth; 0 if none."""
    if isinstance(x, (tuple, list)):
        return max(map(_most_bits, x), default=0)
    if isinstance(x, (int, Fraction)):
        return max(abs(x.numerator), x.denominator).bit_length()
    return 0


def _width(x) -> int:
    """A lower bound on the length of x as a list prints it, found without
    printing x: a text, bytes, dict or set by its length (a character per
    item at least), a tuple or list by its items' bounds and two characters
    each, an int by its bit length, anything else as 0."""
    if isinstance(x, (str, bytes, bytearray, dict, set, frozenset)):
        return len(x)
    if isinstance(x, (tuple, list)):
        return 2 * len(x) + sum(map(_width, x))
    return x.bit_length() // 4 if isinstance(x, int) else 0


def _check_kind(x, kind) -> None:
    """Refuse anything but an instance of kind, a type or a tuple of types;
    a bool counts as an int.  The message names each type with its article,
    "an" before a, e, i or o only: "need an int or a Fraction", "need a
    UniModMatrix"."""
    if not isinstance(x, kind):
        names = [k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,))]
        raise OutOfRange("need {}, got {}", " or ".join(
            ("an " if n[0] in "aeioAEIO" else "a ") + n for n in names), type(x).__name__)


class DomainError(ValueError):
    """Base class for all contract violations.  The message's {} fields take
    the operands after it, as _text prints them; a message alone is kept."""

    def __init__(self, message: str, *operands):
        super().__init__(message.format(*map(_text, operands)) if operands else message)


class OutOfTable(DomainError):
    """Order exceeds 2**depth for a table address."""


class OutOfRange(DomainError):
    """Argument outside the documented interval."""


class TerminalDesign(DomainError):
    """Operation not defined on terminal designs."""


class MalformedRuns(DomainError):
    """Run-length list violates the odd-length block convention."""


class DesignSyntaxError(DomainError):
    """Design text does not match the grammar."""


class NotCoprime(DomainError):
    pass


class ZeroInput(DomainError):
    pass


class NotUnimodular(DomainError):
    """Matrix determinant is not 1."""


class NegativeEntry(DomainError):
    """Matrix entry outside the nonnegative monoid."""


class InsufficientBits(DomainError):
    """Fewer bits supplied than the requested truncation depth."""


class InvalidPeriod(DomainError):
    """Period word is empty, all-zeros, or all-ones."""


class PerfectSquare(DomainError):
    """Square root of a perfect square is rational, not quadratic."""


class NonPositive(DomainError):
    pass


class ZeroLength(DomainError):
    pass
