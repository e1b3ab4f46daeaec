"""Domain errors raised by the library.

Everything derives from DomainError so callers (notably the CLI) can
catch one type and map it to a diagnostic exit.
"""

from fractions import Fraction


def _text(x) -> str:
    """An operand as str() prints it, but with an integer that the
    interpreter's digit limit would refuse to convert named by its bit
    length: an int, each part of a Fraction, or a tuple by its length and
    its largest item's bit length, items of nested tuples and lists too;
    and a quoted text past 64 characters by its length or digit count."""
    if isinstance(x, str) and len(x) > 64:
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
            return f"<{'-' if digits != x else ''}{len(digits)}-digit integer>"
        return f"<{len(x)}-character text>"
    try:
        return str(x)
    except ValueError:
        if isinstance(x, tuple):
            return f"<tuple of length {len(x)}, items up to {_most_bits(x)} bits>"
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


def _check_int(x) -> None:
    """Refuse anything but an int (a bool counts as one) where an integer is read."""
    if not isinstance(x, int):
        raise OutOfRange("need an int, got {}", type(x).__name__)


def _check_str(x) -> None:
    """Refuse anything but a str where a word or a text is read."""
    if not isinstance(x, str):
        raise OutOfRange("need a str, got {}", type(x).__name__)


def _check_kind(x, cls: type) -> None:
    """Refuse anything but a cls where one of the library's values is read."""
    if not isinstance(x, cls):
        name = cls.__name__
        raise OutOfRange("need {} {}, got {}", "an" if name[0] in "AEIO" else "a", name,
                         type(x).__name__)


def _check_fraction(x) -> None:
    """Refuse anything but an int or a Fraction where an exact rational is read."""
    if not isinstance(x, (int, Fraction)):
        raise OutOfRange("need an int or a Fraction, got {}", type(x).__name__)


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
