"""Domain errors raised by the library.

Everything derives from DomainError so callers (notably the CLI) can
catch one type and map it to a diagnostic exit.
"""


def operand_text(n) -> str:
    """An int or a Fraction n as str() prints it for an error message, but
    with an integer part that the interpreter's digit limit would refuse to
    convert named by its bit length."""
    try:
        return str(n)
    except ValueError:
        num, den = n.numerator, n.denominator
        if den != 1:
            return f"{operand_text(num)}/{operand_text(den)}"
        return f"<{'-' if num < 0 else ''}{num.bit_length()}-bit integer>"


def operands_text(ks: tuple) -> str:
    """A tuple of ints as str() prints it for an error message, or named by
    its length and its largest item's bit length where an item passes the
    interpreter's digit limit."""
    try:
        return str(ks)
    except ValueError:
        return f"<tuple of length {len(ks)}, items up to {max(k.bit_length() for k in ks)} bits>"


class DomainError(ValueError):
    """Base class for all contract violations."""


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
