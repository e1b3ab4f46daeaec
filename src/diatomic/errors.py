"""Domain errors raised by the library.

Everything derives from DomainError so callers (notably the CLI) can
catch one type and map it to a diagnostic exit.
"""


def operand_text(n: int) -> str:
    """n in decimal for an error message, or n named by its bit length where
    the interpreter's digit limit would refuse the conversion."""
    try:
        return str(n)
    except ValueError:
        return f"<{'-' if n < 0 else ''}{n.bit_length()}-bit integer>"


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
