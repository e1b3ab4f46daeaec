"""Continuants and continued fractions over exact integers.

A continuant is the fold of its recursion (empty word gives 1) and a continued
fraction the ratio of two consecutive ones, which are coprime as a column of
a det +-1 product of (k 1; 1 0) matrices; each value is that reduced pair.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._backend import continuant_pair
from .design import _check_runs, _entries
from .errors import MalformedRuns
from .rational import ExtRational, _ratio

__all__ = ["continuant", "cf_eval", "sdi_corner_continuants", "cf_product_decomposition"]


def continuant(ks: Iterable[int]) -> int:
    """[k0, ..., k_{l-1}] by the left-to-right recursion; [] gives 1.

    sum() first refuses an entry that no int adds to (a str, list, tuple
    or bytes), which the fold would repeat as often as the continuant before it.
    A float or Fraction entry carries its type into the value, so checking
    the value's type rejects one.
    """
    try:
        ks = list(ks)
        sum(ks)
        value = continuant_pair(ks)[1]
    except (OverflowError, TypeError):  # a float past its range, or not a number
        value = None
    if not isinstance(value, int):
        raise MalformedRuns("continuant entries must be integers")
    return value


def _check_cf_word(ks) -> tuple[int, ...]:
    ks = _entries(ks, "continued fraction word")
    if not ks:
        raise MalformedRuns("continued fraction word must be nonempty")
    if not all(isinstance(k, int) for k in ks):
        raise MalformedRuns("continued fraction entries must be integers: {}", ks)
    if ks[0] < 0 or ks[-1] < 0 or any(k < 1 for k in ks[1:-1]):
        raise MalformedRuns("bad continued fraction word {}", ks)
    return ks


def cf_eval(ks: Iterable[int]) -> ExtRational:
    """Value of CF(k0, ..., k_{l-1}) in the extended rationals."""
    ks = _check_cf_word(ks)
    # K(ks) / K(ks[1:]): consecutive continuants, so a reduced pair
    den, num = continuant_pair(ks[::-1])
    return _ratio(num, den)


def sdi_corner_continuants(ks: Iterable[int]) -> tuple[int, int, int, int]:
    """The matrix quadruple of a run word, as continuants:

    ([k0..k_{l-1}], [k1..k_{l-1}], [k0..k_{l-2}], [k1..k_{l-2}])

    For a single-run word this degenerates to (k0, 1, 1, 0).
    """
    ks = _check_runs(ks)
    head_prev, head = continuant_pair(ks)
    tail_prev, tail = continuant_pair(ks[1:])
    return head, tail, head_prev, tail_prev


def cf_product_decomposition(ks: Iterable[int]) -> list[ExtRational]:
    """The tail values CF(k_j, ..) whose product telescopes to the continuant.

    Words ending in 0 are first truncated by two entries; a bare (k0, 0)
    or (0,) has no decomposition.
    """
    ks = _check_runs_for_product(ks)
    # tail j is K(ks[j:]) / K(ks[j+1:]), a reduced pair with a denominator
    # >= 1 as ks[1:] is positive; the product telescopes to K(ks) / K(()) = K(ks)
    tails, cur, nxt = [], 1, 0
    for k in reversed(ks):
        cur, nxt = k * cur + nxt, cur
        tails.append(_ratio(cur, nxt))
    tails.reverse()
    return tails


def _check_runs_for_product(ks) -> tuple[int, ...]:
    ks = _check_cf_word(ks)
    if ks[-1] >= 1:
        return ks
    if len(ks) < 3:
        raise MalformedRuns("no tail decomposition for {}", ks)
    return ks[:-2]
