"""Stern's diatomic sequence and its depth/order table addressing.

The table entry at depth n, order m (0 <= m <= 2**n) is the sequence
value a_m; the address carries where the value sits, which is what the
rest of the library keys on.
"""

from __future__ import annotations

from functools import lru_cache

from ._backend import bits_matrix, stern_pair
from .errors import OutOfTable, _check_kind

__all__ = ["stern", "sdi", "sdi_quadruple"]


def stern(m: int) -> int:
    """a_m, the first of the pair (a_m, a_{m+1}): a generator-matrix product
    along the bits of m, folded in a balanced tree for long indices."""
    _check_kind(m, int)
    if m < 0:
        raise OutOfTable("sequence index must be nonnegative, got {}", m)
    return stern_pair(m)[0]


def sdi(depth: int, order: int) -> int:
    """Table value at (depth, order); rejects orders past the row end."""
    _check_address(depth, order, limit_offset=0)
    if order.bit_length() > depth:  # past the check only 2^depth, the row end a_{2^n} = 1
        return 1
    return stern_pair(order)[0]


def sdi_quadruple(depth: int, order: int) -> tuple[int, int, int, int]:
    """The four row-n values around order m:

    ([2^n:m+1], [2^n:m], [2^n:2^n-(m+1)], [2^n:2^n-m])

    They are the matrix of the n-bit word of m, so a miss is one product
    along the bits of m.  Cached in a few entries, read-through, so
    concurrent readers are safe; the two sides of a quotient scan share
    their period's address.  The address is checked before the cache
    hashes it, so a list is refused.
    """
    _check_address(depth, order, limit_offset=1)
    return _quadruple(depth, order)


_quadruple = lru_cache(maxsize=8, typed=True)(lambda n, m: bits_matrix(m, n))
sdi_quadruple.cache_info, sdi_quadruple.cache_clear = _quadruple.cache_info, _quadruple.cache_clear


def _check_address(depth: int, order: int, limit_offset: int) -> None:
    _check_kind(depth, int)
    _check_kind(order, int)
    if depth < 0 or order < 0:
        raise OutOfTable("negative address ({}, {})", depth, order)
    bits = order.bit_length()
    # order > 2^depth - offset, with neither 2^depth nor a copy of order built:
    # past depth bits, or at offset 0 past depth + 1 bits or not 2^depth itself
    if bits > depth and (limit_offset or bits > depth + 1 or order.bit_count() > 1):
        raise OutOfTable("order {} exceeds row end 2^{}" + (" - 1" if limit_offset else ""),
                         order, depth)
