"""Integer kernels.

Three loops do all the work.  The word product multiplies the generators
U("1") = (1 1; 0 1) and U("0") = (1 0; 1 1) along a 0/1 word, one table
matrix per byte of the integer it spells; the z fewer 0s in front of those
bytes' word are U("0")**z = (1 0; z 1), and leave a top row as it is.  The
sequence pair is read off a top row, and only that row is built.  The
continuant fold multiplies the matrices (k 1; 1 0) along a list.  The pair
walk reads off the Stern-Brocot path of a coprime pair: a matrix's word,
and a ratio's reduced design.  Above a measured cutoff the products are
built as a balanced tree, so the large multiplications fall where
CPython's Karatsuba pays, and the walk starts with half-gcd rounds on the
top bits.  A kernel that returns a top row builds the tree's spine as
rows: the left half's top row times the right half's product.  The tree's
byte leaves and the half-gcd's base peel keep a matrix as two columns,
each one int of two L-bit lanes (top entry high), so a byte or a run
updates both rows in one operation.  No lane carries, as L exceeds every
entry's bit length: a leaf's entries are at most 2**_LEAF_BITS, and a
peel's at most the larger of its pair.  The walk and the peel read the
path a byte at a time too: a table guesses the byte from the slot of the
ratio x / (x + y) alone, and a byte step (x, y) <- M^-1 (x, y) is kept
only when both new values stay positive (at least the peel's floor).  That
proves the path starts with the byte, as every pair between is a
nonnegative matrix times the new pair, so a wrong guess costs one run step
and never a wrong letter.  Both loops take a run of 1s by one division,
j = (x - floor) // y letters, the most that keep x >= floor (floor 1 in
the walk), and a run of 0s likewise.  Inputs are pre-validated by the
public modules.  All arithmetic is on Python ints, so there is no
magnitude limit; only a path run too long for one string is refused.
"""

import sys

from .errors import OutOfRange

BACKEND = "python"

# Cutoffs, each where the fast route overtook its kernel's linear loop when
# timed on random words and their run lengths (Python 3.11, see CHANGES.md).
_LEAF_BITS = 128  # word letters (16 bytes) per tree leaf
_LETTERS = 24  # word_matrix: word length above which the word is read as bytes
_WORD_BYTES = 8  # bits_matrix: bytes of m above which the tree runs
_ROW_BYTES = 384  # stern_pair: bytes of m above which the row tree runs
_LEAF_ITEMS = 64  # continuant items per tree leaf
_CONT_ITEMS = 3072  # continuant_pair: list length above which the tree runs
_HGCD_BITS = 2048  # _pair_word: pair size above which the half-gcd runs
_PEEL_BITS = 640  # half-gcd: pair size peeled a byte or a run at a time


def stern_pair(m):
    """Return (a_m, a_{m+1}) of the diatomic sequence, the top row of the
    matrix of the word of m, reversed.  The 0s in front of m's bytes leave
    that row unchanged, so only it is built, over the bytes."""
    data = m.to_bytes((m.bit_length() + 7) >> 3, "big")
    if len(data) > _ROW_BYTES:
        a, b = _row(_leaves(data))
        return b, a
    a, b = 1, 0
    for v in data:
        p, q, r, s = _BYTE_MATRICES[v]
        a, b = a * p + b * r, a * q + b * s
    return b, a


def bits_matrix(m, n):
    """The matrix of the n-bit word of m, for 0 <= m < 2**n, from m's k bytes,
    whose word has z = n - 8k fewer 0s in front: U("0")**z = (1 0; z 1), for
    z of either sign, adds z times the top row to the bottom row."""
    data = m.to_bytes((m.bit_length() + 7) >> 3, "big")
    z = n - 8 * len(data)
    if len(data) > _WORD_BYTES:
        a, b, c, d = _product(_leaves(data))
        return a, b, c + z * a, d + z * b
    a, b, c, d = 1, 0, z, 1
    for v in data:
        p, q, r, s = _BYTE_MATRICES[v]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return a, b, c, d


def continuant_pair(ks):
    """Fold the continuant recursion; return (value of ks[:-1], value of ks)."""
    if len(ks) > _CONT_ITEMS:
        # (value, value of ks[:-1]) is the top row of the product of (k 1; 1 0).
        cur, prev = _row([_continuant_leaf(ks[i:i + _LEAF_ITEMS])
                          for i in range(0, len(ks), _LEAF_ITEMS)])
        return prev, cur
    prev, cur = 0, 1
    for x in ks:
        prev, cur = cur, cur * x + prev
    return prev, cur


def word_matrix(bits):
    """Product of the two generator matrices along a 0/1 word, row-major 2x2."""
    if len(bits) > _LETTERS:
        return bits_matrix(int(bits, 2), len(bits))
    a, b, c, d = 1, 0, 0, 1
    for ch in bits:
        if ch == "1":
            b = a + b
            d = c + d
        else:
            a = a + b
            c = c + d
    return a, b, c, d


def matrix_word(a, b, c, d):
    """Factor a nonnegative determinant-1 matrix into its unique 0/1 word: the
    path of (a + b, c + d), the image of (1, 1).  ValueError outside the monoid."""
    if (a | b | c | d) < 0 or a * d - b * c != 1:
        raise ValueError("matrix is not in the nonnegative unimodular monoid")
    # (a + b) d - (c + d) b = 1, so the pair is coprime and positive.
    return _pair_word(a + b, c + d)


def _pair_word(x, y):
    """The Stern-Brocot path of a coprime positive pair: "1" while x > y
    (x -= y), "0" while y > x (y -= x), until (1, 1).  Above the cutoff,
    half-gcd rounds take the pair down to _PEEL_BITS first.  While the pair
    has 13 bits or more, a step takes its next mixed byte where it can, and
    else its next run by one division; below, the letters go one at a time.
    A run past sys.maxsize letters, which no string can hold, raises
    OutOfRange.
    """
    out = []
    if (x | y) >> _HGCD_BITS:
        while max(x, y).bit_length() > _PEEL_BITS:
            try:
                prefix, _, x, y = _half(x, y)
            except OverflowError:  # "1" * j in a base peel, caught here to keep its loop lean
                raise OutOfRange("a path run of more than {} letters is too long to build",
                                 sys.maxsize) from None
            if not prefix:  # a run too long for a half step: walk the rest
                break
            out += prefix
    while x != y and (x | y) >> 12:
        v = _SLOTS[(x << 12) // (x + y)]
        if 0 < v < 255:
            a, b, c, d = _BYTE_MATRICES[v]
            x1, y1 = d * x - b * y, a * y - c * x
            if x1 > 0 and y1 > 0:
                x, y = x1, y1
                out.append(_BYTE_WORDS[v])
                continue
        # else the next run, by one division
        if x > y:
            j = (x - 1) // y
            x -= j * y
            letter = "1"
        else:
            j = (y - 1) // x
            y -= j * x
            letter = "0"
        if j > sys.maxsize:  # letter * j would raise OverflowError
            raise OutOfRange("a path run of {} letters is too long to build", j)
        out.append(letter * j)
    while x != y:  # below 2**12, a letter at a time
        while x > y:
            x -= y
            out.append("1")
        while y > x:
            y -= x
            out.append("0")
    return "".join(out)


# ------------------------------------------------------------ product tree


def _product(mats):
    """Product of a nonempty list of row-major 2x2 matrices, in balanced pairs."""
    while len(mats) > 1:
        pairs = [
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for (a, b, c, d), (e, f, g, h) in zip(mats[::2], mats[1::2])
        ]
        if len(mats) & 1:
            pairs.append(mats[-1])
        mats = pairs
    return mats[0]


def _row(mats):
    """Top row of the product of a nonempty list of 2x2 matrices: the left
    half's top row times the right half's product, so that the spine of the
    tree never builds a bottom row."""
    if len(mats) == 1:
        return mats[0][:2]
    h = len(mats) >> 1
    a, b = _row(mats[:h])
    e, f, g, u = _product(mats[h:])
    return a * e + b * g, a * f + b * u


# The generator product along each byte's 8-letter word, by the letter loop.
_BYTE_WORDS = [format(v, "08b") for v in range(256)]
_BYTE_MATRICES = [word_matrix(w) for w in _BYTE_WORDS]


def _slot_table():
    """The byte of each of the 2**12 slots of x / (x + y): the one whose
    interval holds the slot's upper end.  Byte v's matrix (a b; c d) maps
    the positive pairs onto the x/y interval (b/d, a/c), the bytes in order
    tile (0, inf), and slot u ends at (u + 1) / 2**12 <= a / (a + c) exactly
    when u < 2**12 a // (a + c).  Byte ends are more than 2**-12 apart, so
    every byte owns a slot, and a slot's pairs lie in its byte or the one below.
    """
    slots = []
    for v in range(255):
        a, _, c, _ = _BYTE_MATRICES[v]
        slots += [v] * ((a << 12) // (a + c) - len(slots))
    return slots + [255] * (4096 - len(slots))


_SLOTS = _slot_table()


def _leaves(data):
    """Generator products of the _LEAF_BITS-letter pieces of a byte string.

    Each column of a leaf's matrix is one int of two L-bit lanes, the top
    entry over the bottom: A = a << L | c and B = b << L | d.  A byte's
    matrix (p q; r s) moves the columns to A p + B r and A q + B s.  No
    lane carries: each letter at most doubles the largest entry, so a
    leaf's entries are at most 2**_LEAF_BITS < 2**L, and every term of a
    byte step is at most the entry it adds up to.
    """
    L = _LEAF_BITS + 1
    mask = (1 << L) - 1
    step = _LEAF_BITS >> 3
    leaves = []
    for i in range(0, len(data), step):
        A, B = 1 << L, 1
        for v in data[i:i + step]:
            p, q, r, s = _BYTE_MATRICES[v]
            A, B = A * p + B * r, A * q + B * s
        leaves.append((A >> L, B >> L, A & mask, B & mask))
    return leaves


def _continuant_leaf(ks):
    """Product of the (k 1; 1 0) matrices of a piece of a continuant list."""
    a, b, c, d = 1, 0, 0, 1
    for x in ks:
        a, b = a * x + b, a
        c, d = c * x + d, c
    return a, b, c, d


# ---------------------------------------------------------- half-gcd peel
#
# A word p is a prefix of the path of (x, y) exactly when P^-1 (x, y) is
# strictly positive, P the matrix of p.  The peels below return the chunks
# of a prefix (runs, and mixed bytes of eight letters), its matrix P and
# P^-1 (x, y).


def _half(x, y):
    """Peel the path of (x, y) while both stay >= 2**h, h = bits // 2 + 1.

    Each round peels the top k bits of the pair (at most half of them), by
    recursion, and lifts that prefix to the whole pair through its matrix.
    The recursion leaves both top values >= 2**(k // 2 + 1) and so its
    matrix entries below 2**(k - k // 2 - 1); the low bits then move the
    lifted pair by less than half its size, and with k <= 2 (bits - h) the
    lifted pair stays >= 2**h.  The exact positivity check still guards
    every lift, trimming whole chunks off the prefix until it holds.
    """
    n = max(x, y).bit_length()
    h = (n >> 1) + 1
    if n <= _PEEL_BITS:
        return _peel(x, y, 1 << h)
    floor = 1 << h
    chunks = []
    p, q, r, s = 1, 0, 0, 1
    while x >= floor and y >= floor:
        size = max(x, y).bit_length()
        k = min(2 * (size - h), n >> 1)
        if k < 32:  # a round would gain under 16 bits
            break
        shift = size - k
        sub, (e, f, g, u), hx, hy = _half(x >> shift, y >> shift)
        low = (1 << shift) - 1
        xl, yl = x & low, y & low
        x1 = (hx << shift) + u * xl - f * yl
        y1 = (hy << shift) + e * yl - g * xl
        while sub and (x1 < 1 or y1 < 1):
            # undo the last chunk by its matrix (a b; c d): a byte's, or a run's
            chunk = sub.pop()
            j = len(chunk)
            if chunk.count(chunk[0]) < j:
                a, b, c, d = _BYTE_MATRICES[int(chunk, 2)]
            else:
                a, b, c, d = (1, j, 0, 1) if chunk[0] == "1" else (1, 0, j, 1)
            x1, y1 = a * x1 + b * y1, c * x1 + d * y1
            e, f, g, u = e * d - f * c, f * a - e * b, g * d - u * c, u * a - g * b
        if not sub:
            break
        chunks += sub
        x, y = x1, y1
        p, q, r, s = p * e + q * g, p * f + q * u, r * e + s * g, r * f + s * u
    return chunks, (p, q, r, s), x, y


def _peel(x, y, floor):
    """Peel the path of (x, y) while both stay >= floor, a mixed byte of
    eight letters or else a run at a time.

    The columns of the prefix's matrix (p q; r s) are kept as two L-bit
    lanes of one int each, P = p << L | r and Q = q << L | s, so a run of j
    letters is one update, Q += j * P or P += j * Q, and a byte with matrix
    (a b; c d) moves them to P a + Q c and P b + Q d.  No lane carries: the
    matrix maps the peeled pair (x', y'), both >= 1, to (x, y), so
    p, q <= x and r, s <= y, and L is the bit length of the larger.
    """
    if x < floor or y < floor:
        return [], (1, 0, 0, 1), x, y
    L = max(x, y).bit_length()
    chunks = []
    P, Q = 1 << L, 1
    while True:
        v = _SLOTS[(x << 12) // (x + y)]
        if 0 < v < 255:
            a, b, c, d = _BYTE_MATRICES[v]
            x1, y1 = d * x - b * y, a * y - c * x
            if x1 >= floor and y1 >= floor:
                x, y = x1, y1
                P, Q = P * a + Q * c, P * b + Q * d
                chunks.append(_BYTE_WORDS[v])
                continue
        if x - y >= floor:  # the run of 1s that keeps x >= floor
            j = (x - floor) // y
            x -= j * y
            Q += j * P
            chunks.append("1" * j)
        elif y - x >= floor:
            j = (y - floor) // x
            y -= j * x
            P += j * Q
            chunks.append("0" * j)
        else:
            break
    mask = (1 << L) - 1
    return chunks, (P >> L, Q >> L, P & mask, Q & mask), x, y
