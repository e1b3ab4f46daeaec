"""Integer kernels.

These four loops dominate the exhaustive scans (table rows, word/matrix
round trips).  Inputs are pre-validated by the public modules.  All
arithmetic is on Python ints, so there is no magnitude limit.
"""

BACKEND = "python"


def stern_pair(m):
    """Return (a_m, a_{m+1}) of the diatomic sequence in O(bit_length) steps."""
    a, b = 0, 1
    for k in range(m.bit_length() - 1, -1, -1):
        if (m >> k) & 1:
            a, b = a + b, b
        else:
            a, b = a, a + b
    return a, b


def continuant_pair(ks):
    """Fold the continuant recursion; return (value of ks[:-1], value of ks)."""
    prev, cur = 0, 1
    for x in ks:
        prev, cur = cur, cur * x + prev
    return prev, cur


def word_matrix(bits):
    """Product of the two generator matrices along a 0/1 word, row-major 2x2."""
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
    """Factor a nonnegative determinant-1 matrix into its unique 0/1 word.

    Greedy row peeling: exactly one row dominates the other at every
    non-identity step, which pins the leading letter.
    """
    out = []
    while True:
        if a == d == 1 and b == c == 0:
            return "".join(out)
        if a >= c and b >= d:
            out.append("1")
            a -= c
            b -= d
        elif c >= a and d >= b:
            out.append("0")
            c -= a
            d -= b
        else:
            raise ValueError("matrix is not in the nonnegative unimodular monoid")
