"""Independent oracles the tests check the library against.

Each one recomputes a quantity by a different route than the library:
the sequence by its literal recurrence and by a fold over the bits of
its index from the bottom, run encodings by itertools.groupby,
continuants by fraction-free elimination of their tridiagonal
determinant (itself checked against the expansion over permutations),
Euler phi by gcd counting, the inverse question-mark by
a mediant walk down the Farey tree, the four integer kernels by the
one-letter-at-a-time loops they used before their product trees and
half-gcd peel, the monoid matrix over a coprime pair by a modular
inverse, the half-gcd's base peel by its loop over the four
matrix entries, the matrix of an anti-periodic period by the
whole-period product, the matrix symmetries by three word products,
quotient pairs by a right-to-left fold, continued fractions by a tail
fold in Fractions, the order and differences of extended rationals by
Fractions over their public fields, canonical periodic designs by long
division with a remainder dict and one-bit rotations, the order of 2 by
doubling until 1 comes back, quotient scans by rebuilding the periodic
design (or the dyadic value) at every probed point, enclosures by two
assembly values one ulp apart, reduced designs of a ratio by laying out
its partial quotients as alternating blocks, periodic values by moving
the period's root with the preperiod's Moebius map and reading its
equation back, continued fractions of quadratic irrationals by field
arithmetic (floor, subtract, invert) with a remainder dict on the
normalised element, moved gaps of a root by its moved equation over full
products with one three-way gcd, math.gcd by a left fold that records the
bit lengths of each operand pair it meets, and field arithmetic itself (a Moebius
image, a scaled difference, a comparison with an extended rational, the
conjugate's sign, the square of a pure surd) over the public fields,
normalised by the public constructor.
"""

from fractions import Fraction
from itertools import groupby, permutations
from math import gcd, isqrt

from diatomic import (
    ExtRational,
    FieldElement,
    FiniteDesign,
    PeriodicDesign,
    QuadIrr,
    Side,
    assembly_dyadic,
    assembly_of_rational_theta,
    assembly_theta,
    inverse_design,
    partial_quotients,
    sdm,
)


def stern_table(limit: int) -> list:
    """a_0, ..., a_limit by filling the recurrence table bottom-up."""
    vals = [0, 1]
    for k in range(2, limit + 1):
        vals.append(vals[k // 2] if k % 2 == 0 else vals[k // 2] + vals[k // 2 + 1])
    return vals


def linear_stern_pair(m: int) -> tuple[int, int]:
    """(a_m, a_{m+1}) by scanning the bits of m from the top."""
    a, b = 0, 1
    for k in range(m.bit_length() - 1, -1, -1):
        if (m >> k) & 1:
            a, b = a + b, b
        else:
            a, b = a, a + b
    return a, b


def lsb_fusc(n: int) -> int:
    """a_n by reading the bits of n from the bottom: a_n = a a_k + b a_{k+1}
    holds from k = n down to k = 0, as a_{2j} = a_j and a_{2j+1} = a_j + a_{j+1}."""
    a, b = 1, 0
    while n:
        if n & 1:
            b += a
        else:
            a += b
        n >>= 1
    return b


def grouped_runs(word: str) -> tuple:
    """The run encoding 1^k0 0^k1 ... 1^k_{l-1} of a word from its maximal
    blocks, as itertools.groupby splits them, with an empty run of 1s in
    front of a word that does not start with 1 and after one that ends in 0."""
    ks = [sum(1 for _ in block) for _, block in groupby(word)]
    if not word.startswith("1"):
        ks.insert(0, 0)
    if word.endswith("0"):
        ks.append(0)
    return tuple(ks)


def linear_continuant_pair(ks) -> tuple[int, int]:
    """(continuant of ks[:-1], continuant of ks) by the left-to-right recursion."""
    prev, cur = 0, 1
    for x in ks:
        prev, cur = cur, cur * x + prev
    return prev, cur


def linear_word_matrix(bits: str) -> tuple[int, int, int, int]:
    """Generator product along a 0/1 word, one letter at a time."""
    a, b, c, d = 1, 0, 0, 1
    for ch in bits:
        if ch == "1":
            b = a + b
            d = c + d
        else:
            a = a + b
            c = c + d
    return a, b, c, d


def scalar_peel(x: int, y: int, floor: int) -> tuple:
    """The path of (x, y) peeled run by run while both stay >= floor, with
    the four matrix entries updated one at a time: (runs, (p, q, r, s),
    x', y') with (p q; r s) (x', y') = (x, y)."""
    runs = []
    p, q, r, s = 1, 0, 0, 1
    if x < floor or y < floor:
        return runs, (p, q, r, s), x, y
    while True:
        if x > y:
            x -= y
            if x < floor:
                x += y
                break
            if x - y < floor:
                q += p
                s += r
                runs.append("1")
                continue
            j = (x - floor) // y
            x -= j * y
            j += 1
            q += j * p
            s += j * r
            runs.append("1" * j)
        elif y > x:
            y -= x
            if y < floor:
                y += x
                break
            if y - x < floor:
                p += q
                r += s
                runs.append("0")
                continue
            j = (y - floor) // x
            y -= j * x
            j += 1
            p += j * q
            r += j * s
            runs.append("0" * j)
        else:
            break
    return runs, (p, q, r, s), x, y


def whole_period_matrix(h: str) -> tuple[int, int, int, int]:
    """The matrix of the period h + flip(h), multiplied out: flipping every
    letter swaps M(h) = (a b; c d) to (d c; b a), and the period's matrix is
    M(h) times that swap."""
    a, b, c, d = linear_word_matrix(h)
    return a * d + b * b, a * c + b * a, c * d + d * b, c * c + d * a


def recording_gcd(pairs: list, recording=lambda: True):
    """math.gcd that, while recording(), appends to pairs the sorted bit
    lengths of each operand pair it meets, folding from the left as
    math.gcd does."""
    def folding_gcd(*args):
        g = args[0]
        for x in args[1:]:
            if recording():
                pairs.append(sorted((g.bit_length(), x.bit_length())))
            g = gcd(g, x)
        return abs(g)
    return folding_gcd


def word_symmetries(d: FiniteDesign) -> tuple:
    """The matrices of the run-reversed word, of its bit-flip, and of the
    bit-flip of d (the complement word, m -> 2^n - (m+1), not the conjugate)."""
    flip = str.maketrans("01", "10")
    rev = inverse_design(d).bits
    return tuple(sdm(FiniteDesign(w)) for w in (rev, rev.translate(flip), d.bits.translate(flip)))


def folded_realizing_pair(rs) -> tuple[int, int]:
    """The coprime pair of a valid quotient list, folded from the last quotient."""
    x, y = 1, 0
    for r in reversed(rs):
        x, y = x * r + y, x
    return x, y


def folded_cf_eval(ks) -> ExtRational:
    """CF(k0, ..., k_{l-1}) of a valid word by k + 1/v from the last entry,
    in Fractions, with None for infinity: 1/0 is infinity and 1/inf is 0."""
    v = Fraction(ks[-1])
    for k in reversed(ks[:-1]):
        if v is None:
            v = Fraction(k)
        elif v == 0:
            v = None
        else:
            v = k + 1 / v
    return ExtRational.infinity() if v is None else ExtRational(v.numerator, v.denominator)


def ext_key(v: ExtRational) -> tuple:
    """A sort key for v from its public fields: (0, v as a Fraction), and
    (1, 0) for infinity, above every finite value."""
    return (1, 0) if v.den == 0 else (0, Fraction(v.num, v.den))


def ext_difference(x: ExtRational, y: ExtRational) -> ExtRational:
    """x - y for a finite y <= x, by Fractions; infinity when x is infinite."""
    if x.den == 0:
        return ExtRational.infinity()
    f = Fraction(x.num, x.den) - Fraction(y.num, y.den)
    assert f >= 0, "oracle defined for y <= x"
    return ExtRational(f.numerator, f.denominator)


def greedy_matrix_word(a: int, b: int, c: int, d: int) -> str:
    """Word of a monoid matrix by peeling the dominating row, one letter at a time."""
    out = []
    while (a, b, c, d) != (1, 0, 0, 1):
        if a >= c and b >= d:
            out.append("1")
            a, b = a - c, b - d
        elif c >= a and d >= b:
            out.append("0")
            c, d = c - a, d - b
        else:
            raise ValueError("matrix is not in the nonnegative unimodular monoid")
    return "".join(out)


def monoid_matrix(x: int, y: int) -> tuple[int, int, int, int]:
    """The monoid matrix (a b; c d) that maps (1, 1) to a coprime pair
    (x, y), by a modular inverse: a + b = x, c + d = y and
    ad - bc = a y - c x = 1, with 0 < a <= x."""
    a = pow(y, -1, x) or 1
    c = (a * y - 1) // x
    return a, x - a, c, y - c


def tridiagonal(ks) -> list:
    """The matrix whose determinant is the continuant of ks: ks on the
    diagonal, 1 above it and -1 below it."""
    ks = list(ks)
    mat = [[0] * len(ks) for _ in ks]
    for i, k in enumerate(ks):
        mat[i][i] = k
        if i + 1 < len(ks):
            mat[i][i + 1] = 1
            mat[i + 1][i] = -1
    return mat


def det_continuant(ks) -> int:
    """The tridiagonal determinant by fraction-free elimination (Bareiss):
    a zero pivot swaps in a row below it, and a column with none is 0.
    Each step divides exactly by the previous pivot."""
    mat = tridiagonal(ks)
    n = len(mat)
    sign, pivot = 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            below = [i for i in range(k + 1, n) if mat[i][k]]
            if not below:
                return 0
            mat[k], mat[below[0]] = mat[below[0]], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // pivot
        pivot = mat[k][k]
    return sign * mat[-1][-1] if n else 1


def leibniz_det(mat) -> int:
    """The determinant as the signed sum over permutations, n! terms."""
    total = 0
    for perm in permutations(range(len(mat))):
        prod = _parity(perm)
        for i, j in enumerate(perm):
            prod *= mat[i][j]
            if prod == 0:
                break
        total += prod
    return total


def _parity(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def euler_phi(a: int) -> int:
    return sum(1 for b in range(1, a + 1) if gcd(a, b) == 1)


def mediant_question_mark_inverse(theta: Fraction) -> Fraction:
    """Inverse question-mark at a dyadic, walking the Farey tree by theta's bits."""
    if theta == 0:
        return Fraction(0)
    if theta == 1:
        return Fraction(1)
    q = theta.denominator
    assert q & (q - 1) == 0, "oracle defined on dyadics"
    n = q.bit_length() - 1
    bits = format(theta.numerator, f"0{n}b")
    lo = Fraction(0)
    hi = Fraction(1)
    node = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
    for b in bits[:-1]:
        if b == "1":
            lo = node
        else:
            hi = node
        node = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
    return node


def fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def rotating_make_periodic(pre: str, per: str):
    """Canonical design of a (preperiod, period) pair: the primitive root by
    trying every divisor length, then one trailing bit rotated at a time."""
    if not per.strip("0"):
        return FiniteDesign(pre)
    if not per.strip("1"):
        m = (int(pre, 2) if pre else 0) + 1
        if m == 1 << len(pre):
            return FiniteDesign.terminal_of(0)
        return FiniteDesign(format(m, f"0{len(pre)}b"))
    for d in range(1, len(per)):
        if len(per) % d == 0 and per == per[:d] * (len(per) // d):
            per = per[:d]
            break
    while pre and pre[-1] == per[-1]:
        per = per[-1] + per[:-1]
        pre = pre[:-1]
    return PeriodicDesign(FiniteDesign(pre), FiniteDesign(per))


def long_division_design(t: Fraction):
    """Canonical design of a non-dyadic theta in (0, 1): base-2 long division
    until a remainder repeats, the first repeat marking where the cycle starts."""
    q = t.denominator
    assert q & (q - 1), "oracle defined on non-dyadics"
    digits = []
    seen = {}
    r = t.numerator
    while r not in seen:
        seen[r] = len(digits)
        r *= 2
        digits.append(r // q)
        r %= q
    k = seen[r]
    word = "".join(map(str, digits))
    return rotating_make_periodic(word[:k], word[k:])


def linear_order_of_two(q: int) -> int:
    """The multiplicative order of 2 modulo an odd q, one doubling at a time."""
    n, x = 1, 2 % q
    while x != 1 % q:
        n, x = n + 1, 2 * x % q
    return n


def rebuild_quotient_scan(eta: Fraction, side: Side, jmax: int) -> tuple:
    """(h, quotient) samples at eta, each probed value rebuilt on its own:
    from its word at a dyadic eta, else from its periodic design and fixed
    point."""
    sgn = 1 if side is Side.RIGHT else -1
    steps = [Fraction(sgn, 1 << j) for j in range(1, jmax + 1)]
    steps = [h for h in steps if 0 < eta + h < 1]
    q = eta.denominator
    if q & (q - 1) == 0:
        base = assembly_theta(eta).as_fraction()
        quotients = [(assembly_theta(eta + h).as_fraction() - base) / h for h in steps]
        return tuple((h, ExtRational(f.numerator, f.denominator)) for h, f in zip(steps, quotients))
    base = assembly_of_rational_theta(eta)
    disc = base.discriminant
    base_el = base.field_element()
    return tuple((h, (assembly_of_rational_theta(eta + h).field_element(disc) - base_el)
                  .mul_fraction(1 / h)) for h in steps)


def two_value_enclose(bits: str, n: int) -> tuple[ExtRational, ExtRational]:
    """(lo, hi) of the enclosure by n bits: the values at m/2^n and (m+1)/2^n."""
    m = int(bits[:n], 2) if n else 0
    return assembly_dyadic(m, n), assembly_dyadic(m + 1, n)


def quotient_block_design(a: int, b: int) -> FiniteDesign:
    """Reduced design of a/b: partial quotients as alternating runs of 1s and
    0s; an even count turns the last block 0^r into 0^(r-1) 1."""
    if (a, b) == (1, 1):
        return FiniteDesign("1")
    rs = partial_quotients(a, b)
    blocks = [("1" if i % 2 == 0 else "0") * r for i, r in enumerate(rs)]
    if len(rs) % 2 == 0:
        blocks[-1] = "0" * (rs[-1] - 1) + "1"
    return FiniteDesign("".join(blocks))


def mobius(x: FieldElement, a: int, b: int, c: int, e: int) -> FieldElement:
    """(a x + b)/(c x + e) with integer, possibly negative, entries: the
    numerator times the denominator's conjugate, over its norm."""
    np_, nq = a * x.p + b * x.r, a * x.q
    dp, dq = c * x.p + e * x.r, c * x.q
    den = dp * dp - dq * dq * x.d
    if den == 0:
        raise ZeroDivisionError("pole of the transformation")
    return FieldElement(np_ * dp - nq * dq * x.d, nq * dp - np_ * dq, den, x.d)


def sub_times(x: FieldElement, y: FieldElement, k: int) -> FieldElement:
    """(x - y) * k over the common denominator r_x r_y."""
    return FieldElement((x.p * y.r - y.p * x.r) * k, (x.q * y.r - y.q * x.r) * k,
                        x.r * y.r, x.d)


def sub_fraction(x: FieldElement, f: Fraction) -> FieldElement:
    """x - f over the denominator r times f's."""
    den = f.denominator
    return FieldElement(x.p * den - f.numerator * x.r, x.q * den, x.r * den, x.d)


def compare_ext(x: FieldElement, v: ExtRational) -> int:
    """Sign of x - v; infinity lies above every element."""
    if v.is_infinite:
        return -1
    return sub_fraction(x, Fraction(v.num, v.den)).sign()


def conjugate_sign(x: FieldElement) -> int:
    """Sign of the conjugate (p - q sqrt(d))/r."""
    return FieldElement(x.p, -x.q, x.r, x.d).sign()


def sqrt_value(x: FieldElement) -> Fraction | None:
    """If x is q sqrt(d)/r, the rational q^2 d/r^2 whose square root it is."""
    return Fraction(x.q * x.q * x.d, x.r * x.r) if x.p == 0 else None


def field_element_floor(x: FieldElement) -> int:
    """floor((p + q sqrt d)/r): a guess from isqrt(q^2 d), then exact
    comparisons with the neighbouring integers."""
    s = isqrt(x.q * x.q * x.d)
    a = (x.p + (s if x.q >= 0 else -(s + 1))) // x.r
    while sub_fraction(x, Fraction(a + 1)).sign() >= 0:
        a += 1
    while sub_fraction(x, Fraction(a)).sign() < 0:
        a -= 1
    return a


def field_element_cf(x: FieldElement) -> tuple[list, list]:
    """Continued fraction of x as (prefix, cycle): floor, subtract, invert,
    until a normalised element repeats."""
    seen = {}
    quots = []
    while (x.p, x.q, x.r) not in seen:
        seen[x.p, x.q, x.r] = len(quots)
        a = field_element_floor(x)
        quots.append(a)
        x = mobius(x, 0, 1, 1, -a)  # 1/(x - a)
    k = seen[x.p, x.q, x.r]
    return quots[:k], quots[k:]


def mobius_quad_of_periodic(pd: PeriodicDesign) -> QuadIrr:
    """The value of a periodic design by field arithmetic: the period's root
    moved by the preperiod's Moebius map, then read back as its equation."""
    a, b, c, d = sdm(pd.period).entries()
    # c x^2 - (a - d) x - b = 0, with c > 0 for a period that mixes 0s and 1s
    x = FieldElement(a - d, 1, 2 * c, (a - d) ** 2 + 4 * b * c)
    if pd.preperiod.bits:
        x = mobius(x, *sdm(pd.preperiod).entries())
    # (r X - p)^2 = q^2 d  =>  r^2 X^2 - 2 p r X + (p^2 - q^2 d) = 0
    return QuadIrr(x.r * x.r, 2 * x.p * x.r, x.q * x.q * x.d - x.p * x.p, x.q > 0)


def equation_moved_gap(eq: tuple, a: int, b: int, c: int, e: int, k: int) -> FieldElement:
    """((a x + b)/(c x + e) - x) * k for a det-1 matrix, at the root
    x = (b1 + s sqrt(disc))/(2 a2) of eq = (a2, b1, c0, s, disc): the moved
    equation n2 Y^2 - n1 Y - n0 = 0 keeps the discriminant and the branch,
    so the gap is one element over 2 a2 n2, made primitive by the public
    constructor."""
    a2, b1, c0, s, disc = eq
    n2 = (a2 * e + b1 * c) * e - c0 * c * c
    n1 = 2 * a2 * b * e + b1 * (a * e + b * c) - 2 * c0 * a * c
    return FieldElement((n1 * a2 - b1 * n2) * k, s * (a2 - n2) * k, 2 * a2 * n2, disc)
