"""Values the library builds without their checks.

Where the library wraps fields it has just made and can prove valid (a
generator product, a Stern-Brocot path, b/d of a determinant-1 matrix, the
root of a primitive equation), it skips the constructor's checks.  Each such
value must equal what the public, checked constructor builds from the same
fields, and none of those paths may run a constructor's checks or the
rational gcd again.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diatomic import (
    ExtRational,
    FieldElement,
    FiniteDesign,
    PeriodicDesign,
    QuadIrr,
    Side,
    UniModMatrix,
    affine_derivative_factor,
    apply_mobius,
    assembly_dyadic,
    assembly_enclose,
    assembly_of_rational_theta,
    cf_eval,
    cf_product_decomposition,
    compose_action,
    conjugate,
    continuant,
    design_of_matrix,
    design_of_theta,
    euclidean_design,
    make_periodic,
    matrix_symmetries,
    quad_from_period,
    quad_of_periodic,
    quotient_scan,
    question_mark_inverse,
    reflection,
    sdm,
)
from diatomic import matrix, rational
from oracles import ext_key

INF = ExtRational.infinity()


def words_up_to(top):
    """Words of 0 to top bits, every length about as likely."""
    return st.integers(0, top).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda m: format(m, f"0{n}b") if n else ""))


words = words_up_to(10**4)


def rebuilt(v):
    """v built again from its fields by its public, checked constructor."""
    if isinstance(v, QuadIrr):  # stored as its root, built from its equation
        return QuadIrr(v.a2, v.b1, v.c0, v.plus_branch)
    fields = [rebuilt(f) if isinstance(f, FiniteDesign) else f for f in v._values(v)]
    return type(v)(*fields)


def assert_checked(v):
    # equal by class and fields: a pair left unreduced, or a noncanonical
    # infinity, would come back reduced from ExtRational's constructor
    w = rebuilt(v)
    assert type(w) is type(v) and w._values(w) == v._values(v)


def value_of(word):
    return assembly_dyadic(int(word, 2) if word else 0, len(word))


@settings(max_examples=60, deadline=None)
@given(word=words, other=words, cut=st.floats(0, 1))
def test_trusted_values_equal_the_checked_ones(word, other, cut):
    n = len(word)
    m = sdm(FiniteDesign(word))
    assert_checked(m)
    for s in matrix_symmetries(FiniteDesign(word)):
        assert_checked(s)
    assert_checked(m * sdm(FiniteDesign(other)))
    back = design_of_matrix(m)
    assert_checked(back)
    assert back.bits == word
    v = value_of(word)
    assert_checked(v)
    if v.num:
        assert_checked(euclidean_design(v.num, v.den))
    for k in (n, int(cut * n)):
        e = assembly_enclose(word, k)
        assert_checked(e.lo)
        assert_checked(e.hi)
    w = value_of(other)
    for x in (w, ExtRational(w.den, w.num), ExtRational(0), INF):
        assert_checked(apply_mobius(m, x))
    t = Fraction(int(word, 2) if word else 0, 1 << n)
    for r in reflection(t):
        assert_checked(r)
    assert_checked(question_mark_inverse(t))
    assert_checked(design_of_theta(t))


@settings(max_examples=60, deadline=None)
@given(pre=words, per=words.filter(lambda w: "0" in w and "1" in w))
def test_trusted_periodic_designs_equal_the_checked_ones(pre, per):
    d = make_periodic(pre, per)
    assert isinstance(d, PeriodicDesign)
    assert_checked(d)
    assert_checked(conjugate(d))
    assert conjugate(conjugate(d)) == d


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=5000))
def test_canonical_designs_of_theta_equal_the_checked_ones(t):
    d = design_of_theta(t)
    assert_checked(d)
    if isinstance(d, PeriodicDesign):
        assert_checked(conjugate(d))


@st.composite
def non_dyadic_points(draw):
    """eta = a/(2^k q') in (0, 1) with odd q' >= 3 up to 5000, in lowest terms."""
    q = draw(st.integers(1, 2499)) * 2 + 1
    den = q << draw(st.integers(0, 6))
    return Fraction(draw(st.integers(1, den - 1).filter(lambda a: gcd(a, q) == 1)), den)


@settings(max_examples=60, deadline=None)
@given(eta=non_dyadic_points(), side=st.sampled_from(Side), f=st.fractions(max_denominator=99))
def test_trusted_quadratic_values_equal_the_checked_ones(eta, side, f):
    base = assembly_of_rational_theta(eta)  # _fixed_point's root
    assert type(base) is QuadIrr
    assert_checked(base)
    # eta and 1 - eta exceed 2^-19 (den < 2^19), so steps to 2^-20 leave samples
    for h, q in quotient_scan(eta, side, 20).samples:  # _moved_gap's gaps
        assert type(q) is FieldElement
        assert_checked(q)
        assert_checked(q - base)
        assert_checked(q.mul_fraction(h))
        assert_checked(q.mul_fraction(f))


@settings(max_examples=40, deadline=None)
@given(pre=words_up_to(64), per=words.filter(lambda w: "0" in w and "1" in w))
def test_trusted_periodic_values_equal_the_checked_ones(pre, per):
    d = make_periodic(pre, per)
    assert isinstance(d, PeriodicDesign)
    assert_checked(quad_of_periodic(d))
    assert_checked(quad_from_period(d.period))


def test_trusted_edge_cases():
    # the empty word, n = 0 and m = 0
    empty = FiniteDesign("")
    assert sdm(empty) == UniModMatrix(1, 0, 0, 1)
    assert design_of_matrix(UniModMatrix(1, 0, 0, 1)) == empty
    assert value_of("") == ExtRational(0) and value_of("000") == ExtRational(0)
    assert assembly_dyadic(0, 0) == ExtRational(0)
    assert assembly_enclose("", 0).lo == ExtRational(0)
    assert assembly_enclose("", 0).hi == INF
    assert design_of_theta(Fraction(0)) == empty
    assert question_mark_inverse(Fraction(0)) == ExtRational(0)
    assert question_mark_inverse(Fraction(1)) == ExtRational(1)
    # an all-ones prefix: (1 k; 0 1), whose hi is the canonical 1/0
    for k in (1, 5, 3000):
        e = assembly_enclose("1" * k + "0", k)
        assert (e.lo, e.hi) == (ExtRational(k), INF)
        assert (e.hi.num, e.hi.den) == (1, 0)
    # apply_mobius on 0 and on infinity: b/d and a/c
    m = UniModMatrix(5, 7, 2, 3)
    assert apply_mobius(m, ExtRational(0)) == ExtRational(7, 3)
    assert apply_mobius(m, INF) == ExtRational(5, 2)
    assert apply_mobius(UniModMatrix(1, 4, 0, 1), INF) == INF
    assert apply_mobius(UniModMatrix(1, 0, 4, 1), ExtRational(0)) == ExtRational(0)
    # reflection swaps a reduced pair: 0/1 and the canonical 1/0 trade places
    assert reflection(Fraction(0)) == (INF, INF)
    assert reflection(Fraction(1)) == (ExtRational(0), ExtRational(0))
    # conjugate of a periodic design flips every bit and stays canonical
    d = make_periodic("0", "110")  # the preperiod rotates into the period
    assert str(d) == "(011)" and str(conjugate(d)) == "(100)"
    assert conjugate(make_periodic("1", "10")) == PeriodicDesign(FiniteDesign("0"),
                                                                FiniteDesign("01"))
    for d in (make_periodic("01", "110"), make_periodic("1", "10"), make_periodic("", "1001")):
        assert_checked(conjugate(d))
    # the symmetries of the empty word and of 1^k: permutations of (1 0; 0 1) and (1 k; 0 1)
    assert matrix_symmetries(empty) == (UniModMatrix(1, 0, 0, 1),) * 3
    assert matrix_symmetries(FiniteDesign("111")) == (
        UniModMatrix(1, 3, 0, 1), UniModMatrix(1, 0, 3, 1), UniModMatrix(1, 0, 3, 1))
    assert UniModMatrix(1, 0, 0, 1) * m == m == m * UniModMatrix(1, 0, 0, 1)
    # a root over a smaller radicand, and gaps of a root to an integer
    root = QuadIrr(1, 0, 12)  # sqrt(12) = 2 sqrt(3), disc 48
    for el in (root.field_element(3), root - root, (root - root).mul_fraction(Fraction(3)),
               root.mul_fraction(Fraction(0)), QuadIrr(1, 1, 1).mul_fraction(Fraction(-4, 6))):
        assert_checked(el)
    assert (root - root)._values(root - root) == (0, 0, 1, 48)


def test_trusted_paths_run_no_checks(monkeypatch):
    rng = random.Random(16)
    word = "1" + format(rng.getrandbits(10**4 - 2), f"0{10**4 - 2}b") + "1"
    d = FiniteDesign(word)
    m = sdm(d)
    v = value_of(word)
    zero = ExtRational(0)
    calls = []

    def recorder(name, fn):
        def record(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return record

    monkeypatch.setattr(rational, "gcd", recorder("gcd", rational.gcd))
    for cls in (ExtRational, UniModMatrix, FiniteDesign):
        monkeypatch.setattr(cls, "__init__", recorder(cls.__name__, cls.__init__))
    walks = []
    monkeypatch.setattr(matrix, "matrix_word", recorder("matrix_word", matrix.matrix_word))

    assert sdm(d) == m
    run, flip, both = matrix_symmetries(d)
    assert run.entries() == (m.d, m.b, m.c, m.a) and flip.entries() == (m.a, m.c, m.b, m.d)
    assert both.entries() == (m.d, m.c, m.b, m.a)
    square = m * m
    assert square.entries() == (m.a * m.a + m.b * m.c, m.a * m.b + m.b * m.d,
                                m.c * m.a + m.d * m.c, m.c * m.b + m.d * m.d)
    for _ in range(3):
        assert design_of_matrix(m).bits == word
        walks.append(calls.count("matrix_word"))
    assert value_of(word) == v
    assert assembly_enclose(word, 10**4 // 2).contains(v)
    assert euclidean_design(v.num, v.den).bits == word
    assert compose_action(d, zero) == v
    # matrix_word keeps its sign and determinant check: one call per walk
    assert walks == [1, 2, 3]
    assert [c for c in calls if c != "matrix_word"] == []


def test_quadratic_paths_run_no_constructor(monkeypatch):
    # 300/1019 has a purely periodic design of period 1018, as 2 has order
    # 1018 mod 1019; 2/3 has the period "10"
    eta = Fraction(300, 1019)
    pd = design_of_theta(eta)
    assert pd.preperiod.is_empty and pd.period.length == 1018
    calls = []

    def refuse(name):
        def init(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name}.__init__ ran")
        return init

    for cls in (FieldElement, QuadIrr):
        monkeypatch.setattr(cls, "__init__", refuse(cls.__name__))
    scans = [quotient_scan(eta, side, 12) for side in Side]
    scans.append(quotient_scan(Fraction(2, 3), Side.RIGHT, 60))
    quad_of_periodic(pd)
    quad_of_periodic(make_periodic("0110", "10010"))
    monkeypatch.undo()
    assert calls == []
    assert [len(s.samples) for s in scans] == [11, 12, 59]
    for s in scans:
        for _, q in s.samples:
            assert_checked(q)
    assert_checked(quad_of_periodic(pd))


def test_continued_fractions_fold_in_integers(monkeypatch):
    # tails, continued-fraction values and the chain factor 2^n / (c v + d)^2
    # each come from one integer pair: the tails and values, reduced by
    # construction, run no gcd
    rng = random.Random(25)
    ks = tuple(rng.randrange(1, 1000) for _ in range(500))
    words = ("", "111", "0", "10", format(rng.getrandbits(40), "040b"))
    cases = [(FiniteDesign(w), v) for w in words
             for v in (ExtRational(0), ExtRational(1), ExtRational(7, 3), INF)]
    calls = []
    monkeypatch.setattr(rational, "gcd", lambda *args: calls.append("gcd") or gcd(*args))
    tails = cf_product_decomposition(ks)
    value = cf_eval(ks)
    monkeypatch.undo()
    assert calls == []
    factors = [affine_derivative_factor(d, v) for d, v in cases]
    assert tails[0] == value == ExtRational(continuant(ks), continuant(ks[1:]))
    for t in tails + [value] + factors:
        assert_checked(t)
    for f, (d, v) in zip(factors, cases):
        m = sdm(d)
        if v.is_infinite:
            assert f == ExtRational(0 if m.c else 1 << d.length)
        else:
            assert f.as_fraction() == Fraction(1 << d.length) / (m.c * v.as_fraction() + m.d) ** 2


# --- the paper's action theorem and enclosure nesting at 10^3..10^4 bits ----

SIZES = [1000, 3162, 10000]


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**64))
def test_prepending_a_word_acts_by_its_matrix(n, seed):
    rng = random.Random(seed)
    k = rng.randrange(n + 1)
    u = format(rng.getrandbits(k), f"0{k}b") if k else ""
    v = format(rng.getrandbits(n - k), f"0{n - k}b") if n - k else ""
    assert compose_action(FiniteDesign(u), value_of(v)) == value_of(u + v)
    # v = 1^inf (value infinity) reaches the next dyadic up, a/c
    top = int(u, 2) + 1 if u else 1
    assert compose_action(FiniteDesign(u), INF) == assembly_dyadic(top, k)


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**64))
def test_longer_prefixes_nest_their_enclosures(n, seed):
    rng = random.Random(seed)
    bits = format(rng.getrandbits(n), f"0{n}b")
    if rng.random() < 0.3:  # an all-ones head keeps hi at infinity for a while
        bits = "1" * rng.randrange(n) + bits
        bits = bits[:n]
    cuts = sorted(rng.randrange(n + 1) for _ in range(3)) + [n]
    exact = value_of(bits)
    outer = assembly_enclose(bits, cuts[0])
    for cut in cuts[1:]:
        inner = assembly_enclose(bits, cut)
        assert ext_key(outer.lo) <= ext_key(inner.lo) <= ext_key(inner.hi) <= ext_key(outer.hi)
        assert inner.contains(exact)
        outer = inner
