"""A seeded differential corpus: one `call -> outcome` line per library call.

The outcome is `repr | str` of the result, or `ErrorClass: message`.  Each
family walks exhaustive small grids, edge values, error paths and a few
seeded random values, so its transcript is the same on every run.
tests/test_corpus.py compares one sha256 per chunk of CHUNK lines with
digests written in it, so a changed output fails there and points at a small
range of calls.  A change that alters an output on purpose dumps the
families at its parent and at the change, lists every call whose line
differs, and writes the new digests.

    PYTHONPATH=src python tests/corpus.py --dump FAMILY           # one transcript
    PYTHONPATH=src python tests/corpus.py --digests               # every chunk digest
    PYTHONPATH=src python tests/corpus.py --diff FAMILY OLD_SRC   # the changed lines

--diff dumps the family once more under PYTHONPATH=OLD_SRC, say the src/
of a checkout of the parent, and prints only the lines that differ, each
hunk headed by its line numbers in the old and the new transcript.
"""

import difflib
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

from diatomic import (
    Enclosure,
    ExtRational,
    FiniteDesign,
    PeriodicDesign,
    QuadIrr,
    Side,
    UniModMatrix,
    affine_derivative_factor,
    apply_mobius,
    assembly_enclose,
    assembly_inverse,
    assembly_of_rational_theta,
    assembly_theta,
    classify_type,
    compose_action,
    conjugate_root_design,
    design_of_theta,
    make_periodic,
    parse_fraction,
    parse_ratio,
    quad_from_period,
    quad_of_periodic,
    question_mark_inverse,
    quotient_scan,
    reflection,
    sdm,
)

CHUNK = 400
INF = ExtRational.infinity()


def call(name: str, fn, *args) -> str:
    """The line for fn(*args), named as name(args...)."""
    try:
        r = fn(*args)
        outcome = f"{r!r} | {r}"
    except Exception as exc:  # an error is an outcome like any other
        outcome = f"{type(exc).__name__}: {exc}"
    return f"{name}({', '.join(map(repr, args))}) -> {outcome}"


def _words(top: int) -> list:
    """Every 0/1 word of 0 to top letters, shortest first."""
    return ["".join(w) for n in range(top + 1) for w in product("01", repeat=n)]


def _random_ratios(rng: random.Random, count: int) -> list:
    """Reduced nonnegative pairs of up to 96 bits each, never 0/0."""
    out = []
    while len(out) < count:
        num, den = rng.getrandbits(rng.randrange(1, 97)), rng.getrandbits(rng.randrange(1, 97))
        if num or den:
            out.append(ExtRational(num, den))
    return out


def rational():
    """ExtRational's constructor, printing and Fraction form; parse_ratio
    and parse_fraction on good and bad text."""
    parts = [0, 1, 2, 3, 4, 6, 7, 12, 10**30, 2**64 + 1, -1, -3, True, False,
             1.5, "2", None, Fraction(1, 2)]
    values = []
    for num, den in product(parts, repeat=2):
        yield call("ExtRational", ExtRational, num, den)
        if all(isinstance(x, int) and x >= 0 for x in (num, den)) and (num or den):
            values.append(ExtRational(num, den))
    for num in parts:
        yield call("ExtRational", ExtRational, num)
    yield call("ExtRational.infinity", ExtRational.infinity)
    values += _random_ratios(random.Random(26), 200)
    for v in values:
        yield call("ExtRational.as_fraction", ExtRational.as_fraction, v)
    texts = ["0", "1", "7/3", " 4 ", "inf", " inf ", "INF", "6/4", "5/0", "0/7", "0/0",
             "-2", "-3/2", "1/-2", "+3", "3/+4", "1_000", "x", "1/2/3", "", "/", "1/",
             "1.5", "1e3", "٣/4", str(10**40) + "/3", 5, None, b"1", Fraction(1, 2)]
    for text in texts:
        yield call("parse_ratio", parse_ratio, text)
        yield call("parse_fraction", parse_fraction, text)


def enclosure():
    """width and contains on every enclosure from a word of at most 8 bits,
    and on caller-built enclosures over a grid with 0, infinity and the
    error paths of width (infinity - infinity, a negative difference)."""
    probes = [ExtRational(0), ExtRational(1), ExtRational(1, 2), ExtRational(2),
              ExtRational(3, 5), ExtRational(5, 3), INF]
    for bits in _words(8):
        e = assembly_enclose(bits, len(bits))
        yield call("assembly_enclose", assembly_enclose, bits, len(bits))
        yield call("Enclosure.width", Enclosure.width, e)
        for v in probes + [e.lo, e.hi]:
            yield call("Enclosure.contains", Enclosure.contains, e, v)
    for bits, n in [("10", 3), ("12", 1), ("10", -1), ("1101", 2), ("", 0)]:
        yield call("assembly_enclose", assembly_enclose, bits, n)
    grid = [ExtRational(0), ExtRational(1), ExtRational(2), ExtRational(1, 2), ExtRational(1, 3),
            ExtRational(2, 3), ExtRational(7, 3), ExtRational(10**30, 7), ExtRational(10**30),
            ExtRational(1, 10**30), INF] + _random_ratios(random.Random(8), 5)
    for lo, hi in product(grid, repeat=2):
        e = Enclosure(lo, hi, 0)
        yield call("Enclosure.width", Enclosure.width, e)
        for v in grid:
            yield call("Enclosure.contains", Enclosure.contains, e, v)


def action():
    """reflection and question_mark_inverse at every dyadic k/64 in
    [-1/8, 9/8] and every a/b with a, b < 12; assembly_inverse,
    compose_action, apply_mobius and affine_derivative_factor on the values
    a/b (infinity included) and the dyadic values."""
    ts = list(dict.fromkeys([Fraction(k, 64) for k in range(-8, 73)] +
                            [Fraction(a, b) for a in range(12) for b in range(1, 12)]))
    for t in ts:
        yield call("reflection", reflection, t)
        yield call("question_mark_inverse", question_mark_inverse, t)
    values = [ExtRational(a, b) for a in range(12) for b in range(12) if a or b]
    values += [assembly_theta(Fraction(k, 64)) for k in range(65)]
    designs = [FiniteDesign(w) for w in _words(3)]
    designs += [FiniteDesign.terminal_of(0), FiniteDesign.terminal_of(2)]
    for v in values:
        yield call("assembly_inverse", assembly_inverse, v)
        for d in designs:
            yield call("compose_action", compose_action, d, v)
            yield call("affine_derivative_factor", affine_derivative_factor, d, v)
            if not d.terminal:
                yield call("apply_mobius", apply_mobius, sdm(d), v)


def kinds():
    """Each entry point this corpus covers, given every kind of argument."""
    args = [3, 1.5, "1/3", Fraction(1, 3), (1, 3), [1, 3], None, FiniteDesign("10"),
            ExtRational(1, 3), UniModMatrix(2, 1, 1, 1), QuadIrr(1, 1, 1),
            PeriodicDesign(FiniteDesign(""), FiniteDesign("10"))]
    e = assembly_enclose("101", 3)
    for x in args:
        yield call("assembly_inverse", assembly_inverse, x)
        yield call("apply_mobius", apply_mobius, UniModMatrix(2, 1, 1, 1), x)
        yield call("apply_mobius", apply_mobius, x, ExtRational(1, 3))
        for d in (FiniteDesign("10"), FiniteDesign("1")):
            yield call("compose_action", compose_action, d, x)
            yield call("affine_derivative_factor", affine_derivative_factor, d, x)
        yield call("Enclosure.contains", Enclosure.contains, e, x)
        yield call("reflection", reflection, x)
        yield call("question_mark_inverse", question_mark_inverse, x)
        yield call("ExtRational", ExtRational, x)
        yield call("ExtRational", ExtRational, 1, x)
        yield call("parse_ratio", parse_ratio, x)
        yield call("parse_fraction", parse_fraction, x)
        yield call("compose_action", compose_action, x, ExtRational(1, 3))
        yield call("affine_derivative_factor", affine_derivative_factor, x, ExtRational(1, 3))
        for fn in (quad_of_periodic, quad_from_period, classify_type, conjugate_root_design):
            yield call(fn.__name__, fn, x)


def scan():
    """quotient_scan on both sides of every a/q in (0, 1) with q < 40, of
    seeded points whose periods have 1,018 to 1,090 bits, of dyadic points,
    and its error paths: jmax below the first step inside (0, 1), eta outside
    (0, 1) and a side that is not a Side."""
    points = list(dict.fromkeys(Fraction(a, q) for q in range(2, 40) for a in range(1, q)))
    rng = random.Random(28)
    for p in (1019, 1061, 1091):  # 2 has order p - 1 mod each
        points += [Fraction(rng.randrange(1, p), p), Fraction(rng.randrange(1, 4 * p, 2), 4 * p)]
    points += [Fraction(1, 2), Fraction(3, 8), Fraction(1, 1024), Fraction(1021, 1024)]
    for eta in points:
        for side in Side:
            yield call("quotient_scan", quotient_scan, eta, side, 36)
    for eta, side, jmax in [(Fraction(1, 1000), Side.LEFT, 9), (Fraction(1, 1000), Side.LEFT, 10),
                            (Fraction(999, 1000), Side.RIGHT, 9), (Fraction(1, 3), Side.LEFT, 0),
                            (Fraction(0), Side.RIGHT, 5), (Fraction(1), Side.LEFT, 5),
                            (Fraction(3, 2), Side.LEFT, 5), (Fraction(-1, 2), Side.RIGHT, 5),
                            (Fraction(1, 3), "left", 5), (Fraction(1, 3), None, 5),
                            (Fraction(1, 3), 1, 5)]:
        yield call("quotient_scan", quotient_scan, eta, side, jmax)


def values():
    """design_of_theta and assembly_of_rational_theta at every a/q in [0, 1]
    with q < 64; quad_of_periodic, quad_from_period and equation_str on
    those periodic designs and on seeded ones whose periods have 1,000 to
    4,000 bits and preperiods up to 64 bits; and the error paths: a period
    of one letter only, a terminal period and theta outside [0, 1]."""
    ts = list(dict.fromkeys(Fraction(a, q) for q in range(1, 64) for a in range(q + 1)))
    designs = []
    for t in ts:
        yield call("design_of_theta", design_of_theta, t)
        yield call("assembly_of_rational_theta", assembly_of_rational_theta, t)
        d = design_of_theta(t)
        if isinstance(d, PeriodicDesign):
            designs.append(d)
    rng, count = random.Random(29), len(designs) + 24
    while len(designs) < count:
        n = rng.randrange(1000, 4001)
        d = make_periodic(format(rng.getrandbits(64), "064b")[:rng.randrange(65)],
                          format(rng.getrandbits(n), f"0{n}b"))
        if isinstance(d, PeriodicDesign):
            designs.append(d)
    for d in designs:
        yield call("quad_of_periodic", quad_of_periodic, d)
        yield call("quad_from_period", quad_from_period, d.period)
        yield call("QuadIrr.equation_str", QuadIrr.equation_str, quad_of_periodic(d))
    for w in ["", "0", "1", "00", "11", "0000", "1111111"]:
        yield call("quad_from_period", quad_from_period, FiniteDesign(w))
    for n in range(4):
        yield call("quad_from_period", quad_from_period, FiniteDesign.terminal_of(n))
    for t in [Fraction(-1, 3), Fraction(-1), Fraction(65, 64), Fraction(4, 3), Fraction(2)]:
        yield call("design_of_theta", design_of_theta, t)
        yield call("assembly_of_rational_theta", assembly_of_rational_theta, t)


FAMILIES = {f.__name__: f for f in (rational, enclosure, action, kinds, scan, values)}


def digests(family: str) -> list:
    """The first 16 hex digits of the sha256 of each CHUNK-line chunk."""
    lines = list(FAMILIES[family]())
    return [hashlib.sha256("\n".join(lines[i:i + CHUNK]).encode()).hexdigest()[:16]
            for i in range(0, len(lines), CHUNK)]


def diff(family: str, old_src: str) -> list:
    """The lines of the family's transcript that differ under old_src, as
    unified-diff hunks with no context."""
    env = {**os.environ, "PYTHONPATH": old_src}
    old = subprocess.run([sys.executable, __file__, "--dump", family], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    new = list(FAMILIES[family]())
    return list(difflib.unified_diff(old, new, old_src, "new", n=0, lineterm=""))


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--diff" and argv[1] in FAMILIES:
        lines = diff(argv[1], argv[2])
        for line in lines:
            print(line)
        return 1 if lines else 0
    if len(argv) == 2 and argv[0] == "--dump" and argv[1] in FAMILIES:
        for line in FAMILIES[argv[1]]():
            print(line)
        return 0
    if argv == ["--digests"]:
        for family in FAMILIES:
            print(f"    {family!r}: {digests(family)!r},")
        return 0
    names = ",".join(FAMILIES)
    print(f"usage: corpus.py --dump {{{names}}} | --digests | --diff {{{names}}} OLD_SRC",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
