"""A seeded differential corpus: one `call -> outcome` line per library call.

The outcome is `repr | str` of the result, or `ErrorClass: message`; the cli
family's line holds a `cli.main` call's argv, exit code, stdout and stderr.
Each family walks exhaustive small grids, edge values, error paths and a few
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

import contextlib
import difflib
import hashlib
import io
import math
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
    assembly_dyadic,
    assembly_enclose,
    assembly_inverse,
    assembly_of_rational_theta,
    assembly_theta,
    cf_eval,
    cf_of_root,
    cf_product_decomposition,
    classify_type,
    compose,
    compose_action,
    conjugate,
    continuant,
    design_number,
    design_of_matrix,
    design_of_theta,
    euclidean_design,
    fib_continuant,
    from_runs,
    inverse_design,
    is_primitive,
    is_reduced,
    make_periodic,
    matrix_symmetries,
    parse_fraction,
    parse_ratio,
    partial_quotients,
    quad_from_period,
    quad_of_periodic,
    question_mark_inverse,
    quotient_scan,
    realizing_pair,
    reduce,
    reflection,
    sdi_corner_continuants,
    sdi_quadruple,
    sdm,
    sqrt_cf,
    theta_of,
)
from diatomic import cli as command_line
from diatomic import runs as run_list

CHUNK = 400
INF = ExtRational.infinity()


def call(name: str, fn, *args) -> str:
    """The line for fn(*args), named as name(args...).  Only the call is in
    the try: a result is formatted after it, so an int past the digit limit
    is recorded as that result, by its bit length, and not as an error."""
    head = f"{name}({', '.join(map(_shown, args))}) -> "
    try:
        r = fn(*args)
    except Exception as exc:  # an error is an outcome like any other
        return f"{head}{type(exc).__name__}: {exc}"
    try:
        return f"{head}{r!r} | {r}"
    except ValueError:  # the digit limit
        return f"{head}{_shown(r)}"


def _shown(x) -> str:
    """repr(x), but with an int past the interpreter's digit limit shown by
    its bit length: alone, in a tuple or a list, as a part of a Fraction or
    in a field of one of the library's values, named by its class."""
    if isinstance(x, tuple):
        return f"({', '.join(map(_shown, x))}{',' if len(x) == 1 else ''})"
    try:
        return repr(x)
    except ValueError:  # the digit limit
        pass
    if isinstance(x, int):
        return f"<{x.bit_length()}-bit int>"
    if isinstance(x, Fraction):
        return f"Fraction({_shown(x.numerator)}, {_shown(x.denominator)})"
    if isinstance(x, list):
        return f"[{', '.join(map(_shown, x))}]"
    fields = ", ".join(f"{n}={_shown(getattr(x, n))}" for n in x._fields)
    return f"{type(x).__qualname__}({fields})"


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
    """Each entry point this corpus covers, given every kind of argument; each
    that takes a design, a matrix or a QuadIrr, a terminal design too."""
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
        for fn in (quad_of_periodic, quad_from_period, classify_type):
            yield call(fn.__name__, fn, x)
    for x in args + [FiniteDesign.terminal_of(2)]:
        for fn in (run_list, inverse_design, reduce, sdm, matrix_symmetries, conjugate, theta_of,
                   design_number, is_primitive, is_reduced, design_of_matrix, cf_of_root):
            yield call(fn.__name__, fn, x)
        yield call("compose", compose, x, FiniteDesign("10"))
        yield call("compose", compose, FiniteDesign("10"), x)
    yield call("affine_derivative_factor", affine_derivative_factor,
               FiniteDesign.terminal_of(2), ExtRational(1, 3))


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
    of one letter only, a terminal period and theta outside [0, 1].  Then
    sdi_quadruple, partial_quotients, sqrt_cf and fib_continuant on small
    grids that reach their error paths, and at a few large arguments.  Then
    design_of_matrix, euclidean_design and assembly_inverse on seeded pairs
    of 12 to 4,200 bits, from where the pair walk reads bytes to past the
    half-gcd's cutoff, and assembly_dyadic and sdi_quadruple at depths of
    2**63 and more.  Last, euclidean_design and assembly_inverse on coprime
    pairs just above and just below each byte end a/c, near 2**12 (a, c):
    at 233 of the 254 ends both share a table slot, and the byte guessed
    for it is wrong on one side."""
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
    big = 3**250  # 397 bits
    for n, m in [*product(range(-1, 5), range(-1, 18)), (400, big), (396, big), (8, 2.0)]:
        yield call("sdi_quadruple", sdi_quadruple, n, m)
    for a, b in [*product(range(-1, 13), repeat=2), (big, 2**300), (2**300, big), (1.0, 1)]:
        yield call("partial_quotients", partial_quotients, a, b)
    for num, den in [*product(range(-1, 13), range(-1, 7)), (big**2 + 1, 1), (1, big**2 + 2),
                     (big**2, 1), (2, 1.0)]:
        yield call("sqrt_cf", sqrt_cf, num, den)
    for m in [*range(-2, 40), 300, 1.0]:
        yield call("fib_continuant", fib_continuant, m)
    rng = random.Random(37)
    for bits in (12, 13, 16, 64, 700, 2100, 4200):
        n = bits * 7 // 4  # a random word's pair has about 0.57 bits a letter
        w = FiniteDesign(format(rng.getrandbits(n), f"0{n}b"))
        yield call("design_of_matrix", design_of_matrix, sdm(w))
        x, y = rng.getrandbits(bits) | 1 << (bits - 1), rng.getrandbits(bits) | 1
        for a, b in [(x, y), (y, x), (3 * x, 3 * y)]:
            yield call("euclidean_design", euclidean_design, a, b)
            yield call("assembly_inverse", assembly_inverse, ExtRational(a, b))
    for m, n in [(0, 2**63), (1, 2**63), (1, 2**100), (2**100 - 1, 2**100), (5, 2**64 + 3)]:
        yield call("assembly_dyadic", assembly_dyadic, m, n)
    for n, m in [(2**63, 0), (2**63, 2), (2**100, 2**99 + 1)]:
        yield call("sdi_quadruple", sdi_quadruple, n, m)
    for v in range(1, 255):
        end = sdm(FiniteDesign(format(v, "08b")))  # byte v's matrix; its x/y interval ends at a/c
        for e in (1, -1):
            x, y = 4096 * end.a + e, 4096 * end.c
            while math.gcd(x, y) != 1:
                y -= e
            yield call("euclidean_design", euclidean_design, x, y)
            yield call("assembly_inverse", assembly_inverse, ExtRational(x, y))


def _tail_ends(ks) -> tuple:
    """The count, first and last of cf_product_decomposition's tails; all of
    them would print thousands of long values for a long list."""
    tails = cf_product_decomposition(ks)
    return len(tails), tails[0], tails[-1]


def runs():
    """runs on every word of up to 10 letters, on seeded words of 1,000 to
    12,000 letters and on single long runs; from_runs,
    sdi_corner_continuants, continuant, cf_eval, cf_product_decomposition
    and realizing_pair on each of their run lists, so continuant runs on
    both sides of its 3,072-item tree cutoff; and the error paths: terminal
    designs, even-length lists, negative and zero interior runs, float,
    Fraction and str entries in short lists and in lists of 4,001 items,
    and a 20,000-bit run."""
    readers = (from_runs, sdi_corner_continuants, continuant, cf_eval,
               cf_product_decomposition, realizing_pair)
    for w in _words(10):
        d = FiniteDesign(w)
        yield call("runs", run_list, d)
        for fn in readers:
            yield call(fn.__name__, fn, run_list(d))
    rng = random.Random(30)
    long_words = [format(rng.getrandbits(n), f"0{n}b")
                  for n in [rng.randrange(1000, 12001) for _ in range(12)]]
    long_words += ["1" * 5000, "0" * 5000, "0" * 3000 + "1" * 4000, "1" + "0" * 6000 + "1",
                   "10" * 4000, "0" + "01" * 3500]
    for w in long_words:
        d = FiniteDesign(w)
        yield call("runs", run_list, d)
        ks = run_list(d)
        for fn in readers[:-2]:
            yield call(fn.__name__, fn, ks)
        yield call("cf_product_decomposition ends", _tail_ends, ks)
        yield call("realizing_pair", realizing_pair, ks)
    for n in range(4):
        yield call("runs", run_list, FiniteDesign.terminal_of(n))
    yield call("runs", run_list, "101")
    yield call("runs", run_list, None)
    bad = [(), (1, 1), (2, 3, 4, 5), (1, 0, 1), (0, 0, 0), (-1,), (2, 2, -1), (-1, 1, 1),
           (1, -1, 1), (3, 0), (0,), (1,), (2,), (0, 1, 0), (1.5,), (1, 2.0, 1),
           (Fraction(1, 2),), (1, Fraction(3), 1), ("1",), (1, "2", 1), (True, 1, False),
           None, 5, [1, 2, 3]]
    ones = (1,) * 4001
    for x in (1.5, Fraction(1, 2), "1"):
        bad += [(x,) + ones[1:], ones[:1] + (x,) + ones[2:]]
    bad += [ones[:-1] + (1.5,), ones[:-1] + (Fraction(3),), ones[:2000] + (0,) + ones[2001:],
            ones[:-1] + (-1,), ones[1:]]
    for ks in bad:
        for fn in readers:
            yield call(fn.__name__, fn, ks)
    # a 20,000-bit run, in lists that every reader but continuant refuses
    h = (1 << 19999) + 12345
    for ks in [(h, 0, 1, 1), (1, 2, -h), (h, 0, 1), (-h,), (h, 1.5, 1), (1, 0, h), (h, -1, 3)]:
        for fn in readers:
            if fn is not continuant:
                yield call(fn.__name__, fn, ks)
    for ks in [(h, 1.5, 1), (1.5, h), (h, Fraction(1, 2))]:
        yield call("continuant", continuant, ks)


def _cli_line(argv) -> str:
    """The line for cli.main(argv): its argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = command_line.main(list(argv))
    return f"main({', '.join(map(repr, argv))}) -> {code} {out.getvalue()!r} {err.getvalue()!r}"


# texts for each positional reader in cli.COMMANDS, a good one first: valid,
# edge and refused arguments
_POSITIONALS = {
    "_int": ["5", "0", " 5 ", "-3", "x", "1_0", "9" * 70],
    "_design_from_ratio": ["7/3", "0/1", "1/0", "6/4", "x/3", "-3/2", "inf", "2"],
    "parse_design": ["11001", "", "101t", "1(10)", "0(01)", "(10", "12"],
    "parse_fraction": ["2/3", "0", "1", "1/3", "25/32", "-1/2", "5/0", "x"],
    "_finite": ["11001", "", "10t", "(10)", "2"],
    "parse_matrix": ["5,7;2,3", "1,0;0,1", "2,1;1,1", "2,2;1,1", "1,2;3", "-1,2;3,4"],
    "parse_ratio": ["7/3", "inf", "0", "-2/3", "6/4", "x"],
    "str": ["101010", "", "12"],
}
# values for each option in cli._OPTIONS, None for a flag
_OPTION_VALUES = {
    "sdi": ["6", "0", "-1", "x", "9" * 70],
    "n": ["4", "0", "7", "-1", "+4"],
    "grid": ["3", "0", "5", "-1", "x"],
    "side": ["left", "right", "up"],
    "jmax": ["12", "1", "0", "-3", "1_0"],
    "csv": [None],
}


def _option(dest: str, value) -> list:
    return [f"--{dest}"] + ([] if value is None else [value])


def _cli_calls():
    """The argvs, without --json, of every action in cli.COMMANDS: each
    positional text (every pair for two), each option value in every slot
    after the command, all options at once, and the usage errors of a
    missing or extra argument, an option the action does not read and an
    unknown option."""
    for command, actions in command_line.COMMANDS.items():
        for action, (parsers, options, _, _) in actions.items():
            head = [command] + ([action] if action else [])
            texts = [_POSITIONALS[parse.__name__] for parse in parsers]
            for args in product(*texts):
                yield head + list(args)
            argv = head + [t[0] for t in texts]
            for dest in options:
                for value in _OPTION_VALUES[dest]:
                    for slot in range(1, len(argv) + 1):
                        yield argv[:slot] + _option(dest, value) + argv[slot:]
            if options:
                every = [w for dest in options for w in _option(dest, _OPTION_VALUES[dest][0])]
                yield head + every + argv[len(head):]
            if texts:
                yield argv[:-1]
            yield argv + ["1"]
            stray = next(dest for dest in command_line._OPTIONS if dest not in options)
            middle = len(head) + len(texts) // 2
            yield argv[:middle] + _option(stray, _OPTION_VALUES[stray][0]) + argv[middle:]
            yield argv + ["--bogus"]
    yield from [[], ["design"], ["bogus"], ["design", "bogus", "1"], ["stern", "--sdi"],
                ["stern", "--", "5"], ["stern", "--", "-5"], ["stern", "-5"],
                ["--json"], ["stern", "5", "--json"]]


def _radicand(half: list) -> Fraction:
    """The r with sqrt(r) = [1; (half, half[-2::-1], 2)]: a palindrome then
    2 a0 is the cycle of a square root, and its short quotients keep the
    design short however long r's numerator and denominator are."""
    p, p0, q, q0 = 1, 0, 0, 1
    for k in half + half[-2::-1] + [2]:
        p, p0, q, q0 = k * p + p0, p, k * q + q0, q
    # y, the cycle repeated, solves q y^2 + (q0 - p) y - p0 = 0; at x = 1 + 1/y
    # the palindrome cancels the linear term, leaving p0 x^2 = q - q0 + p - p0
    return Fraction(q - q0 + p - p0, p0)


def _cli_large():
    """Seeded arguments under the 4,300-digit limit: a 1,000-bit period and
    its matrix, a scan at a/p with p = 1,019 (2 has order p - 1 mod p),
    radicands whose numerator and denominator have 38 to 141 digits, their
    squares, and a 1,000-bit index."""
    rng = random.Random(33)
    w = format(rng.getrandbits(999) | 1 << 999, "b")
    matrix = str(sdm(FiniteDesign(w)))
    yield from [["quad", "from-period", w], ["quad", "classify", w], ["design", "theta", f"({w})"],
                ["design", "theta", f"0{w[:40]}({w})"], ["design", "conj", f"({w})"],
                ["matrix", "of-design", w], ["design", "reduce", w], ["design", "inv", w],
                ["assembly", "enclose", w, "--n", "1000"],
                ["matrix", "to-design", matrix], ["matrix", "apply", matrix, "1/3"]]
    eta = f"{rng.randrange(1, 1019)}/1019"
    yield from [["deriv", "scan", eta, "--jmax", "16"], ["deriv", "scan", "--side", "left", eta],
                ["deriv", "classify", eta], ["assembly", "eval", eta], ["design", "of-theta", eta]]
    for length in (50, 200):
        r = _radicand([rng.randrange(1, 4) for _ in range(length)])
        yield from [["quad", "sqrt", str(r)], ["quad", "sqrt", str(r * r)]]
    m = rng.getrandbits(1000)
    yield from [["stern", str(m)], ["stern", "--sdi", "1000", str(m)],
                ["assembly", "eval", f"{m}/{1 << 1000}"],
                ["assembly", "qm-inverse", f"{m}/{1 << 1000}"]]


def _cli_long():
    """Refused arguments past 64 characters, which a message names by size."""
    yield from [["design", "inv", "1" * 100 + "(01)"], ["design", "theta", "1", "--" + "x" * 100],
                ["design", "theta", "2" * 100], ["design", "theta", "(" + "1" * 100],
                ["design", "theta", "1" * 100 + ")"], ["design", "compose", "10", "2" * 100],
                ["assembly", "enclose", "2" * 100, "--n", "3"], ["quad", "from-period", "1" * 100],
                ["design", "of-theta", "x" * 100], ["stern", "9" * 100 + "x"]]


def cli():
    """cli.main in process, in text and --json modes, on every action of
    cli.COMMANDS (see _cli_calls), on seeded large arguments and on refused
    arguments past 64 characters."""
    for argv in [*_cli_calls(), *_cli_large(), *_cli_long()]:
        yield _cli_line(argv)
        yield _cli_line(["--json"] + argv)


FAMILIES = {f.__name__: f for f in (rational, enclosure, action, kinds, scan, values, runs, cli)}


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
