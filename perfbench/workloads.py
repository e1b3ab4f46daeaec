"""The four seeded workloads and the independent routes that check them.

Each builder turns a seed into a fixed list of operations (one pass).  The
harness repeats the pass, so every pass sends the library the same inputs;
only the seed changes them.  An operation is a zero-argument callable that
looks its library functions up on the module at call time, so the tracer's
wrappers are seen.  ``check`` tests one output by a route other than the one
the operation took and returns None or the reason it is wrong; ``context``
builds what the checks of one pass share (reference tables, other outputs).

Why these four (each stresses a different layer; see README.md):

- cli: one-shot subprocess calls; interpreter start, import, parse and
  format dominate, the kernels barely register.
- scan: quotient scans at non-dyadic points; canonicalisation, the
  sdi_quadruple cache and quadratic normalisation dominate.
- bigword: 10^3..10^4.5-bit words; the four integer kernels dominate.
- table: exhaustive small-operand sweeps; per-call overhead dominates.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from diatomic.design import FiniteDesign, PeriodicDesign
from diatomic.quadratic import FieldElement, QuadIrr
from diatomic.rational import ExtRational

# The package re-exports functions named continuant and sdi over the
# submodules of the same name, so the modules are taken from the import system.
(assembly, cli, continuant, derivative, design, matrix, quadratic, sdi) = (
    importlib.import_module(f"diatomic.{name}")
    for name in ("assembly", "cli", "continuant", "derivative", "design", "matrix",
                 "quadratic", "sdi"))

WORKLOADS = ("cli", "scan", "bigword", "table")


@dataclass
class Op:
    kind: str
    call: object  # zero-argument callable
    size: int | None = None  # input bits, for the scaling fit
    meta: object = None  # what the check needs to know about the input


@dataclass
class Workload:
    name: str
    ops: list
    check: object  # (op, output, context) -> None | reason
    context: object = None  # outputs of one pass -> context
    timing: str = "best"  # an operation's latency: its fastest repeat, or "mean"


# ---------------------------------------------------------------- references
# Independent routes: none of these call the library.


def fusc(m: int) -> int:
    """a_m by the least-significant-bit-first recurrence (the kernels scan from the top)."""
    a, b = 1, 0
    while m:
        if m & 1:
            b += a
        else:
            a += b
        m >>= 1
    return b


def brute_stern(limit: int) -> list:
    """a_0..a_limit filled from a_{2k} = a_k, a_{2k+1} = a_k + a_{k+1}."""
    vals = [0, 1]
    for k in range(2, limit + 1):
        vals.append(vals[k >> 1] if k % 2 == 0 else vals[k >> 1] + vals[(k >> 1) + 1])
    return vals


def reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def ratio_text(num: int, den: int) -> str:
    num, den = reduced(num, den)
    if den == 0:
        return "inf"
    return str(num) if den == 1 else f"{num}/{den}"


def word_runs(word: str) -> list:
    """Maximal runs as (symbol, length)."""
    out = []
    for ch in word:
        if out and out[-1][0] == ch:
            out[-1][1] += 1
        else:
            out.append([ch, 1])
    return out


def word_matrix_by_runs(word: str) -> tuple[int, int, int, int]:
    """Product of (1 k; 0 1) for a run of k ones and (1 0; k 1) for k zeros."""
    a, b, c, d = 1, 0, 0, 1
    for ch, k in word_runs(word):
        if ch == "1":
            b, d = a * k + b, c * k + d
        else:
            a, c = a + b * k, c + d * k
    return a, b, c, d


def continuant_by_matrices(ks) -> int:
    """Top-left entry of the product of (k 1; 1 0) matrices."""
    a, b, c, d = 1, 0, 0, 1
    for k in ks:
        a, b, c, d = a * k + b, a, c * k + d, c
    return a


def theta_of_design(d) -> Fraction:
    if isinstance(d, PeriodicDesign):
        pre, per = d.preperiod.bits, d.period.bits
        top = (1 << len(per)) - 1
        mp = int(pre, 2) if pre else 0
        return Fraction(top * mp + int(per, 2), (1 << len(pre)) * top)
    if d.terminal:
        return Fraction(1)
    return Fraction(int(d.bits, 2) if d.bits else 0, 1 << len(d.bits))


def assembly_value_by_fusc(m: int, n: int) -> tuple[int, int]:
    return reduced(fusc(m), fusc((1 << n) - m))


def corners_as_matrix(word: str) -> tuple[int, int, int, int]:
    """sdm entries (a, b, c, d) from the run continuants of the word."""
    head, tail, head_prev, tail_prev = continuant.sdi_corner_continuants(
        design.runs(FiniteDesign(word))
    )
    return head_prev, head, tail_prev, tail


def random_word(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


def _order_two_is_full(p: int) -> bool:
    """2 generates the units mod the prime p, so 1/p has period p - 1."""
    n, f, factors = p - 1, 2, set()
    while f * f <= n:
        while n % f == 0:
            factors.add(f)
            n //= f
        f += 1
    if n > 1:
        factors.add(n)
    return all(pow(2, (p - 1) // f, p) != 1 for f in factors)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


def full_period_primes(lo: int, hi: int) -> list:
    return [p for p in range(lo, hi) if _is_prime(p) and _order_two_is_full(p)]


# ----------------------------------------------------------------------- cli

CLI_TEMPLATES = (
    "stern",
    "design of-theta",
    "matrix to-design",
    "assembly eval",
    "assembly enclose",
    "quad sqrt",
    "deriv scan",
)


def cli_cases(seed: int) -> list:
    """(argv, expected stdout) for one pass: every template, text and --json."""
    rng = random.Random(f"cli/{seed}")
    cases = []
    for template in CLI_TEMPLATES:
        args, human, obj = _cli_case(template, rng)
        cases.append((args, human + "\n"))
        cases.append((["--json"] + args, obj))
    return cases


def _cli_case(template: str, rng: random.Random):
    if template == "stern":
        m = rng.getrandbits(64) | 1 << 63
        v = str(fusc(m))
        return ["stern", str(m)], v, {"value": v}
    if template == "design of-theta":
        q = rng.randrange(25, 60) | 1
        a = rng.choice([a for a in range(1, q) if gcd(a, q) == 1])
        d = str(design.design_of_theta(Fraction(a, q)))
        return ["design", "of-theta", f"{a}/{q}"], d, {"design": d}
    if template == "matrix to-design":
        w = "1" + random_word(rng, 47)
        text = "{},{};{},{}".format(*word_matrix_by_runs(w))
        return ["matrix", "to-design", text], w, {"design": w}
    if template == "assembly eval":
        n = 40
        m = rng.getrandbits(n) | 1
        v = ratio_text(*assembly_value_by_fusc(m, n))
        return ["assembly", "eval", f"{m}/{1 << n}"], v, {"value": v}
    if template == "assembly enclose":
        bits, n = random_word(rng, 48), 40
        m = int(bits[:n], 2)
        lo = ratio_text(*assembly_value_by_fusc(m, n))
        hi = ratio_text(*assembly_value_by_fusc(m + 1, n))
        human = f"lo={lo} hi={hi} bits={n}"
        return ["assembly", "enclose", bits, "--n", str(n)], human, {
            "lo": lo, "hi": hi, "bits_used": n}
    if template == "quad sqrt":
        v = rng.choice([v for v in range(200, 400) if isqrt(v) ** 2 != v])
        d = quadratic.periodic_design_of_sqrt(Fraction(v))
        eq = quadratic.quad_from_period(d.period).equation_str()
        return ["quad", "sqrt", str(v)], f"period=({d.period.bits}) equation: {eq}", {
            "period": str(d), "equation": eq}
    q = rng.choice([7, 9, 11, 13])
    a = rng.choice([a for a in range(1, q) if gcd(a, q) == 1])
    scan = derivative.quotient_scan(Fraction(a, q), derivative.Side.RIGHT, 30)
    rows = [(h.denominator.bit_length() - 1, str(v)) for h, v in scan.samples]
    human = "\n".join(f"{j},{v}" for j, v in rows)
    return ["deriv", "scan", f"{a}/{q}", "--jmax", "30"], human, {
        "eta": f"{a}/{q}", "side": "right", "samples": [[j, v] for j, v in rows]}


def cli_in_process(argv: list) -> str:
    """cli.main with stdout captured; raises on a non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    if rc:
        raise RuntimeError(f"cli exit {rc} for {argv}")
    return buf.getvalue()


def cli_matches(out: str, expected) -> bool:
    if isinstance(expected, dict):
        try:
            return json.loads(out) == expected
        except ValueError:
            return False
    return out == expected


def build_cli(seed: int, run_cli) -> Workload:
    """run_cli(argv) -> stdout; the harness passes a subprocess or in-process runner."""
    cases = cli_cases(seed)
    ops = [Op(argv[1] if argv[0] == "--json" else argv[0],
              (lambda argv=argv: run_cli(argv)), meta=expected)
           for argv, expected in cases]

    def check(op, out, ctx):
        return None if cli_matches(out, op.meta) else f"stdout {out!r}"

    # A process launch's fastest repeat is a rare event that moved 15% between
    # runs; the mean of its repeats moved 4%.
    return Workload("cli", ops, check, timing="mean")


# ---------------------------------------------------------------------- scan

# Period lengths of the prime ladder: p - 1, with 2 a primitive root mod p,
# so every numerator a gives a/p the same period length.
SCAN_RUNGS = (1000, 2000, 4000, 8000)
SCAN_JMAX = 12
SHORT_POINTS = (Fraction(2, 3), Fraction(5, 12))
SHORT_JMAX = 60
ENCLOSE_BITS = 40


def build_scan(seed: int) -> Workload:
    rng = random.Random(f"scan/{seed}")
    ops = []
    sides = (derivative.Side.LEFT, derivative.Side.RIGHT)
    for target in SCAN_RUNGS:
        p = rng.choice(full_period_primes(target, target + target // 50))
        # in (1/4, 1/2) every step but h = -1/2 stays inside (0, 1), so each
        # side probes the same number of points whatever the seed
        eta = Fraction(rng.randrange(p // 4 + 1, p // 2), p)
        # both sides of one point: the base value's table address repeats
        for side in sides:
            ops.append(Op("prime", lambda e=eta, s=side: derivative.quotient_scan(e, s, SCAN_JMAX),
                          size=p - 1, meta=(eta, side, SCAN_JMAX, rng.randrange(SCAN_JMAX))))
    for eta in SHORT_POINTS:
        side = rng.choice(sides)
        ops.append(Op("short", lambda e=eta, s=side: derivative.quotient_scan(e, s, SHORT_JMAX),
                      meta=(eta, side, SHORT_JMAX, rng.randrange(SHORT_JMAX))))
    return Workload("scan", ops, _check_scan)


def _check_scan(op: Op, scan, ctx):
    eta, side, jmax, pick = op.meta
    sgn = 1 if side is derivative.Side.RIGHT else -1
    want = [Fraction(sgn, 1 << j) for j in range(1, jmax + 1) if 0 < eta + Fraction(sgn, 1 << j) < 1]
    if [h for h, _ in scan.samples] != want:
        return "wrong step list"
    # the map is strictly increasing, so every difference quotient is positive
    for h, q in scan.samples:
        if q.sign() <= 0:
            return f"quotient at h={h} is not positive"
    # A(eta + h) rebuilt from one quotient lies in the dyadic enclosure of eta + h
    h, q = scan.samples[pick % len(scan.samples)]
    base = assembly.assembly_of_rational_theta(eta)
    base_el = base.field_element()
    value = base_el - q.mul_fraction(-h)
    t = eta + h
    m = (t.numerator << ENCLOSE_BITS) // t.denominator
    enc = assembly.assembly_enclose(format(m, f"0{ENCLOSE_BITS}b"), ENCLOSE_BITS)
    if value.compare_fraction(enc.lo.as_fraction()) < 0:
        return f"A(eta+h) below its enclosure at h={h}"
    if not enc.hi.is_infinite and value.compare_fraction(enc.hi.as_fraction()) > 0:
        return f"A(eta+h) above its enclosure at h={h}"
    return None


# ------------------------------------------------------------------- bigword

# Five rungs from 10^3 to 10^4.5 bits, one word each.  A 10^5-bit word takes
# 1.4 s, so a run repeats it only about ten times, and its fastest repeat
# moved by 40% between runs; it is left out.
BIGWORD_RUNGS = (1000, 2371, 5623, 13335, 31623)


def build_bigword(seed: int) -> Workload:
    """Each word goes word -> matrix, matrix -> word, through assembly_dyadic
    at depth n and through the continuant of its runs: four operations, the
    second taking the matrix the first made in the same pass."""
    rng = random.Random(f"bigword/{seed}")
    words = ["1" + random_word(rng, n - 2) + "1" for n in BIGWORD_RUNGS]
    made = {}

    def to_matrix(w):
        made[w] = matrix.sdm(design.FiniteDesign(w))
        return made[w].entries()

    ops = []
    for w in words:
        ops += [
            Op("sdm", lambda w=w: to_matrix(w), size=len(w), meta=w),
            Op("design_of_matrix", lambda w=w: matrix.design_of_matrix(made[w]).bits,
               size=len(w), meta=w),
            Op("assembly_dyadic", lambda w=w: assembly.assembly_dyadic(int(w, 2), len(w)),
               size=len(w), meta=w),
            Op("continuant", lambda w=w: continuant.continuant(design.runs(design.FiniteDesign(w))),
               size=len(w), meta=w),
        ]
    return Workload("bigword", ops, _check_bigword,
                    lambda outs: {w: corners_as_matrix(w) for w in words})


def _check_bigword(op: Op, out, corners):
    word = op.meta
    a, b, c, d = corners[word]
    if op.kind == "sdm" and out != (a, b, c, d):
        return "sdm disagrees with the corner continuants"
    if op.kind == "design_of_matrix" and out != word:
        return "matrix -> word does not round-trip"
    if op.kind == "continuant" and out != b:
        return "continuant of the runs is not the table value b"
    if op.kind == "assembly_dyadic":
        if (out.num, out.den) != (b, d):
            return "assembly value is not b/d of the word's matrix"
        n, m = len(word), int(word, 2)
        mirror = assembly.assembly_dyadic((1 << n) - m, n)
        if (mirror.num, mirror.den) != (d, b):
            return "mirror law A(1-t) = 1/A(t) fails"
    return None


# --------------------------------------------------------------------- table

ROW_DEPTH = 13
STERN_SPAN = 8192
WORD_MAX = 12
KERNEL_ROWS = 2000


def word_round_trip(word: str):
    mat = matrix.sdm(design.FiniteDesign(word))
    return mat.entries(), matrix.design_of_matrix(mat).bits


def sqrt_row(v: int):
    d = quadratic.periodic_design_of_sqrt(Fraction(v))
    q = quadratic.quad_from_period(d.period)
    return d, (q.a2, q.b1, q.c0)


def build_table(seed: int) -> Workload:
    rng = random.Random(f"table/{seed}")
    ops = []
    top = 1 << ROW_DEPTH
    ops += [Op("row", lambda m=m: assembly.assembly_dyadic(m, ROW_DEPTH), meta=m)
            for m in range(top + 1)]
    start = rng.randrange(1 << 16, 1 << 17)
    ops += [Op("stern", lambda m=m: sdi.stern(m), meta=m) for m in range(start, start + STERN_SPAN)]
    words = [format(m, f"0{n}b") for n in range(1, WORD_MAX + 1) for m in range(1 << n)]
    # the kernel rows: random words below 120 bits and short continuant lists
    words += [random_word(rng, rng.randrange(1, 120)) for _ in range(KERNEL_ROWS)]
    ops += [Op("word", lambda w=w: word_round_trip(w), size=len(w), meta=w) for w in words]
    lists = [[rng.randrange(0, 8) for _ in range(rng.randrange(1, 24))] for _ in range(KERNEL_ROWS)]
    ops += [Op("continuant", lambda ks=ks: continuant.continuant(ks), meta=ks) for ks in lists]
    a0, b0 = rng.randrange(1, 40), rng.randrange(1, 40)
    ops += [Op("euclid", lambda a=a, b=b: design.euclidean_design(a, b), meta=(a, b))
            for a in range(a0, a0 + 40) for b in range(b0, b0 + 40) if gcd(a, b) == 1]
    q0 = rng.randrange(20, 40)
    ops += [Op("theta", lambda t=Fraction(a, q): design.design_of_theta(t), meta=Fraction(a, q))
            for q in range(q0, q0 + 24) for a in range(1, q) if gcd(a, q) == 1]
    r0 = rng.randrange(100, 200)
    ops += [Op("sqrt", lambda v=v: sqrt_row(v), meta=v)
            for v in range(r0, r0 + 150) if isqrt(v) ** 2 != v]

    def context(outs):
        row = {op.meta: out for op, out in zip(ops, outs) if op.kind == "row"}
        return brute_stern(max(top, start + STERN_SPAN)), row

    return Workload("table", ops, _check_table, context)


def _check_table(op: Op, out, ctx):
    table, row = ctx
    kind, meta = op.kind, op.meta
    if kind == "row":
        top = 1 << ROW_DEPTH
        if (out.num, out.den) != reduced(table[meta], table[top - meta]):
            return "row value disagrees with the brute table"
        mirror = row[top - meta]
        if (mirror.num, mirror.den) != (out.den, out.num):
            return "mirror law A(1-t) = 1/A(t) fails"
    elif kind == "stern":
        if out != table[meta]:
            return "stern disagrees with the brute table"
    elif kind == "word":
        entries, back = out
        if back != meta:
            return "matrix -> word does not round-trip"
        if entries != corners_as_matrix(meta) or entries != word_matrix_by_runs(meta):
            return "sdm disagrees with the corner continuants"
    elif kind == "continuant":
        if out != continuant_by_matrices(meta):
            return "continuant disagrees with the matrix product"
    elif kind == "euclid":
        a, b = meta
        bits = out.bits
        if out.terminal or assembly_value_by_fusc(int(bits, 2), len(bits)) != (a, b):
            return "euclidean design does not map to a/b"
    elif kind == "theta":
        if theta_of_design(out) != meta:
            return "design does not have the requested theta"
    elif kind == "sqrt":
        d, (a2, b1, c0) = out
        if not isinstance(d, PeriodicDesign) or not d.preperiod.is_empty:
            return "sqrt design is not purely periodic"
        if b1 != 0 or Fraction(c0, a2) != meta:
            return "period's fixed point is not the square root"
    return None


# ------------------------------------------------------------------- outputs


def canon(x) -> str:
    """A canonical text form of an output, for the digest (ints in hex)."""
    if isinstance(x, bool) or x is None:
        return repr(x)
    if isinstance(x, int):
        return format(x, "x")
    if isinstance(x, str):
        return repr(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    if isinstance(x, Fraction):
        return canon((x.numerator, x.denominator))
    if isinstance(x, ExtRational):
        return "R" + canon((x.num, x.den))
    if isinstance(x, FieldElement):
        return "F" + canon((x.p, x.q, x.r, x.d))
    if isinstance(x, QuadIrr):
        return "Q" + canon((x.a2, x.b1, x.c0, x.plus_branch))
    if isinstance(x, (FiniteDesign, PeriodicDesign)):
        return "D" + repr(str(x))
    if isinstance(x, derivative.QuotientScan):
        return "S" + canon((x.eta, x.side.value, x.samples))
    return "?" + repr(x)


def build(name: str, seed: int, run_cli=cli_in_process) -> Workload:
    if name == "cli":
        return build_cli(seed, run_cli)
    if name == "scan":
        return build_scan(seed)
    if name == "bigword":
        return build_bigword(seed)
    if name == "table":
        return build_table(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
