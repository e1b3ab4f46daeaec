"""Command-line surface.

One binary, one subcommand per library area.  All output is exact text:
rationals as a/b (or inf), designs in the bit grammar, matrices as
a,b;c,d.  --json wraps the result of any command in a single object;
sample/scan commands emit CSV rows instead of prose.  Exit status is 0 on
success and 2 on any usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import assembly, derivative, design, matrix, quadratic
from .errors import DesignSyntaxError, DomainError, OutOfRange
from .rational import parse_fraction, parse_ratio


def _required(value, what: str) -> str:
    if value is None:
        raise DomainError(f"missing {what}")
    return value


def _parse_design(text: str) -> design.Design:
    return design.parse_design(text)


def _finite(text: str) -> design.FiniteDesign:
    d = _parse_design(text)
    if not isinstance(d, design.FiniteDesign):
        raise DomainError(f"expected a finite design, got {text!r}")
    return d


def _cmd_stern(args) -> tuple[str, dict]:
    if args.sdi is not None:
        from .sdi import sdi

        value = sdi(args.sdi, args.m)
    else:
        from .sdi import stern

        value = stern(args.m)
    return str(value), {"value": str(value)}


def _design_from_ratio(text: str) -> design.Design:
    # keep the literal pair so a non-coprime input is reported, not reduced
    text = text.strip()
    if "/" in text and text != "1/0":
        a, b = text.split("/", 1)
        try:
            a, b = int(a), int(b)
        except ValueError as exc:
            raise DesignSyntaxError(f"bad ratio {text!r}") from exc
        return design.euclidean_design(a, b)
    return assembly.assembly_inverse(parse_ratio(text))


def _cmd_design(args) -> tuple[str, dict]:
    if args.action == "from-ratio":
        d = _design_from_ratio(args.arg)
        return str(d), {"design": str(d)}
    if args.action == "theta":
        t = design.theta_of(_parse_design(args.arg))
        return str(t), {"theta": str(t)}
    if args.action == "of-theta":
        d = design.design_of_theta(parse_fraction(args.arg))
        return str(d), {"design": str(d)}
    if args.action == "conj":
        d = design.conjugate(_parse_design(args.arg))
        return str(d), {"design": str(d)}
    if args.action == "inv":
        d = design.inverse_design(_finite(args.arg))
        return str(d), {"design": str(d)}
    if args.action == "reduce":
        d = design.reduce(_finite(args.arg))
        return str(d), {"design": str(d)}
    d = design.compose(_finite(args.arg), _parse_design(_required(args.arg2, "second design")))
    return str(d), {"design": str(d)}


def _cmd_matrix(args) -> tuple[str, dict]:
    if args.action == "of-design":
        m = matrix.sdm(_finite(args.arg))
        return str(m), {"matrix": str(m)}
    if args.action == "to-design":
        d = matrix.design_of_matrix(matrix.parse_matrix(args.arg))
        return str(d), {"design": str(d)}
    m = matrix.parse_matrix(args.arg)
    v = matrix.apply_mobius(m, parse_ratio(_required(args.arg2, "argument x/y")))
    return str(v), {"value": str(v)}


def _cmd_assembly(args) -> tuple[str, dict]:
    if args.action == "eval":
        v = assembly.assembly_theta(parse_fraction(_required(args.arg, "theta")))
        return str(v), {"value": str(v)}
    if args.action == "inverse":
        v = parse_ratio(_required(args.arg, "value a/b"))
        d = assembly.assembly_inverse(v)
        t = design.theta_of(d)
        return f"{d} theta={t}", {"design": str(d), "theta": str(t)}
    if args.action == "qm-inverse":
        v = assembly.question_mark_inverse(parse_fraction(_required(args.arg, "theta")))
        return str(v), {"value": str(v)}
    if args.action == "enclose":
        e = assembly.assembly_enclose(_required(args.arg, "bits"), args.n)
        human = f"lo={e.lo} hi={e.hi} bits={e.bits_used}"
        return human, {"lo": str(e.lo), "hi": str(e.hi), "bits_used": e.bits_used}
    # sample --grid k
    k = args.grid
    if k < 0:
        raise OutOfRange(f"grid depth must be >= 0, got {k}")
    rows = []
    for m in range(1 << k):
        v = assembly.assembly_dyadic(m, k)
        rows.append((m, 1 << k, v.num, v.den))
    text = "\n".join(",".join(str(x) for x in row) for row in rows)
    return text, {"rows": [[str(x) for x in row] for row in rows]}


def _cmd_quad(args) -> tuple[str, dict]:
    if args.action == "from-period":
        q = quadratic.quad_from_period(_finite(args.arg))
        return q.equation_str(), {"equation": q.equation_str()}
    if args.action == "sqrt":
        value = parse_fraction(args.arg)
        d = quadratic.periodic_design_of_sqrt(value)
        q = quadratic.quad_from_period(d.period)
        human = f"period=({d.period.bits}) equation: {q.equation_str()}"
        return human, {"period": str(d), "equation": q.equation_str()}
    if args.action == "classify":
        t = quadratic.classify_type(_finite(args.arg))
        return f"type {t}", {"type": t}
    p = quadratic.purity_test(parse_fraction(args.arg))
    return p.value, {"purity": p.value}


def _cmd_deriv(args) -> tuple[str, dict]:
    if args.action == "classify":
        v = derivative.derivative_at_rational(parse_fraction(args.arg))
        return v.value, {"verdict": v.value}
    side = derivative.Side.LEFT if args.side == "left" else derivative.Side.RIGHT
    scan = derivative.quotient_scan(parse_fraction(args.arg), side, args.jmax)
    rows = []
    for h, q in scan.samples:
        j = abs(h.denominator).bit_length() - 1
        rows.append((j, str(q)))
    text = "\n".join(f"{j},{q}" for j, q in rows)
    return text, {
        "eta": str(scan.eta),
        "side": scan.side.value,
        "samples": [[j, q] for j, q in rows],
    }


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="diatomic",
        description="Exact arithmetic on Stern's diatomic table and its assembly map.",
    )
    top.add_argument("--json", action="store_true", help="emit one JSON object")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stern", help="sequence value a_m, or the table entry")
    p.add_argument("m", type=int)
    p.add_argument("--sdi", type=int, metavar="N", default=None,
                   help="read the table at depth N instead (order = M)")
    p.set_defaults(func=_cmd_stern)

    p = sub.add_parser("design", help="design word algebra")
    p.add_argument("action", choices=[
        "from-ratio", "theta", "of-theta", "conj", "inv", "reduce", "compose"])
    p.add_argument("arg")
    p.add_argument("arg2", nargs="?")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("matrix", help="unimodular matrix words")
    p.add_argument("action", choices=["of-design", "to-design", "apply"])
    p.add_argument("arg")
    p.add_argument("arg2", nargs="?")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("assembly", help="the assembly map")
    p.add_argument("action", choices=["eval", "inverse", "enclose", "qm-inverse", "sample"])
    p.add_argument("arg", nargs="?")
    p.add_argument("--n", type=int, default=0, help="bits to use for enclose")
    p.add_argument("--grid", type=int, default=3, help="dyadic grid depth for sample")
    p.add_argument("--csv", action="store_true", help="CSV rows (sample only)")
    p.set_defaults(func=_cmd_assembly)

    p = sub.add_parser("quad", help="periodic designs and quadratic irrationals")
    p.add_argument("action", choices=["from-period", "sqrt", "classify", "purity"])
    p.add_argument("arg")
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("deriv", help="difference-quotient probes")
    p.add_argument("action", choices=["scan", "classify"])
    p.add_argument("arg")
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.add_argument("--jmax", type=int, default=10)
    p.add_argument("--csv", action="store_true", help="CSV rows (scan only)")
    p.set_defaults(func=_cmd_deriv)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        human, obj = args.func(args)
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(obj))
    else:
        print(human)
    return 0


if __name__ == "__main__":
    sys.exit(main())
