"""Command-line surface.

One binary, one subcommand per library area.  All output is exact text:
rationals as a/b (or inf), designs in the bit grammar, matrices as
a,b;c,d.  --json wraps the result of any command in a single object, and
an error in one JSON line on stderr, {"error": <type>, "message": ...};
sample/scan commands emit CSV rows instead of prose.  Exit status is 0 on
success and 2 on any usage or domain error.

COMMANDS is the whole grammar: the parser, the argument counts, the option
checks and the dispatch all read it.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import lru_cache

from . import assembly, derivative, design, matrix, quadratic
from .errors import DesignSyntaxError, DomainError, OutOfRange, _text
from .rational import _read_int, parse_fraction, parse_ratio
from .sdi import sdi, stern


def _int(text: str) -> int:
    try:
        return _read_int(text.strip())
    except ValueError:
        raise DomainError("expected an integer, got {!r}", text) from None


def _int_option(text: str) -> int:
    """_int for an integer option.  argparse prints an ArgumentTypeError's own
    message, but after any other error it echoes the whole text; this one
    names a text past 64 characters by its size, as every refusal does."""
    try:
        return _read_int(text.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_text(text)!r}") from None


def _finite(text: str) -> design.FiniteDesign:
    d = design.parse_design(text)
    if not isinstance(d, design.FiniteDesign):
        raise DomainError("expected a finite design, got {!r}", text)
    return d


def _design_from_ratio(text: str) -> design.Design:
    # keep the literal pair so a non-coprime input is reported, not reduced
    text = text.strip()
    if "/" in text and text not in ("0/1", "1/0"):
        a, b = text.split("/", 1)
        try:
            a, b = _read_int(a), _read_int(b)
        except ValueError as exc:
            raise DesignSyntaxError("bad ratio {!r}", text) from exc
        return design.euclidean_design(a, b)
    return assembly.assembly_inverse(parse_ratio(text))


def _inverse(value):
    d = assembly.assembly_inverse(value)
    t = design.theta_of(d)
    return f"{d} theta={t}", {"design": str(d), "theta": str(t)}


def _enclose(word, n):
    e = assembly.assembly_enclose(word, n)
    human = f"lo={e.lo} hi={e.hi} bits={e.bits_used}"
    return human, {"lo": str(e.lo), "hi": str(e.hi), "bits_used": e.bits_used}


def _sample(k, csv):
    if k < 0:
        raise OutOfRange("grid depth must be >= 0, got {}", k)
    rows = []
    for m in range(1 << k):
        v = assembly.assembly_dyadic(m, k)
        rows.append((m, 1 << k, v.num, v.den))
    text = "\n".join(",".join(str(x) for x in row) for row in rows)
    return text, {"rows": [[str(x) for x in row] for row in rows]}


def _sqrt(value):
    d = quadratic.periodic_design_of_sqrt(value)
    q = quadratic.quad_from_period(d.period)
    human = f"period=({d.period.bits}) equation: {q.equation_str()}"
    return human, {"period": str(d), "equation": q.equation_str()}


def _classify(d):
    t = quadratic.classify_type(d)
    return f"type {t}", {"type": t}


def _scan(eta, side, jmax, csv):
    scan = derivative.quotient_scan(eta, derivative.Side(side), jmax)
    rows = [(abs(h.denominator).bit_length() - 1, str(q)) for h, q in scan.samples]
    text = "\n".join(f"{j},{q}" for j, q in rows)
    return text, {"eta": str(scan.eta), "side": scan.side.value,
                  "samples": [[j, q] for j, q in rows]}


# ------------------------------------------------------------------- grammar

# option dest: (default, argparse keywords); "{}" in a help text names the
# actions that read the option
_OPTIONS = {
    "sdi": (None, dict(type=_int_option, metavar="N",
                       help="read the table at depth N instead (order = M)")),
    "n": (0, dict(type=_int_option, help="bits to use for {}")),
    "grid": (3, dict(type=_int_option, help="dyadic grid depth for {}")),
    "side": ("right", dict(choices=["left", "right"], help="side of eta that {} probes")),
    "jmax": (10, dict(type=_int_option, help="last step 2^-JMAX of {}")),
    "csv": (False, dict(action="store_true",
                        help="accepted and ignored: {} always prints CSV rows")),
}

_HELP = {
    "stern": "sequence value a_m, or the table entry",
    "design": "design word algebra",
    "matrix": "unimodular matrix words",
    "assembly": "the assembly map",
    "quad": "periodic designs and quadratic irrationals",
    "deriv": "difference-quotient probes",
}

# command -> action (None for a command without one) -> (positional parsers,
# option dests, call, key).  The call takes the parsed positionals, then the
# option values; with a key it prints str(result), or {key: str(result)}
# under --json, and without one it returns (text, JSON object) itself.
COMMANDS = {
    "stern": {
        None: ((_int,), ("sdi",), lambda m, n: stern(m) if n is None else sdi(n, m), "value"),
    },
    "design": {
        "from-ratio": ((_design_from_ratio,), (), lambda d: d, "design"),
        "theta": ((design.parse_design,), (), design.theta_of, "theta"),
        "of-theta": ((parse_fraction,), (), design.design_of_theta, "design"),
        "conj": ((design.parse_design,), (), design.conjugate, "design"),
        "inv": ((_finite,), (), design.inverse_design, "design"),
        "reduce": ((_finite,), (), design.reduce, "design"),
        "compose": ((_finite, design.parse_design), (), design.compose, "design"),
    },
    "matrix": {
        "of-design": ((_finite,), (), matrix.sdm, "matrix"),
        "to-design": ((matrix.parse_matrix,), (), matrix.design_of_matrix, "design"),
        "apply": ((matrix.parse_matrix, parse_ratio), (), matrix.apply_mobius, "value"),
    },
    "assembly": {
        "eval": ((parse_fraction,), (), assembly.assembly_theta, "value"),
        "inverse": ((parse_ratio,), (), _inverse, None),
        "enclose": ((str,), ("n",), _enclose, None),
        "qm-inverse": ((parse_fraction,), (), assembly.question_mark_inverse, "value"),
        "sample": ((), ("grid", "csv"), _sample, None),
    },
    "quad": {
        "from-period": ((_finite,), (),
                        lambda d: quadratic.quad_from_period(d).equation_str(), "equation"),
        "sqrt": ((parse_fraction,), (), _sqrt, None),
        "classify": ((_finite,), (), _classify, None),
        "purity": ((parse_fraction,), (), lambda x: quadratic.purity_test(x).value, "purity"),
    },
    "deriv": {
        "scan": ((parse_fraction,), ("side", "jmax", "csv"), _scan, None),
        "classify": ((parse_fraction,), (),
                     lambda eta: derivative.derivative_at_rational(eta).value, "verdict"),
    },
}


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with a minus and a digit, such as -3/2
    or the matrix -1,2;3,4, as a value, not an option, so it reaches the
    library's checks; a usage error raises DomainError like any other."""

    _NEGATIVE = re.compile(r"-\d")
    _OPTION = re.compile(r"-(?!\.?\d)[^ ]+\Z")  # argparse's options: no number, no space

    def _parse_optional(self, arg_string):
        # argparse's hook that sorts each argument; None means a positional
        if self._NEGATIVE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def _check_value(self, action, value):
        # argparse's own message would quote an unknown choice whole; the
        # choices go into the template, as the parser's own names hold no braces
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise DomainError("argument {}: invalid choice: {} (choose from " + choices + ")",
                              argparse._get_action_name(action), repr(value))

    def error(self, message):
        raise DomainError(message)

    def parse_positionals(self, argv, namespace) -> list[str]:
        """Parse the options into namespace and return the arguments after
        the command and its action, in order, wherever the options stand."""
        _, rest = self.parse_known_args(argv, namespace)
        if "--" in rest:  # argparse keeps the end-of-options mark where no positional takes it
            rest.remove("--")
        for i, arg in enumerate(rest):
            if self._OPTION.match(arg):  # named with what follows it, such as its value
                raise DomainError("unrecognized arguments: {}", " ".join(rest[i:]))
        return rest


@lru_cache(typed=True)  # one parser per process, built on first use
def build_parser() -> _Parser:
    top = _Parser(prog="diatomic",
                  description="Exact arithmetic on Stern's diatomic table and its assembly map.")
    top.add_argument("--json", action="store_true", help="emit one JSON object")
    sub = top.add_subparsers(dest="command", required=True)
    for command, actions in COMMANDS.items():
        p = sub.add_parser(command, help=_HELP[command],
                           epilog="Options may come before, between or after the arguments.")
        if None not in actions:
            p.add_argument("action", choices=list(actions))
        readers = {}
        for action, (_, options, _, _) in actions.items():
            for dest in options:
                readers.setdefault(dest, []).append(action or command)
        # an option left out is absent from the parsed args, so the
        # dispatch can tell it from one given at its default
        for dest, names in readers.items():
            kwargs = _OPTIONS[dest][1]
            p.add_argument(f"--{dest}", default=argparse.SUPPRESS,
                           **{**kwargs, "help": kwargs["help"].format(" and ".join(names))})
    return top


def _run(args, positionals: list[str]) -> tuple[str, dict]:
    action = getattr(args, "action", None)
    parsers, options, call, key = COMMANDS[args.command][action]
    name = f"{args.command} {action}" if action else args.command
    want, given = len(parsers), vars(args)
    if len(positionals) != want:
        raise DomainError("{} takes {} argument{}, got {}", name, want,
                          "" if want == 1 else "s", len(positionals))
    unread = [f"--{dest}" for dest in _OPTIONS if dest in given and dest not in options]
    if unread:
        raise DomainError("{} does not read {}", name, ", ".join(unread))
    result = call(*[parse(text) for parse, text in zip(parsers, positionals)],
                  *[given.get(dest, _OPTIONS[dest][0]) for dest in options])
    if key is None:
        return result
    text = str(result)
    return text, {key: text}


def main(argv: list[str] | None = None) -> int:
    args = argparse.Namespace(json=False)  # set as --json is read, so a usage error sees it
    try:
        human, obj = _run(args, build_parser().parse_positionals(argv, args))
    except (ValueError, ZeroDivisionError) as exc:  # DomainError is a ValueError
        name = type(exc).__name__
        if args.json:
            import json  # only --json pays for it
            print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        elif isinstance(exc, DomainError):
            print(f"error: {name}: {exc}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json
        print(json.dumps(obj))
    else:
        print(human)
    return 0


if __name__ == "__main__":
    sys.exit(main())
