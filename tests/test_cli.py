import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diatomic import cli, design, errors, matrix
from diatomic.cli import main
from diatomic.rational import parse_fraction, parse_ratio


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stern(capsys):
    code, out, _ = run(capsys, "stern", "5")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "stern", "--sdi", "6", "51")
    assert code == 0 and out.strip() == "12"
    assert run(capsys, "stern", " 5 ")[:2] == (0, "3\n")
    assert run(capsys, "matrix", "to-design", " 5,7;2,3 ")[:2] == (0, "11001\n")


def test_stern_bad_input_exits_2(capsys):
    code, out, err = run(capsys, "stern", "x")
    assert (code, out, err) == (2, "", "error: DomainError: expected an integer, got 'x'\n")
    code, out, err = run(capsys, "--json", "stern", "x")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "DomainError", "message": "expected an integer, got 'x'"}


def test_design_commands(capsys):
    assert run(capsys, "design", "from-ratio", "7/3")[1].strip() == "11001"
    assert run(capsys, "design", "of-theta", "2/3")[1].strip() == "(10)"
    assert run(capsys, "design", "theta", "11001")[1].strip() == "25/32"
    assert run(capsys, "design", "compose", "10", "101")[1].strip() == "10101"
    assert run(capsys, "design", "conj", "11001")[1].strip() == "00111"
    assert run(capsys, "design", "inv", "11001")[1].strip() == "10011"
    assert run(capsys, "design", "reduce", "10100")[1].strip() == "101"


def test_design_from_ratio_end_points(capsys):
    # 0/1 and 1/0 are coprime pairs: the empty design and the terminal one
    assert run(capsys, "design", "from-ratio", "0/1")[:2] == (0, "\n")
    assert run(capsys, "design", "from-ratio", "0")[:2] == (0, "\n")
    assert run(capsys, "design", "from-ratio", "1/0")[:2] == (0, "t\n")
    code, out, _ = run(capsys, "--json", "design", "from-ratio", "0/1")
    assert code == 0 and json.loads(out) == {"design": ""}
    code, out, _ = run(capsys, "--json", "design", "from-ratio", "1/0")
    assert code == 0 and json.loads(out) == {"design": "t"}


def test_design_error_exit(capsys):
    code, _, err = run(capsys, "design", "from-ratio", "6/3")
    assert code == 2 and "NotCoprime" in err


def test_matrix_commands(capsys):
    assert run(capsys, "matrix", "of-design", "10101")[1].strip() == "5,8;3,5"
    assert run(capsys, "matrix", "to-design", "5,7;2,3")[1].strip() == "11001"
    assert run(capsys, "matrix", "apply", "2,1;1,1", "inf")[1].strip() == "2"
    code, _, err = run(capsys, "matrix", "to-design", "2,2;1,1")
    assert code == 2 and "NotUnimodular" in err


def test_assembly_commands(capsys):
    assert run(capsys, "assembly", "eval", "1/2")[1].strip() == "1"
    assert run(capsys, "assembly", "eval", "25/32")[1].strip() == "7/3"
    assert run(capsys, "assembly", "inverse", "7/3")[1].strip() == "11001 theta=25/32"
    assert run(capsys, "assembly", "qm-inverse", "3/4")[1].strip() == "2/3"
    out = run(capsys, "assembly", "enclose", "101010", "--n", "4")[1]
    assert out.strip() == "lo=3/2 hi=5/3 bits=4"


@pytest.mark.parametrize("argv", [("assembly", "sample", "--grid", "3"),
                                  ("deriv", "scan", "2/3", "--jmax", "6")])
def test_csv_is_accepted_ignored_and_says_so(capsys, argv):
    # both commands always print CSV rows
    assert run(capsys, *argv) == run(capsys, *argv, "--csv")
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"--csv accepted and ignored: {argv[1]} always prints CSV rows" in help_text


@pytest.mark.parametrize("argv, out", [
    (("assembly", "enclose", "--n", "4", "101010"), "lo=3/2 hi=5/3 bits=4\n"),
    (("deriv", "scan", "--jmax", "4", "1/2"), "2,4\n3,4\n4,16/3\n"),
    (("deriv", "scan", "--side", "left", "2/3", "--jmax", "2"),
     "1,-2 + 2*sqrt(5)\n2,0 + 8/5*sqrt(5)\n"),
    (("design", "compose", "10", "101"), "10101\n"),
    (("stern", "--sdi", "6", "51"), "12\n"),
    (("stern", "--", "5"), "3\n"),
    (("stern", "--sdi", " 6 ", "51"), "12\n"),
])
def test_options_may_come_before_between_or_after_the_arguments(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


def test_assembly_sample_rows_increase(capsys):
    code, out, _ = run(capsys, "assembly", "sample", "--grid", "3", "--csv")
    assert code == 0
    rows = [tuple(int(x) for x in line.split(",")) for line in out.strip().splitlines()]
    assert len(rows) == 8
    vals = [Fraction(vn, vd) for _, _, vn, vd in rows]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_quad_commands(capsys):
    out = run(capsys, "quad", "sqrt", "2")[1].strip()
    assert out == "period=(1001) equation: x^2 - 2 = 0"
    assert run(capsys, "quad", "from-period", "10")[1].strip() == "x^2 - x - 1 = 0"
    assert run(capsys, "quad", "purity", "5/6")[1].strip() == "non-pure"
    assert run(capsys, "quad", "classify", "1001")[1].strip() == "type 2"
    code, _, err = run(capsys, "quad", "sqrt", "9")
    assert code == 2 and "PerfectSquare" in err


def test_deriv_commands(capsys):
    assert run(capsys, "deriv", "classify", "1/2")[1].strip() == "diverges-to-infinity"
    assert run(capsys, "deriv", "classify", "2/3")[1].strip() == "zero-if-differentiable"
    code, out, _ = run(capsys, "deriv", "scan", "1/2", "--side", "right", "--jmax", "4", "--csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert [r[0] for r in rows] == ["2", "3", "4"]
    assert [r[1] for r in rows] == ["4", "4", "16/3"]


def test_deriv_scan_renders_field_elements(capsys):
    code, out, _ = run(capsys, "deriv", "scan", "2/3", "--jmax", "3", "--csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["2"] == "8"
    assert rows["3"] == "24 - 8*sqrt(5)"


def test_json_mode(capsys):
    code, out, _ = run(capsys, "--json", "assembly", "inverse", "7/3")
    obj = json.loads(out)
    assert code == 0 and obj == {"design": "11001", "theta": "25/32"}
    code, out, _ = run(capsys, "--json", "quad", "sqrt", "6")
    obj = json.loads(out)
    assert obj["period"] == "(110011)" and obj["equation"] == "x^2 - 6 = 0"
    code, out, _ = run(capsys, "--json", "stern", "5")
    assert json.loads(out) == {"value": "3"}


def test_boundary_values(capsys):
    assert run(capsys, "design", "of-theta", "1")[1].strip() == "t"
    assert run(capsys, "design", "of-theta", "0")[1].strip() == ""
    assert run(capsys, "assembly", "eval", "1")[1].strip() == "inf"
    assert run(capsys, "assembly", "inverse", "inf")[1].strip() == "t theta=1"
    assert run(capsys, "assembly", "inverse", "0")[1] == " theta=0\n"
    assert run(capsys, "assembly", "sample", "--grid", "0")[1].strip() == "0,1,0,1"


@pytest.mark.parametrize("argv, error", [
    (("assembly", "enclose", "1", "--n", "-1"), "OutOfRange"),
    (("deriv", "scan", "1/2", "--jmax", "-3"), "OutOfRange"),
    (("deriv", "scan", "1/2", "--jmax", "0"), "OutOfRange"),
    (("assembly", "sample", "--grid", "-1"), "OutOfRange"),
    (("design", "from-ratio", "x/3"), "DesignSyntaxError"),
    (("quad", "sqrt", "-2"), "OutOfRange"),
    (("assembly", "inverse", "-2/3"), "OutOfRange"),
    (("design", "from-ratio", "-3/2"), "ZeroInput"),
    (("--json", "design", "from-ratio", "-3/2"), "ZeroInput"),
    (("deriv", "scan", "1/3", "--side", "left", "--jmax", "1"), "OutOfRange"),
    (("design", "inv", "(10)"), "DomainError"),
    (("matrix", "to-design", "1,2;3"), "DesignSyntaxError"),
    (("matrix", "to-design", "a,b;c,d"), "DesignSyntaxError"),
    (("matrix", "to-design", "-1,2;3,4"), "NegativeEntry"),
])
def test_bad_input_names_its_domain_error(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    if argv[0] == "--json":
        assert err.count("\n") == 1
        obj = json.loads(err)
        assert set(obj) == {"error", "message"} and obj["error"] == error
        assert "(-3, 2)" in obj["message"]
    else:
        assert f"error: {error}:" in err


HUGE = "100000000000000000000000"  # 10^23, a run past sys.maxsize letters
LONG = "1" * 5000  # an integer past the interpreter's 4,300-digit limit
TEXT = "x" * 65  # one character past the longest text an error echoes
TYPED_ERRORS = [
    (("design", "from-ratio", f"1/{HUGE}"), "OutOfRange",
     f"a path run of {10**23 - 1} letters is too long to build"),
    (("assembly", "inverse", HUGE), "OutOfRange",
     f"a path run of {10**23 - 1} letters is too long to build"),
    (("matrix", "to-design", f"1,{HUGE};0,1"), "OutOfRange",
     f"a path run of {HUGE} letters is too long to build"),
    # sqrt(2^130 + 1) = [2^65; 2^66, ...], a design run of 2^65 letters
    (("quad", "sqrt", str(2**130 + 1)), "OutOfRange",
     f"a run of more than {sys.maxsize} letters is too long to build"),
] + [
    ((command, action, "1", "junk"), "DomainError", f"{command} {action} takes 1 argument, got 2")
    for command, action in [("design", "from-ratio"), ("design", "theta"), ("design", "of-theta"),
                            ("design", "conj"), ("design", "inv"), ("design", "reduce"),
                            ("matrix", "of-design"), ("matrix", "to-design")]
] + [
    (("assembly", "sample", "junk"), "DomainError", "assembly sample takes 0 arguments, got 1"),
    (("design", "compose", "10"), "DomainError", "design compose takes 2 arguments, got 1"),
    (("matrix", "apply", "1,1;0,1", "1", "2"), "DomainError",
     "matrix apply takes 2 arguments, got 3"),
    (("assembly", "eval"), "DomainError", "assembly eval takes 1 argument, got 0"),
    # usage errors take the same path as every other error
    (("stern", "3", "x"), "DomainError", "stern takes 1 argument, got 2"),
    # an integer is ASCII digits after an optional minus, not any text int() reads
    (("stern", "1_0"), "DomainError", "expected an integer, got '1_0'"),
    (("stern", "+5"), "DomainError", "expected an integer, got '+5'"),
    (("design", "from-ratio", "1_0/3"), "DesignSyntaxError", "bad ratio '1_0/3'"),
    (("design", "from-ratio", "3/ 4"), "DesignSyntaxError", "bad ratio '3/ 4'"),
    (("assembly", "inverse", "\u0663/4"), "DomainError", "bad rational '\u0663/4'"),
    (("matrix", "to-design", "5,+7;2,3"), "DesignSyntaxError", "bad matrix text '5,+7;2,3'"),
    (("matrix", "to-design", "5, 7;2,3"), "DesignSyntaxError", "bad matrix text '5, 7;2,3'"),
    (("stern", "5", "--sdi", "x"), "DomainError", "argument --sdi: invalid int value: 'x'"),
    # the integer options read integers as the positionals do
    (("stern", "--sdi", "1_0", "5"), "DomainError", "argument --sdi: invalid int value: '1_0'"),
    (("assembly", "enclose", "101010", "--n", "+4"), "DomainError",
     "argument --n: invalid int value: '+4'"),
    (("assembly", "sample", "--grid", "\u0662"), "DomainError",
     "argument --grid: invalid int value: '\u0662'"),
    (("deriv", "scan", "1/3", "--jmax", "1_0"), "DomainError",
     "argument --jmax: invalid int value: '1_0'"),
    # past 64 characters an option's text is named by its size, not echoed
    (("stern", "--sdi", LONG, "5"), "DomainError",
     "argument --sdi: invalid int value: '<5000-digit integer>'"),
    (("deriv", "scan", "1/3", "--jmax", LONG), "DomainError",
     "argument --jmax: invalid int value: '<5000-digit integer>'"),
    (("assembly", "sample", "--grid", TEXT), "DomainError",
     "argument --grid: invalid int value: '<65-character text>'"),
    (("design", "theta", "1", "--bogus"), "DomainError", "unrecognized arguments: --bogus"),
    (("design", "theta", "--bogus", "1"), "DomainError", "unrecognized arguments: --bogus 1"),
    (("assembly", "enclose", "--n", "4", "-x", "1"), "DomainError", "unrecognized arguments: -x 1"),
    (("design", "bogus", "1"), "DomainError",
     "argument action: invalid choice: 'bogus' (choose from 'from-ratio', 'theta', 'of-theta', "
     "'conj', 'inv', 'reduce', 'compose')"),
    # past 64 characters a choice is named by the size of its quoted text
    (("design", TEXT), "DomainError",
     "argument action: invalid choice: <67-character text> (choose from 'from-ratio', 'theta', "
     "'of-theta', 'conj', 'inv', 'reduce', 'compose')"),
    ((TEXT,), "DomainError",
     "argument command: invalid choice: <67-character text> (choose from 'stern', 'design', "
     "'matrix', 'assembly', 'quad', 'deriv')"),
    (("deriv", "scan", "1/3", "--side", TEXT), "DomainError",
     "argument --side: invalid choice: <67-character text> (choose from 'left', 'right')"),
    ((), "DomainError", "the following arguments are required: command"),
    # an option the action does not read is refused, not ignored
    (("assembly", "eval", "1/2", "--n", "5"), "DomainError", "assembly eval does not read --n"),
    (("deriv", "classify", "1/3", "--jmax", "5", "--side", "left"), "DomainError",
     "deriv classify does not read --side, --jmax"),
    (("deriv", "classify", "1/3", "--csv"), "DomainError", "deriv classify does not read --csv"),
]


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv, error, message", TYPED_ERRORS,
                         ids=[" ".join(argv).replace(HUGE, "10^23").replace(LONG, "1*5000")
                              .replace(TEXT, "x*65")
                              or "no command"
                              for argv, _, _ in TYPED_ERRORS])
def test_an_error_is_typed_in_both_modes(capsys, argv, error, message, json_mode):
    code, out, err = run(capsys, *(("--json",) if json_mode else ()), *argv)
    assert code == 2 and out == ""
    if json_mode:
        assert json.loads(err) == {"error": error, "message": message}
    else:
        assert err == f"error: {error}: {message}\n"


def test_json_errors_are_one_json_line(capsys, monkeypatch):
    code, out, err = run(capsys, "--json", "design", "from-ratio", "4/6")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "NotCoprime", "message": "(4, 6) share a factor"}

    def fail(t):
        raise ZeroDivisionError("pole of the transformation")

    # the table holds the library function itself, so patch the table's row
    parsers, options, _, key = cli.COMMANDS["design"]["of-theta"]
    monkeypatch.setitem(cli.COMMANDS["design"], "of-theta", (parsers, options, fail, key))
    code, out, err = run(capsys, "--json", "design", "of-theta", "1/3")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ZeroDivisionError",
                               "message": "pole of the transformation"}
    code, out, err = run(capsys, "design", "of-theta", "1/3")
    assert code == 2 and err == "error: pole of the transformation\n"


def test_deterministic_output(capsys):
    a = run(capsys, "assembly", "sample", "--grid", "5", "--csv")[1]
    b = run(capsys, "assembly", "sample", "--grid", "5", "--csv")[1]
    assert a == b


def test_round_trip_through_text_formats(capsys):
    design = run(capsys, "design", "from-ratio", "29/13")[1].strip()
    mat = run(capsys, "matrix", "of-design", design)[1].strip()
    back = run(capsys, "matrix", "to-design", mat)[1].strip()
    assert back == design
    theta = run(capsys, "design", "theta", design)[1].strip()
    again = run(capsys, "design", "of-theta", theta)[1].strip()
    assert again == design


def test_python_m_runs_main(tmp_path):
    # the console entry point: main reads sys.argv and its return is the exit status
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "diatomic.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True)

    done = python_m("design", "from-ratio", "7/3")
    assert (done.returncode, done.stdout, done.stderr) == (0, "11001\n", "")
    done = python_m("--json", "stern", "3", "x")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert json.loads(done.stderr) == {"error": "DomainError",
                                       "message": "stern takes 1 argument, got 2"}


# ------------------------------------------------------------------ fuzz
# Calls are drawn from cli.COMMANDS, the table the CLI itself is built from:
# each positional from the pool of its parser, and each option from the pool
# of its name.  Arguments come from small pools, and integers stay below
# 10^4, --grid at 8 or less and --jmax at 40 or less, so no example builds a
# large word or row.  A value never starts with a minus that is not followed
# by a digit: argparse reads such an argument as an option.

DOMAIN_ERRORS = {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, errors.DomainError)}
INTS = st.integers(-99, 9999).map(str)
RATIOS = st.one_of(
    st.sampled_from(["0/0", "1/0", "0/1", "inf", "3/-2", "-3/2", "1/", "/2", "x/3", "1.5", ""]),
    INTS,
    st.builds("{}/{}".format, st.integers(-99, 9999), st.integers(-99, 9999)),
    st.integers(1, 9999).flatmap(lambda b: st.integers(0, b).map(f"{{}}/{b}".format)),
)
BITS = st.text(alphabet="01", max_size=12)
WORDS = st.one_of(
    BITS,
    BITS.map("{}t".format),
    st.builds("{}({})".format, BITS, BITS),
    st.text(alphabet="01t()x ", max_size=12),
)
MATRICES = st.one_of(
    st.sampled_from(["1,2;3", "a,b;c,d", "1,0;0,1", "5,7;2,3", "8,3;5,2", "2,1;1,1", ""]),
    st.builds("{},{};{},{}".format, *[st.integers(-9, 99)] * 4),
)
POSITIONALS = {
    cli._int: INTS,
    parse_fraction: RATIOS,
    parse_ratio: RATIOS,
    cli._design_from_ratio: RATIOS,
    design.parse_design: WORDS,
    cli._finite: WORDS,
    str: WORDS,
    matrix.parse_matrix: MATRICES,
}
OPTIONS = {  # None for a flag
    "sdi": INTS,
    "n": st.integers(-3, 40).map(str),
    "grid": st.integers(-2, 8).map(str),
    "side": st.sampled_from(["left", "right"]),
    "jmax": st.integers(-2, 40).map(str),
    "csv": None,
}
ACTIONS = [(command, action) for command, actions in cli.COMMANDS.items() for action in actions]


def option_argv(draw, dest):
    return [f"--{dest}"] + ([] if OPTIONS[dest] is None else [draw(OPTIONS[dest])])


@st.composite
def cli_calls(draw, extra=False, unread=False):
    """(argv, command, action, unread option): a call in the CLI grammar,
    with one positional more than the action takes if extra, and one
    option the action does not read if unread."""
    command, action = draw(st.sampled_from(ACTIONS))
    parsers, options, _, _ = cli.COMMANDS[command][action]
    argv = ["--json"] if draw(st.booleans()) else []
    argv += [command] + ([action] if action else [])
    groups = [[draw(POSITIONALS[parse])] for parse in parsers]
    if extra:
        groups.append([draw(st.one_of(WORDS, RATIOS))])
    names = list(draw(st.permutations(options)))[:draw(st.integers(0, len(options)))]
    stray = draw(st.sampled_from([d for d in OPTIONS if d not in options])) if unread else None
    if stray:
        names.append(stray)
    for dest in names:  # before, between or after the positionals
        groups.insert(draw(st.integers(0, len(groups))), option_argv(draw, dest))
    return argv + [arg for group in groups for arg in group], command, action, stray


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def error_name(argv, err):
    if argv[0] == "--json":
        assert err.count("\n") == 1
        obj = json.loads(err)
        assert set(obj) == {"error", "message"}
        return obj["error"]
    return re.fullmatch(r"error: (\w+): .*\n", err, re.DOTALL).group(1)


@settings(max_examples=400, deadline=None)
@given(cli_calls())
def test_every_call_exits_0_or_names_a_domain_error(call):
    argv, _, _, _ = call
    code, out, err = call_main(argv)
    if code == 0:
        assert err == "" and out.endswith("\n")
        if argv[0] == "--json":
            json.loads(out)
    else:
        assert code == 2 and out == ""
        assert error_name(argv, err) in DOMAIN_ERRORS


@settings(max_examples=200, deadline=None)
@given(cli_calls(extra=True))
def test_one_extra_positional_always_exits_2(call):
    argv, command, action, _ = call
    code, out, err = call_main(argv)
    assert code == 2 and out == "" and error_name(argv, err) == "DomainError"
    want = len(cli.COMMANDS[command][action][0])
    name = f"{command} {action}" if action else command
    assert f"{name} takes {want} argument" in err and f", got {want + 1}" in err


@settings(max_examples=200, deadline=None)
@given(cli_calls(unread=True))
def test_an_option_the_action_does_not_read_always_exits_2(call):
    argv, _, _, stray = call
    code, out, err = call_main(argv)
    assert code == 2 and out == "" and error_name(argv, err) == "DomainError"
    assert f"--{stray}" in err


@pytest.mark.parametrize("argv, message", [
    (("stern", "9" * 5000), "DomainError: expected an integer, got '<5000-digit integer>'"),
    (("assembly", "inverse", "9" * 5000), "DomainError: bad rational '<5000-digit integer>'"),
    (("design", "from-ratio", "9" * 5000 + "/2"),
     "DesignSyntaxError: bad ratio '<5002-character text>'"),
    (("matrix", "to-design", "1,0;1," + "9" * 5000),
     "DesignSyntaxError: bad matrix text '<5006-character text>'"),
])
def test_an_integer_past_the_digit_limit_is_refused_by_its_size(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
