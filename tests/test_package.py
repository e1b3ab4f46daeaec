import ast
import contextlib
import importlib
import inspect
import io
import pickle
import sys
import tracemalloc
import typing
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

import pytest

import diatomic
from diatomic import _backend, cli, errors
from diatomic.errors import (
    DomainError,
    InsufficientBits,
    MalformedRuns,
    NonPositive,
    OutOfRange,
    OutOfTable,
    PerfectSquare,
    ZeroLength,
)
from diatomic.quadratic import QuadIrr


def test_every_exported_name_resolves():
    names = diatomic.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(diatomic, n)] == []


def test_the_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert diatomic.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]


API_MODULES = ["assembly", "continuant", "derivative", "design", "matrix", "quadratic",
               "rational", "sdi"]


def _defined_names(path) -> list:
    """The names a module's top level binds by def, class or plain assignment,
    leaving out the underscore ones and its imports."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def test_each_module_declares_the_public_names_it_defines():
    # a name is made public once, in its module's __all__, and the package
    # exports their union, so no public name misses the package
    package = Path(diatomic.__file__).parent
    union = ["BACKEND"]
    for name in API_MODULES:
        module = importlib.import_module(f"diatomic.{name}")
        assert sorted(module.__all__) == sorted(_defined_names(package / f"{name}.py")), name
        union += module.__all__
    assert diatomic.__all__ == union and len(set(union)) == len(union)


def test_every_public_parameter_has_a_resolvable_annotation():
    # a kind check driven by the signatures needs a type for every argument
    missing = []
    for name in diatomic.__all__:
        fn = getattr(diatomic, name)
        if inspect.isfunction(fn):
            hints = typing.get_type_hints(fn)
            missing += [f"{name}({p})" for p in inspect.signature(fn).parameters if p not in hints]
    assert missing == []
    runs_readers = [diatomic.continuant, diatomic.cf_eval, diatomic.sdi_corner_continuants,
                    diatomic.cf_product_decomposition, diatomic.from_runs,
                    diatomic.design._check_runs, diatomic.realizing_pair]
    assert {next(iter(typing.get_type_hints(fn).values())) for fn in runs_readers} == {
        Iterable[int]}


# one argument of each kind; an annotation admits some and excludes the rest
KINDS = [3, 1.5, "1/3", Fraction(1, 3), (1, 3), [1, 3], None, diatomic.FiniteDesign("10"),
         diatomic.ExtRational(1, 3), diatomic.UniModMatrix(2, 1, 1, 1), QuadIrr(1, 1, 1),
         diatomic.PeriodicDesign(diatomic.FiniteDesign(""), diatomic.FiniteDesign("10")),
         diatomic.Side.RIGHT]
# a value of each admitted kind that most functions accept; VALID_ARGS holds the rest
VALID = {int: 3, str: "10", Fraction: Fraction(1, 4), tuple: (2, 1, 2), bool: True,
         **{type(x): x for x in KINDS[7:]}}
VALID_ARGS = {"assembly_enclose": ("101", 3), "parse_matrix": ("2,1;1,1",),
              "sdi": (3, 5), "euclidean_design": (3, 2), "partial_quotients": (3, 2),
              "periodic_design_of_sqrt": (Fraction(2, 3),), "sqrt_cf": (3, 1),
              "PeriodicDesign": (diatomic.FiniteDesign(""), diatomic.FiniteDesign("10")),
              "UniModMatrix": (2, 1, 1, 1)}
# the public functions and the constructors of the value classes; QuotientScan
# is a result record that only quotient_scan builds, and it checks nothing
PUBLIC_CALLABLES = [name for name in diatomic.__all__ if name != "QuotientScan" and (
    inspect.isfunction(inspect.unwrap(getattr(diatomic, name)))
    or "__init__" in getattr(getattr(diatomic, name), "__dict__", ()))]


def _admitted(hint) -> tuple:
    """The kinds an annotation admits: its class or each class of its union,
    an int where a Fraction goes too, and a tuple or list for an iterable."""
    if typing.get_origin(hint) is Iterable:
        return tuple, list
    kinds = typing.get_args(hint) or (hint,)
    return kinds + (int,) * (Fraction in kinds)


@pytest.mark.parametrize("name", PUBLIC_CALLABLES)
def test_every_parameter_refuses_each_kind_its_annotation_excludes(name):
    # driven by the signatures, so a new function, constructor or parameter is
    # probed without a hand-written row; the other slots hold values fn accepts
    fn = getattr(diatomic, name)
    hints = typing.get_type_hints(fn.__init__ if isinstance(fn, type) else inspect.unwrap(fn))
    params = list(inspect.signature(fn).parameters)
    valid = VALID_ARGS.get(name) or tuple(VALID[_admitted(hints[p])[0]] for p in params)
    fn(*valid)
    found = []
    for i, p in enumerate(params):
        for x in KINDS:
            if isinstance(x, _admitted(hints[p])):
                continue
            try:
                fn(*valid[:i], x, *valid[i + 1:])
            except DomainError:
                continue
            except Exception as exc:  # any other error is a gap in the checks
                found.append(f"{p}={x!r}: {type(exc).__name__}")
            else:
                found.append(f"{p}={x!r}: no error")
    assert found == []


def test_benchmark_hooks_resolve():
    # perfbench wraps the kernels and layer functions by name and reads the
    # sdi_quadruple cache and BACKEND; without this test a missing name would
    # fail only a traced benchmark run, which the suite never starts.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import spans
    finally:
        sys.path.pop(0)
    kernels = {name: getattr(_backend, name) for name in spans.KERNEL_BITS}
    tracer = spans.Tracer()
    try:
        spans.install_layers(tracer)
        assert all(getattr(_backend, name) is not fn for name, fn in kernels.items())
    finally:
        tracer.restore()
    assert all(getattr(_backend, name) is fn for name, fn in kernels.items())
    assert len(tracer.names) == len(kernels) + len(spans.FUNCTION_LAYERS) + len(spans.CLASS_LAYERS)
    diatomic.sdi_quadruple.cache_info()
    assert callable(diatomic.sdi_quadruple.cache_clear)
    assert isinstance(diatomic.BACKEND, str)
    # the scan check rebuilds A(eta + h) from one sample with five value
    # members; a cut to any of them would turn a benchmark run incorrect
    eta = Fraction(300, 1019)
    base = diatomic.assembly_of_rational_theta(eta)
    for h, q in diatomic.quotient_scan(eta, diatomic.Side.LEFT, 12).samples:
        assert q.sign() > 0
        value = base.field_element() - q.mul_fraction(-h)
        assert value == diatomic.assembly_of_rational_theta(eta + h)
        t = eta + h
        m = (t.numerator << 40) // t.denominator
        enc = diatomic.assembly_enclose(format(m, "040b"), 40)
        assert value.compare_fraction(enc.lo.as_fraction()) > 0
        assert value.compare_fraction(enc.hi.as_fraction()) < 0


# (call on the huge operand h, error type, end of the message)
HUGE_OPERAND_ERRORS = {
    "assembly_theta": (lambda h: diatomic.assembly_theta(Fraction(1, 3 * h)), OutOfRange,
                       "got 1/<20001-bit integer>"),
    "assembly_enclose n": (lambda h: diatomic.assembly_enclose("01", -h), OutOfRange,
                           "got <-20000-bit integer>"),
    "assembly_enclose bits": (lambda h: diatomic.assembly_enclose("01", h), InsufficientBits,
                              "need <20000-bit integer> bits, got 2"),
    "assembly_of_rational_theta": (lambda h: diatomic.assembly_of_rational_theta(Fraction(h, 3)),
                                   OutOfRange, "got <20000-bit integer>/3"),
    "from_runs of a Fraction": (lambda h: diatomic.from_runs((Fraction(h, 3),)), MalformedRuns,
                                "<tuple of length 1, items up to 20000 bits>"),
    "from_runs of a nested tuple": (lambda h: diatomic.from_runs([(h,)]), MalformedRuns,
                                    "<tuple of length 1, items up to 20000 bits>"),
    "from_runs of a nested list": (lambda h: diatomic.from_runs([[h]]), MalformedRuns,
                                   "<tuple of length 1, items up to 20000 bits>"),
    "fib_continuant": (lambda h: diatomic.fib_continuant(-h), ZeroLength,
                       "got <-20000-bit integer>"),
    "design_of_theta": (lambda h: diatomic.design_of_theta(Fraction(h, 3)), OutOfRange,
                        "got <20000-bit integer>/3"),
    "field_element": (lambda h: QuadIrr(1, 0, 2).field_element(h), OutOfRange,
                      "outside Q(sqrt(<20000-bit integer>))"),
    "sqrt_cf nonpositive": (lambda h: diatomic.sqrt_cf(-h, 1), NonPositive,
                            "got <-20000-bit integer>/1"),
    "sqrt_cf square": (lambda h: diatomic.sqrt_cf(h * h, 1), PerfectSquare,
                       "sqrt(<39999-bit integer>) is rational"),
    "purity_test": (lambda h: diatomic.purity_test(Fraction(h, 3)), OutOfRange,
                    "got <20000-bit integer>/3"),
    "stern": (lambda h: diatomic.stern(-h), OutOfTable, "got <-20000-bit integer>"),
    "sdi address": (lambda h: diatomic.sdi(-h, 0), OutOfTable,
                    "negative address (<-20000-bit integer>, 0)"),
    "sdi order": (lambda h: diatomic.sdi(3, h), OutOfTable,
                  "order <20000-bit integer> exceeds row end 2^3"),
}


@pytest.mark.parametrize("site", HUGE_OPERAND_ERRORS)
def test_error_names_a_huge_operand_by_its_bit_length(site, huge):
    # a decimal form past the digit limit would raise a plain ValueError
    call, error, tail = HUGE_OPERAND_ERRORS[site]
    with pytest.raises(error) as info:
        call(huge)
    assert str(info.value).endswith(tail)


# (call on an argument of the wrong type, error type, message)
NON_INTEGER_ERRORS = {
    "matrix entries": (lambda: diatomic.UniModMatrix(2.0, 0, 0, 0.5), OutOfRange,
                       "entries must be integers, got (2.0, 0, 0, 0.5)"),
    "sdi_corner_continuants": (lambda: diatomic.sdi_corner_continuants((1.5,)), MalformedRuns,
                               "runs must be integers: (1.5,)"),
    "from_runs": (lambda: diatomic.from_runs((1, "0", 1)), MalformedRuns,
                  "runs must be integers: (1, '0', 1)"),
    "realizing_pair": (lambda: diatomic.realizing_pair((2.5,)), MalformedRuns,
                       "quotients must be integers: (2.5,)"),
    "realizing_pair of (1.0,)": (lambda: diatomic.realizing_pair((1.0,)), MalformedRuns,
                                 "quotients must be integers: (1.0,)"),
    "cf_eval": (lambda: diatomic.cf_eval((1.5,)), MalformedRuns,
                "continued fraction entries must be integers: (1.5,)"),
    "cf_eval of (1, 2.0)": (lambda: diatomic.cf_eval((1, 2.0)), MalformedRuns,
                            "continued fraction entries must be integers: (1, 2.0)"),
    "cf_product_decomposition": (lambda: diatomic.cf_product_decomposition((1.5,)),
                                 MalformedRuns,
                                 "continued fraction entries must be integers: (1.5,)"),
    # a run list that is not iterable at all
    "sdi_corner_continuants of an int": (lambda: diatomic.sdi_corner_continuants(5),
                                         MalformedRuns,
                                         "runs must be an iterable of integers, got int"),
    "from_runs of None": (lambda: diatomic.from_runs(None), MalformedRuns,
                          "runs must be an iterable of integers, got NoneType"),
    "realizing_pair of an int": (lambda: diatomic.realizing_pair(5), MalformedRuns,
                                 "quotients must be an iterable of integers, got int"),
    "cf_eval of an int": (lambda: diatomic.cf_eval(5), MalformedRuns,
                          "continued fraction word must be an iterable of integers, got int"),
    "cf_product_decomposition of a float": (
        lambda: diatomic.cf_product_decomposition(1.5), MalformedRuns,
        "continued fraction word must be an iterable of integers, got float"),
    "design_of_theta": (lambda: diatomic.design_of_theta(0.5), OutOfRange,
                        "need an int or a Fraction, got float"),
    "assembly_theta": (lambda: diatomic.assembly_theta(0.5), OutOfRange,
                       "need an int or a Fraction, got float"),
    "assembly_of_rational_theta": (lambda: diatomic.assembly_of_rational_theta(0.5), OutOfRange,
                                   "need an int or a Fraction, got float"),
    "purity_test": (lambda: diatomic.purity_test(0.5), OutOfRange,
                    "need an int or a Fraction, got float"),
    "derivative_at_rational": (lambda: diatomic.derivative_at_rational(0.5), OutOfRange,
                               "need an int or a Fraction, got float"),
    "quotient_scan": (lambda: diatomic.quotient_scan(0.5, diatomic.Side.RIGHT, 4), OutOfRange,
                      "need an int or a Fraction, got float"),
    "quotient_scan of a str": (lambda: diatomic.quotient_scan("1/2", diatomic.Side.RIGHT, 4),
                               OutOfRange, "need an int or a Fraction, got str"),
    "stern": (lambda: diatomic.stern(1.5), OutOfRange, "need an int, got float"),
    "assembly_dyadic": (lambda: diatomic.assembly_dyadic(1.0, 3), OutOfRange,
                        "need an int, got float"),
    "sdi": (lambda: diatomic.sdi(2.0, 1), OutOfRange, "need an int, got float"),
    # from a cold and from a warm cache: an untyped cache keys 3.0 and 3 alike,
    # so an earlier sdi_quadruple(3, 1) would answer for the float
    "sdi_quadruple": (lambda: diatomic.sdi_quadruple.cache_clear() or
                      diatomic.sdi_quadruple(3.0, 1), OutOfRange, "need an int, got float"),
    "sdi_quadruple of a list": (lambda: diatomic.sdi_quadruple([3], 1), OutOfRange,
                                "need an int, got list"),
    "sdi_quadruple from a warm cache": (lambda: diatomic.sdi_quadruple(3, 1) and
                                        diatomic.sdi_quadruple(3.0, 1), OutOfRange,
                                        "need an int, got float"),
    "fib_continuant": (lambda: diatomic.fib_continuant(2.0), OutOfRange,
                       "need an int, got float"),
    "euclidean_design": (lambda: diatomic.euclidean_design(3.0, 2), OutOfRange,
                         "need an int, got float"),
    "partial_quotients": (lambda: diatomic.partial_quotients(3.0, 2), OutOfRange,
                          "need an int, got float"),
    "quotient_scan jmax": (lambda: diatomic.quotient_scan(Fraction(1, 3), diatomic.Side.RIGHT,
                                                          2.5),
                           OutOfRange, "need an int, got float"),
    "assembly_enclose": (lambda: diatomic.assembly_enclose("1010", 2.0), OutOfRange,
                         "need an int, got float"),
    "terminal_of": (lambda: diatomic.FiniteDesign.terminal_of(2.0), OutOfRange,
                    "need an int, got float"),
    "sqrt_cf": (lambda: diatomic.sqrt_cf(2.0, 1), OutOfRange, "need an int, got float"),
    "ExtRational": (lambda: diatomic.ExtRational(1.5, 1), OutOfRange, "need an int, got float"),
    "FieldElement": (lambda: diatomic.FieldElement(1.0, 1, 1, 2), OutOfRange,
                     "need an int, got float"),
    "QuadIrr": (lambda: QuadIrr(1.0, 0, 2), OutOfRange, "need an int, got float"),
    "field_element": (lambda: QuadIrr(1, 0, 2).field_element(1.5), OutOfRange,
                      "need an int, got float"),
    "field_element of a str": (lambda: QuadIrr(1, 0, 2).field_element("x"), OutOfRange,
                               "need an int, got str"),
    "periodic_design_of_sqrt": (lambda: diatomic.periodic_design_of_sqrt(0.1), OutOfRange,
                                "need an int or a Fraction, got float"),
    "periodic_design_of_sqrt of a str": (lambda: diatomic.periodic_design_of_sqrt("2"),
                                         OutOfRange, "need an int or a Fraction, got str"),
    "FiniteDesign": (lambda: diatomic.FiniteDesign(101), OutOfRange, "need a str, got int"),
    "FiniteDesign of None": (lambda: diatomic.FiniteDesign(None), OutOfRange,
                             "need a str, got NoneType"),
    "make_periodic": (lambda: diatomic.make_periodic(1, "10"), OutOfRange,
                      "need a str, got int"),
    "parse_design": (lambda: diatomic.parse_design(5), OutOfRange, "need a str, got int"),
    "parse_ratio": (lambda: diatomic.parse_ratio(5), OutOfRange, "need a str, got int"),
    "parse_matrix": (lambda: diatomic.parse_matrix(5), OutOfRange, "need a str, got int"),
    "assembly_enclose bits": (lambda: diatomic.assembly_enclose(101, 2), OutOfRange,
                              "need a str, got int"),
    "assembly_inverse": (lambda: diatomic.assembly_inverse(Fraction(1, 3)), OutOfRange,
                         "need an ExtRational, got Fraction"),
    "apply_mobius": (lambda: diatomic.apply_mobius(diatomic.sdm(diatomic.FiniteDesign("10")),
                                                   Fraction(1, 3)),
                     OutOfRange, "need an ExtRational, got Fraction"),
    "apply_mobius of a tuple": (lambda: diatomic.apply_mobius((1, 0, 0, 1),
                                                              diatomic.ExtRational(1)),
                                OutOfRange, "need a UniModMatrix, got tuple"),
    "compose_action": (lambda: diatomic.compose_action(diatomic.FiniteDesign("10"), Fraction(1, 3)),
                       OutOfRange, "need an ExtRational, got Fraction"),
    "affine_derivative_factor": (lambda: diatomic.affine_derivative_factor(
        diatomic.FiniteDesign("10"), Fraction(1, 3)), OutOfRange,
        "need an ExtRational, got Fraction"),
    "compose_action of a str": (lambda: diatomic.compose_action("10", diatomic.ExtRational(1, 3)),
                                OutOfRange, "need a FiniteDesign, got str"),
    "affine_derivative_factor of a str": (lambda: diatomic.affine_derivative_factor(
        "10", diatomic.ExtRational(1, 3)), OutOfRange, "need a FiniteDesign, got str"),
    "runs": (lambda: diatomic.runs(None), OutOfRange, "need a FiniteDesign, got NoneType"),
    "sdm": (lambda: diatomic.sdm("101"), OutOfRange, "need a FiniteDesign, got str"),
    "matrix_symmetries": (lambda: diatomic.matrix_symmetries(3), OutOfRange,
                          "need a FiniteDesign, got int"),
    "theta_of": (lambda: diatomic.theta_of("10"), OutOfRange,
                 "need a FiniteDesign or a PeriodicDesign, got str"),
    "compose d2": (lambda: diatomic.compose(diatomic.FiniteDesign("1"), 3), OutOfRange,
                   "need a FiniteDesign or a PeriodicDesign, got int"),
    "design_of_matrix": (lambda: diatomic.design_of_matrix((1, 0, 0, 1)), OutOfRange,
                         "need a UniModMatrix, got tuple"),
    "cf_of_root": (lambda: diatomic.cf_of_root(Fraction(1, 2)), OutOfRange,
                   "need a QuadIrr, got Fraction"),
    "PeriodicDesign": (lambda: diatomic.PeriodicDesign("a", "b"), OutOfRange,
                       "need a FiniteDesign, got str"),
    "PeriodicDesign period": (lambda: diatomic.PeriodicDesign(diatomic.FiniteDesign(""), "10"),
                              OutOfRange, "need a FiniteDesign, got str"),
    "quad_of_periodic": (lambda: diatomic.quad_of_periodic("(10)"), OutOfRange,
                         "need a PeriodicDesign, got str"),
    "quad_from_period": (lambda: diatomic.quad_from_period("10"), OutOfRange,
                         "need a FiniteDesign, got str"),
    "Enclosure lo": (lambda: diatomic.Enclosure("a", diatomic.ExtRational(1), 3), OutOfRange,
                     "need an ExtRational, got str"),
    "Enclosure hi": (lambda: diatomic.Enclosure(diatomic.ExtRational(0), Fraction(1, 2), 3),
                     OutOfRange, "need an ExtRational, got Fraction"),
    "Enclosure bits_used": (lambda: diatomic.Enclosure(diatomic.ExtRational(0),
                                                       diatomic.ExtRational(1), 3.0),
                            OutOfRange, "need an int, got float"),
    "Enclosure.contains": (lambda: diatomic.assembly_enclose("101", 3).contains(Fraction(1, 3)),
                           OutOfRange, "need an ExtRational, got Fraction"),
    "Enclosure.contains of a QuadIrr": (lambda: diatomic.assembly_enclose("101", 3).contains(
        QuadIrr(1, 1, 1)), OutOfRange, "need an ExtRational, got QuadIrr"),
}


@pytest.mark.parametrize("site", NON_INTEGER_ERRORS)
def test_a_non_integer_raises_a_typed_error(site):
    call, error, message = NON_INTEGER_ERRORS[site]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_a_bool_counts_as_an_int():
    assert diatomic.stern(True) == 1
    assert diatomic.sdi(True, 1) == 1
    assert diatomic.assembly_dyadic(True, True) == diatomic.ExtRational(1)
    assert diatomic.sdi_quadruple(True, False) == (1, 0, 1, 1)
    assert diatomic.ExtRational(True, False).is_infinite


ERROR_TYPES = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, DomainError)]


def test_an_operand_below_the_digit_limit_prints_as_str():
    # an int of up to 209 bits prints in 64 characters, sign included
    top = 2**209 - 1
    for x in (0, -5, top, -top, Fraction(3, 4), Fraction(-7), Fraction(1, top),
              (1, -2, 10**54), (1.5, "0", Fraction(1, 3)), (1,) * 21, [1] * 21, 2.5, "x"):
        assert str(DomainError("got {}", x)) == f"got {x}"
    assert len(str(-top)) == len(str((1, -2, 10**54))) == len(str((1,) * 21)) + 1 == 64


def test_an_int_past_209_bits_is_named_by_its_bit_length():
    # decided from the bit length, so no long int is ever converted to text
    for x, shown in [(2**209, "<210-bit integer>"), (-(10**100), "<-333-bit integer>"),
                     (Fraction(10**100, 3), "<333-bit integer>/3"),
                     (Fraction(1, 2**209), "1/<210-bit integer>"),
                     ((1, -2, 10**100), "<tuple of length 3, items up to 333 bits>"),
                     ([(Fraction(1, 2**300),)], "<list of length 1, items up to 301 bits>")]:
        assert str(DomainError("got {}", x)) == f"got {shown}"


class _Unprintable:
    def __repr__(self):
        raise AssertionError("printed")


def test_a_tuple_or_list_past_64_characters_is_named_by_its_size():
    # 22 items print in at least 66 characters, so such a list is named from
    # its length and _most_bits, never printed; a shorter one is printed to
    # measure it, so any text past 64 characters is named too
    for x, shown in [((1,) * 22, "<tuple of length 22, items up to 1 bits>"),
                     ([1] * 10**6, "<list of length 1000000, items up to 1 bits>"),
                     ([_Unprintable()] * 22, "<list of length 22, items up to 0 bits>"),
                     ((1, -2, 10**55), "<tuple of length 3, items up to 183 bits>"),
                     (("x" * 10**5,), "<tuple of length 1, items up to 0 bits>"),
                     ([[1] * 30], "<list of length 1, items up to 1 bits>")]:
        assert str(DomainError("got {}", x)) == f"got {shown}"


@pytest.mark.parametrize("item", [[1] * 10**6, "x" * 10**6, b"x" * 10**6, bytearray(10**6),
                                  dict.fromkeys(range(10**5)), set(range(10**5))],
                         ids=["list", "str", "bytes", "bytearray", "dict", "set"])
def test_a_short_list_is_measured_before_it_is_printed(item):
    # a list of one long item prints in megabytes: its least width, found
    # from the item's length (a character per item at least), names it
    # without building that text
    tracemalloc.start()
    try:
        with pytest.raises(MalformedRuns, match=r"^runs must be integers: <tuple of length 1, "):
            diatomic.from_runs([item])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_a_long_text_operand_is_named_by_its_size():
    # a refusal quotes its text; past 64 characters the text is named by its
    # length, or by its digit count if it writes an integer
    for text, shown in [("7" * 64, "7" * 64), ("x" * 65, "<65-character text>"),
                        ("1" * 5000, "<5000-digit integer>"),
                        ("-" + "1" * 5000, "<-5000-digit integer>"),
                        ("1" * 5000 + "/3", "<5002-character text>"),
                        ("--" + "1" * 5000, "<5002-character text>")]:
        assert str(DomainError("bad {!r}", text)) == f"bad {shown!r}"


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda error: error.__name__)
def test_every_error_names_a_huge_operand_by_its_bit_length(error, huge):
    # an operand's decimal form past the digit limit would raise a plain ValueError
    for operand, text in [
        (huge, "<20000-bit integer>"),
        (-huge, "<-20000-bit integer>"),
        (Fraction(1, huge), "1/<20000-bit integer>"),
        (Fraction(-huge, 3), "<-20000-bit integer>/3"),
        (Fraction(huge), "<20000-bit integer>"),
        ((1, -huge), "<tuple of length 2, items up to 20000 bits>"),
        ((Fraction(3, huge), 1.5, "x"), "<tuple of length 3, items up to 20000 bits>"),
    ]:
        e = error("at {} and {}", operand, 7)
        assert type(e) is error and e.args == (f"at {text} and 7",)


BAD_TEXT = "2" * 10**5  # no design letter, no rational, no matrix


def _refusal(call, *args) -> tuple:
    """The name and the message of the DomainError that call(*args) raises."""
    with pytest.raises(DomainError) as info:
        call(*args)
    return type(info.value).__name__, str(info.value)


def _printed_refusal(*argv) -> tuple:
    """The name and the message of the error that the CLI prints for argv."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(list(argv)) == 2
    return err.getvalue().removeprefix("error: ").rstrip("\n").split(": ", 1)


# (refusal of a call given the 10^5-character text t, the error's name)
LONG_TEXT_ERRORS = {
    "parse_design": (lambda t: _refusal(diatomic.parse_design, t), "DesignSyntaxError"),
    "parse_design period group": (lambda t: _refusal(diatomic.parse_design, "(" + t),
                                  "DesignSyntaxError"),
    "parse_design stray close": (lambda t: _refusal(diatomic.parse_design, t + ")"),
                                 "DesignSyntaxError"),
    "FiniteDesign": (lambda t: _refusal(diatomic.FiniteDesign, t), "DesignSyntaxError"),
    "make_periodic": (lambda t: _refusal(diatomic.make_periodic, "", t), "DesignSyntaxError"),
    "PeriodicDesign of one letter": (
        lambda t: _refusal(diatomic.PeriodicDesign, diatomic.FiniteDesign(""),
                           diatomic.FiniteDesign("1" * len(t))), "InvalidPeriod"),
    "PeriodicDesign of a repeat": (
        lambda t: _refusal(diatomic.PeriodicDesign, diatomic.FiniteDesign(""),
                           diatomic.FiniteDesign("10" * (len(t) // 2))), "InvalidPeriod"),
    "quad_from_period": (lambda t: _refusal(diatomic.quad_from_period,
                                            diatomic.FiniteDesign("0" * len(t))),
                         "InvalidPeriod"),
    "assembly_enclose": (lambda t: _refusal(diatomic.assembly_enclose, t, 3), "OutOfRange"),
    "cli design inv": (lambda t: _printed_refusal("design", "inv", "1" * len(t) + "(01)"),
                       "DomainError"),
    "cli design theta --long": (lambda t: _printed_refusal("design", "theta", "1", "--" + t),
                                "DomainError"),
    "cli design of a long action": (lambda t: _printed_refusal("design", t), "DomainError"),
    "cli deriv scan --side": (lambda t: _printed_refusal("deriv", "scan", "1/3", "--side", t),
                              "DomainError"),
    # run lists of small integers that print past 64 characters
    "from_runs of an even list": (lambda t: _refusal(diatomic.from_runs, [1] * len(t)),
                                  "MalformedRuns"),
    "from_runs of a str entry": (lambda t: _refusal(diatomic.from_runs, [1] * len(t) + ["a"]),
                                 "MalformedRuns"),
    "cf_eval of a negative end": (lambda t: _refusal(diatomic.cf_eval, [1] * len(t) + [-1]),
                                  "MalformedRuns"),
    # integers under the digit limit that print past 64 characters
    "parse_ratio": (lambda t: _refusal(diatomic.parse_ratio, "-" + t[:4000]), "OutOfRange"),
    "parse_matrix": (lambda t: _refusal(diatomic.parse_matrix, "1,2;3," + t[:4000]),
                     "NotUnimodular"),
}


@pytest.mark.parametrize("site", LONG_TEXT_ERRORS)
def test_a_refusal_of_a_long_text_stays_short(site):
    # the text reaches the message as an operand, which _text names by its size
    refuse, error = LONG_TEXT_ERRORS[site]
    name, message = refuse(BAD_TEXT)
    assert name == error and len(message) <= 200
    assert any(size in message for size in ("-character text>", "-digit integer>", "-bit integer>",
                                            " bits>"))


def _formats_itself(message) -> bool:
    """Whether a message expression builds its own text from data: an
    f-string, a % expression or a .format() call anywhere in it."""
    return any(isinstance(node, ast.JoinedStr)
               or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
               or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "format"
               for node in ast.walk(message))


def test_every_refusal_is_a_template_and_its_operands():
    # DomainError formats each operand with _text, which names a long text or
    # a huge integer by its size; a message that formats itself echoes it
    names = {error.__name__ for error in ERROR_TYPES}
    found = []
    for path in sorted(Path(diatomic.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and node.args
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
                    and _formats_itself(node.args[0])):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_a_message_without_operands_keeps_its_braces():
    for error in ERROR_TYPES:
        assert error("{} and {0, 1} stay").args == ("{} and {0, 1} stay",)


def test_a_pickled_error_keeps_its_message(huge):
    for error in ERROR_TYPES:
        e = pickle.loads(pickle.dumps(error("({}, {}) in {{0, 1}}", huge, Fraction(1, 3))))
        assert type(e) is error and str(e) == "(<20000-bit integer>, 1/3) in {0, 1}"
    with pytest.raises(errors.NotCoprime) as info:
        diatomic.euclidean_design(4, 6)
    assert str(pickle.loads(pickle.dumps(info.value))) == "(4, 6) share a factor"


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; a newer interpreter
    # would run newer syntax without complaint, so check the grammar alone
    sources = sorted(Path(diatomic.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_every_cache_is_typed():
    # an untyped lru_cache keys 3.0 and 3 alike, so a warm entry would answer
    # for a float before the function's int check could refuse it
    package = Path(diatomic.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        uses = [(node.func, node.keywords) for node in nodes if isinstance(node, ast.Call)]
        uses += [(d, []) for node in nodes for d in getattr(node, "decorator_list", ())
                 if not isinstance(d, ast.Call)]  # a bare @lru_cache or @cache
        for cache, keywords in uses:
            if getattr(cache, "id", getattr(cache, "attr", None)) not in ("lru_cache", "cache"):
                continue
            if not any(k.arg == "typed" and getattr(k.value, "value", None) is True
                       for k in keywords):
                found.append(f"{path.name}:{cache.lineno}")
    assert found == []


def _is_bit_spec(spec) -> bool:
    """Whether a format spec node, a str or an f-string, ends in the b type."""
    if isinstance(spec, ast.JoinedStr) and spec.values:
        spec = spec.values[-1]
    return (isinstance(spec, ast.Constant) and isinstance(spec.value, str)
            and spec.value.endswith("b"))


def test_only_design_spells_an_int_as_a_bit_word():
    # an n-bit word of m comes from design._bits, the inverse of design_number;
    # _backend cannot import design, and its stern_pair prints m's bits unpadded
    package = Path(diatomic.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("design.py", "_backend.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "format":
                spec = node.args[1] if len(node.args) > 1 else None
            elif isinstance(node, ast.FormattedValue):
                spec = node.format_spec
            else:
                continue
            if _is_bit_spec(spec):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
