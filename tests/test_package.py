import ast
import pickle
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import diatomic
from diatomic import _backend, errors
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
    "sdi_from_runs": (lambda: diatomic.sdi_from_runs((1.5,)), MalformedRuns,
                      "runs must be integers: (1.5,)"),
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
    for x in (0, -5, 10**100, Fraction(3, 4), Fraction(-7), Fraction(1, 10**100),
              (1, -2, 10**100), (1.5, "0", Fraction(1, 3)), 2.5, "x"):
        assert str(DomainError("got {}", x)) == f"got {x}"


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
