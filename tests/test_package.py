import sys
from fractions import Fraction
from pathlib import Path

import pytest

import diatomic
from diatomic import _backend
from diatomic.errors import (
    InsufficientBits,
    MalformedRuns,
    NonPositive,
    OutOfRange,
    OutOfTable,
    PerfectSquare,
    ZeroLength,
    operand_text,
    operands_text,
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


# (call on a non-integer, error type, message)
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
}


@pytest.mark.parametrize("site", NON_INTEGER_ERRORS)
def test_a_non_integer_raises_a_typed_error(site):
    call, error, message = NON_INTEGER_ERRORS[site]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_operand_text_is_str_below_the_digit_limit():
    for x in (0, -5, 10**100, Fraction(3, 4), Fraction(-7), Fraction(1, 10**100)):
        assert operand_text(x) == str(x)
    assert operands_text((1, -2, 10**100)) == str((1, -2, 10**100))
