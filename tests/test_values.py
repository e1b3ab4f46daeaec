"""The value-class contract: every exact value type is immutable, hashable,
printed as before, constructible by keyword, and copyable and picklable."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diatomic import (
    Enclosure,
    ExtRational,
    FieldElement,
    FiniteDesign,
    PeriodicDesign,
    QuadIrr,
    QuotientScan,
    Side,
    UniModMatrix,
    assembly_enclose,
    parse_design,
    quad_of_periodic,
    quotient_scan,
)
from diatomic.errors import OutOfRange

# (value, its repr, an equal value built by keyword, a different value)
CASES = [
    (FiniteDesign("101"), "FiniteDesign(bits='101', terminal=False)",
     FiniteDesign(bits="101"), FiniteDesign("1010")),
    (FiniteDesign.terminal_of(3), "FiniteDesign(bits='100', terminal=True)",
     FiniteDesign(bits="100", terminal=True), FiniteDesign("100")),
    (parse_design("1(10)"),
     "PeriodicDesign(preperiod=FiniteDesign(bits='1', terminal=False), "
     "period=FiniteDesign(bits='10', terminal=False))",
     PeriodicDesign(preperiod=FiniteDesign("1"), period=FiniteDesign("10")),
     parse_design("(10)")),
    (UniModMatrix(2, 1, 1, 1), "UniModMatrix(a=2, b=1, c=1, d=1)",
     UniModMatrix(a=2, b=1, c=1, d=1), UniModMatrix(1, 1, 1, 2)),
    (assembly_enclose("101010", 4),
     "Enclosure(lo=ExtRational(3, 2), hi=ExtRational(5, 3), bits_used=4)",
     Enclosure(lo=ExtRational(3, 2), hi=ExtRational(5, 3), bits_used=4),
     assembly_enclose("101010", 5)),
    (quotient_scan(Fraction(1, 2), Side.RIGHT, 2),
     "QuotientScan(eta=Fraction(1, 2), side=<Side.RIGHT: 'right'>, "
     "samples=((Fraction(1, 4), ExtRational(4, 1)),))",
     QuotientScan(eta=Fraction(1, 2), side=Side.RIGHT,
                  samples=((Fraction(1, 4), ExtRational(4)),)),
     quotient_scan(Fraction(1, 2), Side.LEFT, 2)),
    (quotient_scan(Fraction(2, 3), Side.LEFT, 2),
     "QuotientScan(eta=Fraction(2, 3), side=<Side.LEFT: 'left'>, "
     "samples=((Fraction(-1, 2), FieldElement(-2, 2, 1, d=5)), "
     "(Fraction(-1, 4), FieldElement(0, 8, 5, d=5))))",
     QuotientScan(eta=Fraction(2, 3), side=Side.LEFT,
                  samples=((Fraction(-1, 2), FieldElement(-2, 2, 1, 5)),
                           (Fraction(-1, 4), FieldElement(0, 8, 5, 5)))),
     quotient_scan(Fraction(2, 3), Side.LEFT, 1)),
    (ExtRational(3, 4), "ExtRational(3, 4)", ExtRational(num=6, den=8), ExtRational(4, 3)),
    (ExtRational.infinity(), "ExtRational(1, 0)", ExtRational(num=2, den=0), ExtRational(1)),
    (FieldElement(1, 2, 3, 5), "FieldElement(1, 2, 3, d=5)",
     FieldElement(p=2, q=4, r=6, d=5), FieldElement(1, 2, 3, 7)),
    (QuadIrr(1, 1, 1), "QuadIrr(a2=1, b1=1, c0=1, plus_branch=True)",
     QuadIrr(a2=2, b1=2, c0=2, plus_branch=True), QuadIrr(1, 1, 3)),
]
IDS = [type(case[0]).__name__ for case in CASES]
FIELDS = {
    FiniteDesign: ("bits", "terminal"),
    PeriodicDesign: ("preperiod", "period"),
    UniModMatrix: ("a", "b", "c", "d"),
    Enclosure: ("lo", "hi", "bits_used"),
    QuotientScan: ("eta", "side", "samples"),
    ExtRational: ("num", "den"),
    FieldElement: ("p", "q", "r", "d"),
    QuadIrr: ("p", "q", "r", "d", "a2", "b1", "c0", "plus_branch"),
}


@pytest.mark.parametrize("value, text, by_keyword, other", CASES, ids=IDS)
def test_repr_is_pinned(value, text, by_keyword, other):
    assert repr(value) == text
    assert repr(by_keyword) == text


@pytest.mark.parametrize("value, text, by_keyword, other", CASES, ids=IDS)
def test_equality_and_hash(value, text, by_keyword, other):
    assert value == by_keyword and hash(value) == hash(by_keyword)
    assert value != other
    assert len({value, by_keyword, other}) == 2
    assert value != tuple(getattr(value, name) for name in FIELDS[type(value)])


def test_values_of_different_classes_with_equal_fields_differ():
    assert UniModMatrix(2, 3, 1, 2) != FieldElement(2, 3, 1, 2)
    assert FiniteDesign("1") != PeriodicDesign(FiniteDesign(""), FiniteDesign("10"))


def test_a_quadratic_irrational_equals_its_field_element():
    q = QuadIrr(1, 1, 1)
    f = FieldElement(1, 1, 2, 5)
    assert q == f and f == q and hash(q) == hash(f)
    assert len({q, f}) == 1
    assert QuadIrr(1, 3, -1, plus_branch=False) != QuadIrr(1, 3, -1)


_OPERANDS = {"x": FieldElement(1, 1, 2, 5), "half": ExtRational(1, 2),
             "one": UniModMatrix(1, 0, 0, 1), "Fraction": Fraction}


@pytest.mark.parametrize("expr, error", [
    # the operators leave another type to Python, which raises TypeError;
    # ExtRational has no arithmetic at all
    ("x - 1", TypeError), ("1 - x", TypeError), ("x - half", TypeError),
    ("one * 5", TypeError), ("half + 1", TypeError), ("half - 1", TypeError),
    ("half * Fraction(1, 3)", TypeError), ("half / 2", TypeError),
    ("half < Fraction(1, 3)", TypeError), ("half <= 1", TypeError),
    ("half > Fraction(1, 3)", TypeError), ("half >= 1", TypeError),
    ("half > 0.5", TypeError), ("Fraction(1, 3) < half", TypeError),
    ("half >= None", TypeError), ("2 > half", TypeError),
    # the field's scalar methods take an int or a Fraction only
    ("x.mul_fraction(0.5)", OutOfRange), ("x.compare_fraction(0.5)", OutOfRange),
    ("x.mul_fraction(half)", OutOfRange), ("x.compare_fraction('1/2')", OutOfRange),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_an_operand_of_another_type_raises_a_typed_error(expr, error):
    with pytest.raises(error) as info:
        eval(expr, dict(_OPERANDS))
    assert type(info.value) is error
    x = _OPERANDS["x"]
    assert x.mul_fraction(2) == x.mul_fraction(Fraction(2)) and x.compare_fraction(1) > 0


@pytest.mark.parametrize("value, text, by_keyword, other", CASES, ids=IDS)
def test_assignment_and_deletion_raise(value, text, by_keyword, other):
    before = repr(value)
    for name in FIELDS[type(value)]:
        with pytest.raises(AttributeError):
            setattr(value, name, 99)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


def test_a_value_cannot_leave_its_set():
    q = quad_of_periodic(parse_design("(10)"))
    s = {q}
    with pytest.raises(AttributeError):
        q.p = 99
    assert q in s and q.c0 == 1


@pytest.mark.parametrize("value, text, by_keyword, other", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_rebuild_an_equal_value(value, text, by_keyword, other):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(value)
        assert c == value and hash(c) == hash(value) and repr(c) == text
        with pytest.raises(AttributeError):
            setattr(c, FIELDS[type(value)][0], 0)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # the two modules cost about a third of the CLI's import time, and only
    # --json needs json
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, diatomic.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
