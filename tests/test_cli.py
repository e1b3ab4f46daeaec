import json
from fractions import Fraction

import pytest

from diatomic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stern(capsys):
    code, out, _ = run(capsys, "stern", "5")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "stern", "--sdi", "6", "51")
    assert code == 0 and out.strip() == "12"


def test_stern_bad_input_exits_2(capsys):
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["stern", "x"])
    assert exc.value.code == 2


def test_design_commands(capsys):
    assert run(capsys, "design", "from-ratio", "7/3")[1].strip() == "11001"
    assert run(capsys, "design", "of-theta", "2/3")[1].strip() == "(10)"
    assert run(capsys, "design", "theta", "11001")[1].strip() == "25/32"
    assert run(capsys, "design", "compose", "10", "101")[1].strip() == "10101"
    assert run(capsys, "design", "conj", "11001")[1].strip() == "00111"
    assert run(capsys, "design", "inv", "11001")[1].strip() == "10011"
    assert run(capsys, "design", "reduce", "10100")[1].strip() == "101"


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
])
def test_bad_input_names_its_domain_error(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and f"error: {error}:" in err


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
