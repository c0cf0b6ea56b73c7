"""CLI behavior: subcommands, exit codes, and output contracts."""

import decimal
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

from lgdual import cli, lgmodel, linalg, polyhedra
from lgdual.cli import SWEEP_HEADER, main
from lgdual.complexq import ComplexQ, format_complex
from lgdual.lgmodel import ChowClass, LGModel, Superpotential, bundle_model, default_k_class
from lgdual.linalg import IntMatrix
from lgdual.modelfile import format_model, load_model, parse_model
from lgdual.selfdual import (
    SelfDualityWitness,
    classify_cy,
    sweep_line_bundles,
    sweep_rank_two,
)
from lgdual.toric import ToricData


@pytest.fixture
def model_file(tmp_path):
    def write(degrees, name="model.lg"):
        p = tmp_path / name
        p.write_text(format_model(bundle_model(degrees)), encoding="utf-8")
        return str(p)

    return write


def write_text(tmp_path, text, name="model.lg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# --- analyze ------------------------------------------------------------------

def test_analyze_report(model_file, capsys):
    assert main(["analyze", model_file([-2])]) == 0
    out = capsys.readouterr().out
    assert "variety: 3 divisors, rank 2" in out
    assert "chow group: Z\n" in out
    assert "free generator 1: (1, 1, -2)" in out
    assert "values: [0+1i]" in out
    assert "lift: [0, 0+1i, 0]" in out
    assert "potential: 3 terms" in out
    assert "  f0    0  1  2" in out            # order matrix rows
    assert "  fInf  2  1  0" in out
    assert "  X1    1  1  1" in out
    assert "reconstruction map: yes (identity)" in out
    assert out.rstrip().endswith("=> PASS")


def test_analyze_reports_interior_failure(tmp_path, capsys):
    path = write_text(
        tmp_path,
        "[variety]\ndv = 1 0; -1 0; 0 1\noffset = 0 -1 0\n"
        "[potential]\n[kahler]\nclass = -i\n",
    )
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "interior nonempty: no" in out
    assert "=> FAIL (interior)" in out


def test_analyze_reports_kept_rows_when_a_facet_is_redundant(tmp_path, capsys):
    path = write_text(
        tmp_path,
        "[variety]\ndv = 1 0; -1 2; 0 1\noffset = 0 -1 0\n"
        "[potential]\n[kahler]\nclass = -i\n",
    )
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "reconstruction map: yes (kept rows: 0, 1)" in out
    assert "=> PASS" in out


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "none.lg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_parse_error_exits_2(tmp_path, capsys):
    path = write_text(tmp_path, "[variety]\ndegrees = x\n")
    assert main(["analyze", path]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("coefficient", ["1/0", "2+3/0i"])
def test_analyze_zero_denominator_exits_2(tmp_path, capsys, coefficient):
    text = "[variety]\ndegrees = -2\n[potential]\nterm = %s : 0 0 1\n" % coefficient
    assert main(["analyze", write_text(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        "error: line 4: zero denominator in complex literal %r\n" % coefficient
    )


def test_analyze_validation_error_exits_3(tmp_path, capsys):
    path = write_text(tmp_path, "[variety]\ndv = 2 0; 0 1\n")
    assert main(["analyze", path]) == 3
    assert "non-primitive" in capsys.readouterr().err


def test_analyze_pole_exits_3(tmp_path, capsys):
    path = write_text(tmp_path, "[variety]\ndv = 1; -1\n[potential]\nterm = 1 : -1\n")
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert "has a pole" in err and "D1" in err


@pytest.mark.parametrize("command", ["analyze", "dualize", "selfdual"])
def test_a_coefficient_too_large_for_a_float_exits_3(tmp_path, capsys, command):
    path = write_text(tmp_path, "[variety]\ndegrees = -2\n[potential]\nterm = 1e400 : 1 1\n")
    assert main([command, path]) == 3
    assert capsys.readouterr() == (
        "", "error: coefficient 1%s is too large for a float\n" % ("0" * 400)
    )


TINY = "1/1%s" % ("0" * 400)
# a nonzero coefficient that rounds to 0.0 is not reported as zero
ZERO_AS_A_FLOAT = {
    "1e-400": "coefficient %s is too small for a float" % TINY,
    "1e-400i": "coefficient 0+%si is too small for a float" % TINY,
    "-1e-400+1e-400i": "coefficient -%s+%si is too small for a float" % (TINY, TINY),
    # one part underflows while the other does not
    "1e-400+1i": "coefficient %s+1i is too small for a float" % TINY,
    "1+1e-400i": "coefficient 1+%si is too small for a float" % TINY,
    "0": "superpotential coefficients must be nonzero",
    "0.0e-400+0i": "superpotential coefficients must be nonzero",
}


@pytest.mark.parametrize("literal", sorted(ZERO_AS_A_FLOAT))
def test_a_coefficient_that_is_zero_as_a_float_exits_3(tmp_path, capsys, literal):
    path = write_text(tmp_path, "[variety]\ndegrees = -2\n[potential]\nterm = %s : 1 1\n" % literal)
    assert main(["analyze", path]) == 3
    assert capsys.readouterr() == ("", "error: %s\n" % ZERO_AS_A_FLOAT[literal])


# a quoted integer past QUOTED_DIGITS digits shows its first 20 and its length
HUGE = "10000000000000000000...(5001 digits)"


@pytest.mark.parametrize(
    "literal, message",
    [
        ("1e5000", "coefficient %s is too large for a float" % HUGE),
        ("1e-5000", "coefficient 1/%s is too small for a float" % HUGE),
    ],
    ids=["1e5000", "1e-5000"],
)
def test_a_coefficient_past_the_digit_limit_exits_3_in_under_a_second(
    tmp_path, capsys, literal, message
):
    # str() of a 5001-digit integer raises, so the message abbreviates it
    path = write_text(tmp_path, "[variety]\ndegrees = -2\n[potential]\nterm = %s : 1 1\n" % literal)
    start = time.perf_counter()
    assert main(["analyze", path]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize(
    "literal, value",
    [
        ("1e5000i", "0+1%si" % ("0" * 5000)),
        ("1e-5000i", "0+1/1%si" % ("0" * 5000)),
        ("-1e9999+2/3i", "-1%s+2/3i" % ("0" * 9999)),
    ],
    ids=["1e5000i", "1e-5000i", "-1e9999+2/3i"],
)
def test_analyze_prints_a_class_past_the_digit_limit_exactly(tmp_path, capsys, literal, value):
    # str() refuses an integer of more than 4,300 digits, which made analyze
    # exit 1 with a traceback; the class is written exactly instead
    path = write_text(tmp_path, "[variety]\ndegrees = -2\n[kahler]\nclass = %s\n" % literal)
    start = time.perf_counter()
    assert main(["analyze", path]) == 0
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert "K class:\n  values: [%s]\n  lift: [0, %s, 0]\n" % (value, value) in out
    assert err == ""


# 4,000 digits parse, but their square is past str()'s limit of 4,300
SEVENS = "7" * 4000
# dv row 2 times the one exponent vector is (+-SEVENS) * SEVENS
SQUARE_ORDER = "[variety]\ndv = 1 0; %s%s 1\n[potential]\nterm = 1 : %s 0\n"


def test_analyze_prints_an_order_past_the_digit_limit_exactly(tmp_path, capsys):
    path = write_text(tmp_path, SQUARE_ORDER % ("", SEVENS, SEVENS))
    assert main(["analyze", path]) == 0
    out, err = capsys.readouterr()
    with decimal.localcontext() as ctx:  # Decimal multiplies digit strings, with no limit
        ctx.prec, ctx.traps[decimal.Inexact] = 8000, True
        square = str(decimal.Decimal(SEVENS) ** 2)
    assert "order matrix (dv . mon^T):\n  D1  %s\n  D2  %s\n" % (SEVENS.rjust(8000), square) in out
    assert err == ""


def test_a_pole_order_past_the_digit_limit_exits_3(tmp_path, capsys):
    path = write_text(tmp_path, SQUARE_ORDER % ("-", SEVENS, SEVENS))
    assert main(["analyze", path]) == 3
    assert capsys.readouterr() == (
        "",
        "error: superpotential term 0 has a pole of order 60493827160493827160...(8000 digits) "
        "along divisor D2\n",
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ("term = 1e12345678 : 1 1", "line 4: exponent over 4 digits in complex literal '1e12345678'"),
        ("term = 1e-1_2345678i : 1 1", "line 4: exponent over 4 digits in complex literal '1e-1_2345678i'"),
        ("offset = 0 1e12345678 0", "line 3: expected rational numbers, got '0 1e12345678 0'"),
    ],
    ids=["term", "underscores", "offset"],
)
def test_an_eight_digit_exponent_exits_2_in_under_a_second(tmp_path, capsys, line, message):
    # Fraction would build 10^12345678 exactly, which takes minutes
    section = "[potential]\n" if line.startswith("term") else ""
    path = write_text(tmp_path, "[variety]\ndegrees = -2\n%s%s\n" % (section, line))
    start = time.perf_counter()
    assert main(["analyze", path]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize("argv", [["analyze"], ["selfdual"], ["selfdual", "--degrees=-100000000000000000000"]])
def test_a_generic_potential_past_the_term_limit_exits_3_in_under_a_second(tmp_path, capsys, argv):
    # the generic potential of O(-10^20) would have 10^20 + 1 terms
    if len(argv) == 1:
        argv = argv + [write_text(tmp_path, "[variety]\ndegrees = -100000000000000000000\n")]
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", "error: generic potential has 100000000000000000001 terms, over the limit of 10000\n"
    )


# --- dualize ------------------------------------------------------------------

def test_dualize_twist_two(model_file, capsys):
    assert main(["dualize", model_file([-2], "om2.lg")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# dual of om2.lg"
    assert "dv = 0 1; 1 1; 2 1" in out
    assert "labels = m1 m2 m3" in out
    assert "offset = 0 0 1" in out
    assert "term = 1.0+0.0i : 1 0  # t1" in out
    assert "term = 0.0018674427317079893+0.0i : -1 2  # t1^-1*t2^2" in out
    assert "class = 0+1i" in out
    assert "# self-dual (matrix level): yes" in out


def test_dualize_next_twist_drops_a_monomial(model_file, capsys):
    assert main(["dualize", model_file([-3])]) == 0
    out = capsys.readouterr().out
    assert "labels = m1 m2 m4" in out
    assert "# self-dual (matrix level): no" in out


def test_dualize_output_reparses_and_reanalyzes(model_file, tmp_path, capsys):
    assert main(["dualize", model_file([-1, -1])]) == 0
    out = capsys.readouterr().out
    dual = parse_model(out)
    assert dual.variety.dv.rows == 4
    dual_path = tmp_path / "dual.lg"
    dual_path.write_text(out.split("# self-dual")[0], encoding="utf-8")
    assert main(["analyze", str(dual_path)]) == 0
    assert "=> PASS" in capsys.readouterr().out


def test_dualize_output_with_no_rays_reparses_and_reanalyzes(tmp_path, capsys):
    # an empty potential dualizes to a variety with no rays: dv and labels are empty
    path = write_text(tmp_path, "[variety]\ndv = 2 1; 1 1; -1 -1; 0 1; 1 0\n")
    assert main(["dualize", path]) == 0
    out = capsys.readouterr().out
    assert "dv = \nlabels = \n" in out
    dual = lgmodel.dualize(lgmodel.linear_data(parse_model(open(path, encoding="utf-8").read())))
    again = parse_model(format_model(dual))
    assert (again.variety.dv.rows, again.variety.dv.cols) == (0, 2)
    assert again.potential.terms == dual.potential.terms
    assert again.k_class.values() == dual.k_class.values()
    dual_path = write_text(tmp_path, out, "dual.lg")
    assert main(["analyze", dual_path]) == 0


def test_dualize_check_involution(model_file, capsys):
    assert main(["dualize", model_file([-2]), "--check-involution"]) == 0
    out = capsys.readouterr().out
    assert "# involution: dv restored: yes" in out
    assert "# involution: mon restored: yes" in out
    assert "# involution: K equivalent: yes" in out

# A dense free-rank-4 model: no generator's projection row has a unit entry
# where the other rows vanish, so its K lift is the rational solve's.
DENSE_MODEL = """\
# seed 11 model 3
[variety]
dv = 1 0 1 -1; 3 -1 -1 0; 2 -1 0 1; 1 0 0 -1; 3 0 1 0; 2 0 1 1; 1 -1 -1 -1; 2 -1 -1 -1
[potential]
term = 4/8-1i : 2 1 1 0
term = 1/6+3i : 1 0 -1 -1
term = 5/7-3i : 1 -1 1 1
term = 2/2-2i : 2 -1 1 1
term = 4/1+1i : 1 0 0 0
term = 6/6+1i : 1 0 0 1
term = 8/3+1i : 1 1 -1 0
"""

DENSE_ANALYZE = """\
variety: 8 divisors, rank 4
dv:
  D1  1   0   1  -1
  D2  3  -1  -1   0
  D3  2  -1   0   1
  D4  1   0   0  -1
  D5  3   0   1   0
  D6  2   0   1   1
  D7  1  -1  -1  -1
  D8  2  -1  -1  -1
chow group: Z^4
  free generator 1: (2, 3, 0, 1, -2, 0, 0, -3)
  free generator 2: (0, 0, 0, 1, -1, 1, 0, 0)
  free generator 3: (1, 2, 0, 1, -1, 0, 1, -3)
  free generator 4: (1, 1, -1, -2, 0, 0, 0, 0)
K class:
  values: [0+1i, 0+1i, 0+1i, 0+1i]
  lift: [0, 0, 0-3i, 0+1i, 0, 0, 0, 0]
potential: 7 terms
mon:
  t1^2*t2*t3        2   1   1   0
  t1*t3^-1*t4^-1    1   0  -1  -1
  t1*t2^-1*t3*t4    1  -1   1   1
  t1^2*t2^-1*t3*t4  2  -1   1   1
  t1                1   0   0   0
  t1*t4             1   0   0   1
  t1*t2*t3^-1       1   1  -1   0
L class:
  values: [0+1i, 0+1i, 0+1i]
  lift: [0, 0, 0+1i, 0, 0, 0+1i, 0+1i]
order matrix (dv . mon^T):
  D1  3  1  1  2  1  0  0
  D2  4  4  3  6  3  3  3
  D3  3  1  4  6  2  3  1
  D4  2  2  0  1  1  0  1
  D5  7  2  4  7  3  3  2
  D6  5  0  4  6  2  3  1
  D7  0  3  0  1  1  0  1
  D8  2  4  1  3  2  1  2
kopaseptic:
  interior nonempty: yes
  reconstruction map: yes (identity)
  order matrix nonnegative: yes
=> PASS
"""

DENSE_DUAL = """\
# dual of m003.lg
[variety]
dv = 2 1 1 0; 1 0 -1 -1; 1 -1 1 1; 2 -1 1 1; 1 0 0 0; 1 0 0 1; 1 1 -1 0
labels = m1 m2 m3 m4 m5 m6 m7
offset = 0 0 1 0 0 1 1
[potential]
term = 1.0+0.0i : 1 0 1 -1  # t1*t3*t4^-1
term = 1.0+0.0i : 3 -1 -1 0  # t1^3*t2^-1*t3^-1
term = 153552935.39544657+0.0i : 2 -1 0 1  # t1^2*t2^-1*t4
term = 0.0018674427317079893+0.0i : 1 0 0 -1  # t1*t4^-1
term = 1.0+0.0i : 3 0 1 0  # t1^3*t3
term = 1.0+0.0i : 2 0 1 1  # t1^2*t3*t4
term = 1.0+0.0i : 1 -1 -1 -1  # t1*t2^-1*t3^-1*t4^-1
term = 1.0+0.0i : 2 -1 -1 -1  # t1^2*t2^-1*t3^-1*t4^-1
[kahler]
class = 0+1i
class = 0+1i
class = 0+1i
# self-dual (matrix level): no
# involution: dv restored: yes
# involution: mon restored: yes
# involution: K equivalent: yes
"""


def test_dense_model_prints_the_solved_k_lift(tmp_path, capsys, monkeypatch):
    solves = []
    original = lgmodel._bareiss_solve

    def counted(a, rhs):
        solves.append(a.rows)
        return original(a, rhs)

    monkeypatch.setattr(lgmodel, "_bareiss_solve", counted)
    path = write_text(tmp_path, DENSE_MODEL, "m003.lg")
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == DENSE_ANALYZE
    assert solves == [4]
    assert main(["dualize", path, "--check-involution"]) == 0
    assert capsys.readouterr().out == DENSE_DUAL


@pytest.fixture
def smith_forms(monkeypatch):
    """The matrices that linalg.snf is called on, in call order."""
    calls = []
    real = linalg.snf
    monkeypatch.setattr(linalg, "snf", lambda a: calls.append(a) or real(a))
    return calls


def test_analyze_and_involution_take_four_smith_forms(tmp_path, smith_forms, capsys):
    # analyze: the groups of K and of L; dualize: those two only.  K's group
    # serves as the class group of the dual's monomials, which are the rows
    # of dv, and as the second dual's, whose rays are dv again; L's group
    # serves as the dual variety's, whose rays are every row of mon.
    path = write_text(tmp_path, DENSE_MODEL, "m003.lg")
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == DENSE_ANALYZE
    assert len(smith_forms) == 2
    assert main(["dualize", path, "--check-involution"]) == 0
    assert capsys.readouterr().out == DENSE_DUAL
    assert len(smith_forms) == 4


# A dense model whose dual drops the first monomial, so the dual variety's
# rays are not mon and its class group is computed afresh; the second dual
# drops two rays of dv and takes a fresh group too.
ROW_DROP_MODEL = """\
# seed 1 model 22
[variety]
dv = 3 1 0 1; 1 0 1 0; 2 1 -1 -1; 3 -1 0 1; 1 1 0 0; 2 1 0 1; 3 -1 1 1; 1 -1 -1 0; 3 0 -1 0
[potential]
term = 5/7+1i : 2 -1 -1 0
term = 3/1+2i : 1 1 0 -1
term = 4/5+3i : 1 0 0 1
term = 2/8+3i : 1 -1 1 -1
term = 7/9-1i : 1 -1 -1 0
"""

ROW_DROP_DUAL = """\
# dual of m022.lg
[variety]
dv = 1 1 0 -1; 1 0 0 1; 1 -1 1 -1; 1 -1 -1 0
labels = m2 m3 m4 m5
offset = 0 0 -1 0
[potential]
term = 1.0+0.0i : 3 1 0 1  # t1^3*t2*t4
term = 1.0+0.0i : 1 0 1 0  # t1*t3
term = 535.4916555247646+0.0i : 2 1 -1 -1  # t1^2*t2*t3^-1*t4^-1
term = 535.4916555247646+0.0i : 3 -1 0 1  # t1^3*t2^-1*t4
term = 1.0+0.0i : 1 1 0 0  # t1*t2
term = 1.0+0.0i : 2 1 0 1  # t1^2*t2*t4
term = 535.4916555247646+0.0i : 3 -1 1 1  # t1^3*t2^-1*t3*t4
term = 535.4916555247646+0.0i : 1 -1 -1 0  # t1*t2^-1*t3^-1
term = 535.4916555247646+0.0i : 3 0 -1 0  # t1^3*t3^-1
# self-dual (matrix level): no
# involution: dv restored: no
# involution: mon restored: no
# involution: K equivalent: no
"""


def test_dualize_takes_a_fresh_group_where_a_row_drops(tmp_path, smith_forms, capsys):
    # K's group is a Smith form; L's is read off mon's charge vector (5 x 4);
    # the dual variety (rows 2..5 of mon) and the second dual (7 rays of dv)
    # each take one
    path = write_text(tmp_path, ROW_DROP_MODEL, "m022.lg")
    assert main(["dualize", path, "--check-involution"]) == 0
    assert capsys.readouterr().out == ROW_DROP_DUAL
    assert [(a.rows, a.cols) for a in smith_forms] == [(9, 4), (4, 4), (7, 4)]


def test_analyze_forms_the_order_matrix_twice(tmp_path, monkeypatch, capsys):
    # once for the model's regularity check, which analyze prints, and once
    # for the kopaseptic order condition of the linear data
    calls = []
    real = lgmodel._orders
    monkeypatch.setattr(lgmodel, "_orders", lambda a, b: calls.append(1) or real(a, b))
    path = write_text(tmp_path, DENSE_MODEL, "m003.lg")
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == DENSE_ANALYZE
    assert len(calls) == 2


@pytest.mark.parametrize(
    "text",
    [
        "[variety]\ndv = 1.5 0; 0 1\n",
        "[variety]\ndv = 3/2 0; 0 1\n",
        "[variety]\ndv = x 0; 0 1\n",
        "[variety]\ndv = 1 0; 0 1\n[potential]\nterm = 1 : 0.5 1\n",
    ],
)
def test_non_integer_matrix_text_exits_2(tmp_path, capsys, text):
    # model-file integers are parsed from text, so a non-integer token is a
    # parse error naming its line; nothing is truncated
    assert main(["analyze", write_text(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "expected integers" in err and "line " in err


# --- trusted matrices ---------------------------------------------------------

DENSE_MODEL_8X6 = """\
# seed 1 model 3
[variety]
dv = 3 -1 1 1; 3 1 0 1; 1 -1 -1 -1; 2 1 0 1; 1 0 -1 1; 3 -1 0 0; 3 -1 0 -1; 1 1 1 1
[potential]
term = 1/8+3i : 1 0 1 0
term = 6/9-2i : 1 -1 -1 1
term = 9/7+0i : 1 1 -1 0
term = 6/7-1i : 1 -1 1 1
term = 1/9+1i : 2 0 0 -1
term = 6/8+1i : 2 0 -1 -1
"""

README_MODEL = """\
[variety]
degrees = -2
labels = f0 fInf X1
offset = 0 1 0
[potential]
term = 1 : 0 1
[kahler]
class = i
"""


@pytest.fixture
def checked_trusted(monkeypatch):
    """IntMatrix._trusted checked against the validating constructor: every
    matrix it makes must equal IntMatrix(rows, cols, entries) on the same
    arguments and hold ints only.  Returns the count of matrices made."""
    real = linalg.IntMatrix._trusted.__func__
    made = [0]

    def checked(cls, rows, cols, entries):
        entries = list(entries)  # a zip or generator is read once
        m = real(cls, rows, cols, entries)
        assert m == linalg.IntMatrix(rows, cols, entries)
        assert all(type(x) is int for row in m.entries for x in row)
        made[0] += 1
        return m

    monkeypatch.setattr(linalg.IntMatrix, "_trusted", classmethod(checked))
    return made


def test_trusted_matrices_match_the_validating_constructor_in_sweeps(checked_trusted):
    cy = classify_cy(4, 4)
    assert {v.degrees for v in cy if v.self_dual and v.strong_cy} == {(-2,), (-1, -1)}
    assert {v.degrees for v in sweep_line_bundles(10) if v.self_dual} == {(-2,)}
    assert {v.degrees for v in sweep_rank_two(4) if v.self_dual} == {(-1, -1), (0, -2)}
    assert checked_trusted[0] > 100


@pytest.mark.parametrize(
    "text", [README_MODEL, DENSE_MODEL, DENSE_MODEL_8X6, ROW_DROP_MODEL],
    ids=["readme", "dense-8x7", "dense-8x6", "dense-9x5"],
)
def test_trusted_matrices_match_the_validating_constructor_in_the_cli(
    tmp_path, checked_trusted, capsys, text
):
    path = write_text(tmp_path, text)
    assert main(["analyze", path]) == 0
    assert main(["dualize", path, "--check-involution"]) == 0
    assert "# involution: K equivalent:" in capsys.readouterr().out
    assert checked_trusted[0] > 0


@pytest.fixture
def facet_pass_calls(monkeypatch):
    """Calls of facets and of the interior LP ``_interior``, counted in every
    lgdual namespace that binds them."""
    counts = {}
    spaces = [m for k, m in sys.modules.items() if k == "lgdual" or k.startswith("lgdual.")]
    for name in ("facets", "_interior"):
        original = getattr(polyhedra, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for space in spaces:
            for attr, val in list(vars(space).items()):
                if val is original:
                    monkeypatch.setattr(space, attr, counted)
    return counts


@pytest.mark.parametrize("degrees", [[-2], [-1, -1]])
def test_analyze_and_involution_run_one_facet_pass_each(
    degrees, model_file, facet_pass_calls, capsys
):
    # analyze, dualize and the second dualize each settle the interior and
    # the facets in one pass, whose one interior LP gives the polar's centre
    path = model_file(degrees)
    assert main(["analyze", path]) == 0
    assert main(["dualize", path, "--check-involution"]) == 0
    assert "# involution: K equivalent: yes" in capsys.readouterr().out
    assert facet_pass_calls == {"facets": 3, "_interior": 3}


def test_dualize_not_kopaseptic_exits_4(tmp_path, capsys):
    path = write_text(
        tmp_path,
        "[variety]\ndv = 1 0; 0 1\n[potential]\nterm = 1 : 2 0\nterm = 1 : 0 1\n",
    )
    assert main(["dualize", path]) == 4
    err = capsys.readouterr().err
    assert "swapped linear data fails the k-map condition" in err


@pytest.mark.parametrize("value, entry", [("-200i", "0-200i"), ("200i", "0+200i")])
def test_dualize_exits_3_where_a_dual_coefficient_leaves_the_float_range(
    tmp_path, capsys, value, entry
):
    # exp(2 pi i k) for k = 200i underflows to 0 and for k = -200i overflows
    path = write_text(tmp_path, "[variety]\ndegrees = -2\n[kahler]\nclass = %s\n" % value)
    assert main(["dualize", path]) == 3
    assert capsys.readouterr() == ("", (
        "error: K lift entry %s gives a dual coefficient exp(2 pi i k) outside the float range\n"
        % entry
    ))


# --- selfdual -----------------------------------------------------------------

def test_selfdual_degrees_yes(capsys):
    assert main(["selfdual", "--degrees=-2"]) == 0
    out = capsys.readouterr().out
    assert "degrees: [-2]   sum: -2" in out
    assert "canonicalTrivial: true   polystable: true   strongCY: true" in out
    assert "self-dual: YES" in out
    assert "monomial subset: [0, 1, 2]" in out
    assert "row permutation: [0, 2, 1]" in out
    assert "-1  1" in out and "1  0" in out
    assert "K values: [0+1i]" in out
    assert "K lift: [0, 0+1i, 0]" in out


def test_selfdual_degrees_rank_two(capsys):
    assert main(["selfdual", "--degrees=-1,-1"]) == 0
    out = capsys.readouterr().out
    assert "row permutation: [0, 3, 1, 2]" in out
    assert "self-dual: YES" in out


def test_selfdual_degrees_no(capsys):
    assert main(["selfdual", "--degrees=-3"]) == 0
    out = capsys.readouterr().out
    assert "strongCY: false" in out
    assert "self-dual: NO (no-matrix-witness)" in out


def test_selfdual_from_file(model_file, capsys):
    assert main(["selfdual", model_file([-2])]) == 0
    assert "self-dual: YES" in capsys.readouterr().out


def test_selfdual_subset_of_higher_rank_mon(tmp_path, capsys):
    # mon has rank 2 and dv rank 1; two of its rows still match dv
    path = write_text(tmp_path, (
        "[variety]\ndv = 1 0 0; -1 0 0\n"
        "[potential]\nterm = 1 : 0 1 0\nterm = 1 : 0 -1 0\nterm = 1 : 0 0 1\n"
    ))
    assert main(["selfdual", path]) == 0
    assert capsys.readouterr().out == (
        "self-dual: YES\n"
        "  monomial subset: [0, 1]\n"
        "  row permutation: [0, 1]\n"
        "  basis change U:\n"
        "    0  1  0\n"
        "    1  0  0\n"
        "    0  0  1\n"
        "  K values: [0+1i]\n"
        "  K lift: [0, 0+1i]\n"
    )


def test_selfdual_file_without_enough_monomials(model_file, capsys):
    assert main(["selfdual", model_file([1])]) == 0
    assert "self-dual: NO (not-enough-monomials)" in capsys.readouterr().out


def test_selfdual_file_without_k_reconstruction(tmp_path, capsys):
    # a matrix witness exists, but the model's default K (i, i) drops a row
    path = write_text(tmp_path, (
        "[variety]\ndv = -2 -1; -2 1; -1 -1; -1 0\n[potential]\n"
        "term = 1 : -2 1\nterm = 1 : -2 -1\nterm = 1 : -1 1\nterm = 1 : -1 0\n"
    ))
    assert main(["selfdual", path]) == 0
    assert capsys.readouterr() == ("self-dual: NO (no-K-reconstruction)\n", "")


@pytest.mark.parametrize("value", ["i", "-i"])
def test_selfdual_checks_the_files_own_k(tmp_path, capsys, value):
    # q = (1, -1, -1): K = i drops row 0 and K = -i keeps every row, so the
    # class the file states decides, not a search over both signs
    path = write_text(tmp_path, (
        "[variety]\ndv = 1 1; 1 0; 0 1\n[potential]\n"
        "term = 1 : 1 1\nterm = 1 : 1 0\nterm = 1 : 0 1\n[kahler]\nclass = %s\n" % value
    ))
    assert main(["selfdual", path]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if value == "i":
        assert out == "self-dual: NO (no-K-reconstruction)\n"
    else:
        assert out.splitlines() == [
            "self-dual: YES",
            "  monomial subset: [0, 1, 2]",
            "  row permutation: [0, 1, 2]",
            "  basis change U:",
            "    1  0",
            "    0  1",
            "  K values: [0-1i]",
            "  K lift: [0-1i, 0, 0]",
        ]


# the b = 6 reflexive triangle conv((-1,-1), (2,-1), (-1,1)): its boundary
# points in cyclic order, and the seven lattice points of its polar
TRIANGLE = [(-1, -1), (0, -1), (1, -1), (2, -1), (-1, 1), (-1, 0)]
TRIANGLE_POLAR = [(0, 1), (1, 0), (0, -1), (-1, -2), (-2, -3), (-1, -1), (0, 0)]


def triangle_model(base, lift, fiber=0):
    """Tot(K_S) over the triangle's surface with rays (v, 1) for the base
    points in the given order and (0, 0, 1) last, terms (m, 1) for m in the
    polar, and K with Im lift[v] on ray (v, 1) and fiber on the last row."""
    x = ToricData(
        3,
        tuple("v%d_%d" % v for v in base) + ("fiber",),
        IntMatrix.from_rows([v + (1,) for v in base] + [(0, 0, 1)]),
    )
    k = ChowClass([ComplexQ(0, lift[v]) for v in base] + [ComplexQ(0, fiber)], x.chow_group())
    return LGModel(x, Superpotential([(1, m + (1,)) for m in TRIANGLE_POLAR]), k)


@pytest.mark.parametrize("lift", ["norm", "default"])
def test_selfdual_triangle_verdict_survives_every_ray_order(tmp_path, capsys, lift):
    # K's lift moves with the rays, so each of the 12 rotations and
    # reflections of the base rays gets the same verdict: YES with
    # b_v = |v|^2, and NO with the default class of the first order carried
    if lift == "norm":
        values, fiber = {v: v[0] ** 2 + v[1] ** 2 for v in TRIANGLE}, 0
    else:
        default = default_k_class(triangle_model(TRIANGLE, dict.fromkeys(TRIANGLE, 0)).variety)
        values, fiber = {v: z.im for v, z in zip(TRIANGLE, default.lift)}, default.lift[-1].im
        assert all(z.re == 0 for z in default.lift)
    orders = [b[k:] + b[:k] for b in (TRIANGLE, TRIANGLE[::-1]) for k in range(6)]
    for j, base in enumerate(orders):
        text = format_model(triangle_model(base, values, fiber))
        assert "\noffset = " in text and "\nclass = " in text
        path = write_text(tmp_path, text, name="triangle%d.lg" % j)
        assert main(["selfdual", path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if lift == "default":
            assert out == "self-dual: NO (no-K-reconstruction)\n"
            continue
        # replay the printed witness with the file's K
        lines = out.splitlines()
        m = load_model(path)
        assert lines[0] == "self-dual: YES"
        subset, perm = (tuple(map(int, line.split("[")[1][:-1].split(", "))) for line in lines[1:3])
        u = IntMatrix.from_rows([tuple(map(int, line.split())) for line in lines[4:7]])
        assert lines[8] == "  K lift: [%s]" % ", ".join(map(format_complex, m.k_class.lift))
        witness = SelfDualityWitness(subset, perm, u, m.k_class)
        assert witness.verify(m.variety.dv, m.mon(), check_k=True)


def test_selfdual_requires_exactly_one_source(model_file, capsys):
    assert main(["selfdual"]) == 2
    assert capsys.readouterr().err == "error: give a model file or --degrees\n"
    assert main(["selfdual", model_file([-2]), "--degrees=-2"]) == 2
    assert capsys.readouterr().err == "error: give a model file or --degrees, not both\n"


def test_selfdual_rejects_bad_degrees(capsys):
    assert main(["selfdual", "--degrees=two"]) == 2
    assert main(["selfdual", "--degrees="]) == 2


# --- sweep --------------------------------------------------------------------

def test_sweep_rank1_table(capsys):
    assert main(["sweep", "--rank1", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[1] == "0\t0\tfalse\ttrue\tfalse\tfalse"
    assert lines[3] == "-2\t-2\ttrue\ttrue\ttrue\ttrue"
    assert lines[4] == "-3\t-3\tfalse\ttrue\tfalse\tfalse"
    assert len(lines) == 6


def test_sweep_rank2_table(capsys):
    assert main(["sweep", "--rank2", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[1] == "-1,-1\t-2\ttrue\ttrue\ttrue\ttrue"
    assert lines[2] == "0,-2\t-2\ttrue\tfalse\tfalse\ttrue"
    assert lines[3] == "1,-3\t-2\ttrue\tfalse\tfalse\tfalse"
    assert lines[4] == "2,-4\t-2\ttrue\tfalse\tfalse\tfalse"


def test_sweep_cy_table(capsys):
    assert main(["sweep", "--cy", "2", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("-2\t-2\ttrue\ttrue\ttrue\ttrue")
    assert lines[2].startswith("-1,-1\t")
    assert lines[3].startswith("0,-2\t")


SWEEP_CY_3_3 = """\
-2\t-2\ttrue\ttrue\ttrue\ttrue
-1,-1\t-2\ttrue\ttrue\ttrue\ttrue
0,-2\t-2\ttrue\tfalse\tfalse\ttrue
1,-3\t-2\ttrue\tfalse\tfalse\tfalse
0,-1,-1\t-2\ttrue\tfalse\tfalse\ttrue
0,0,-2\t-2\ttrue\tfalse\tfalse\ttrue
1,-1,-2\t-2\ttrue\tfalse\tfalse\tfalse
1,0,-3\t-2\ttrue\tfalse\tfalse\tfalse
2,-2,-2\t-2\ttrue\tfalse\tfalse\tfalse
2,-1,-3\t-2\ttrue\tfalse\tfalse\tfalse
3,-2,-3\t-2\ttrue\tfalse\tfalse\tfalse
"""

SWEEP_RANK1_3 = """\
0\t0\tfalse\ttrue\tfalse\tfalse
-1\t-1\tfalse\ttrue\tfalse\tfalse
-2\t-2\ttrue\ttrue\ttrue\ttrue
-3\t-3\tfalse\ttrue\tfalse\tfalse
"""


@pytest.mark.parametrize(
    "argv, rows",
    [(["--cy", "3", "3"], SWEEP_CY_3_3), (["--rank1", "3"], SWEEP_RANK1_3)],
    ids=["cy", "rank1"],
)
def test_sweep_table_bytes(argv, rows, capsys):
    # the flag columns are read off each verdict's degrees; every combination
    # of canonicalTrivial, polystable, strongCY and selfDual that occurs is here
    assert main(["sweep"] + argv) == 0
    assert capsys.readouterr().out == SWEEP_HEADER + "\n" + rows


def test_sweep_small_bound_stays_consistent(capsys):
    # k=2 is outside the window, so no self-dual rows are expected either
    assert main(["sweep", "--rank1", "1"]) == 0


def test_sweep_rejects_nonpositive_bounds(capsys):
    assert main(["sweep", "--rank1", "0"]) == 2
    assert main(["sweep", "--cy", "2", "0"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--rank2", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --rank2 bound must be >= 1\n")


def test_sweep_classification_mismatch_exits_1(monkeypatch, capsys):
    def flipped(max_twist):
        verdicts = sweep_line_bundles(max_twist)
        v = verdicts[0]
        verdicts[0] = type(v)(v.degrees, not v.self_dual)
        return verdicts

    monkeypatch.setattr(cli, "sweep_line_bundles", flipped)
    assert main(["sweep", "--rank1", "3"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "0\t0\tfalse\ttrue\tfalse\ttrue"
    assert err == "classification mismatch: expected [(-2,)], found [(-2,), (0,)]\n"


def test_sweep_requires_exactly_one_family():
    with pytest.raises(SystemExit):
        main(["sweep"])
    with pytest.raises(SystemExit):
        main(["sweep", "--rank1", "2", "--rank2", "2"])


# --- polytope -----------------------------------------------------------------

def test_polytope_writes_svg(model_file, tmp_path, capsys):
    out_path = tmp_path / "p.svg"
    assert main(["polytope", model_file([-2]), "--svg", str(out_path)]) == 0
    assert ("wrote %s" % out_path) in capsys.readouterr().out
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith('<?xml version="1.0"')
    assert '<polygon points="0,-1 0,0 1,0 3,-1"' in text


def test_polytope_truncation_flag(model_file, tmp_path, capsys):
    out_path = tmp_path / "p.svg"
    assert main(
        ["polytope", model_file([-2]), "--svg", str(out_path), "--truncate", "1/2"]
    ) == 0
    assert "0,-0.5" in out_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("height", ["0", "-1"])
def test_polytope_rejects_a_truncation_that_cuts_nothing(model_file, tmp_path, capsys, height):
    # O(-2) has its vertices at height 0, so heights 0 and -1 cut nothing
    out_path = tmp_path / "p.svg"
    argv = ["polytope", model_file([-2]), "--svg", str(out_path), "--truncate=" + height]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: truncation height %s is not above the vertex of a rising unbounded edge\n" % height
    )
    assert not out_path.exists()


@pytest.mark.parametrize("height", ["1/0", "nan", "1e12345678"])
def test_polytope_rejects_a_truncation_that_is_not_rational(model_file, tmp_path, capsys, height):
    # a zero denominator, or an exponent that would take minutes to build, is
    # a usage error like "nan", not a traceback
    out_path = tmp_path / "p.svg"
    with pytest.raises(SystemExit) as exc:
        main(["polytope", model_file([-2]), "--svg", str(out_path), "--truncate=" + height])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lgdual polytope")
    assert err.endswith("error: argument --truncate: invalid Fraction value: %r\n" % height)
    assert not out_path.exists()


def test_polytope_rejects_a_truncation_too_large_to_draw(model_file, tmp_path, capsys):
    # the rising edge of O(-2) climbs from (1, 0) along (2, 1) to x = 2 * 10^400 + 1
    out_path = tmp_path / "p.svg"
    assert main(["polytope", model_file([-2]), "--svg", str(out_path), "--truncate=1e400"]) == 3
    assert capsys.readouterr() == (
        "", "error: polygon coordinate %d is too large to draw\n" % (2 * 10**400 + 1)
    )
    assert not out_path.exists()


def test_polytope_quotes_a_coordinate_past_the_digit_limit(model_file, tmp_path, capsys):
    # x = 2 * 10^5000 + 1, whose str() raises, is quoted by its first digits and length
    out_path = tmp_path / "p.svg"
    assert main(["polytope", model_file([-2]), "--svg", str(out_path), "--truncate=1e5000"]) == 3
    assert capsys.readouterr() == (
        "", "error: polygon coordinate 20000000000000000000...(5001 digits) is too large to draw\n"
    )
    assert not out_path.exists()


def test_polytope_draws_a_huge_primitive_ray(tmp_path, capsys):
    # the ray's squared entries leave the floats; its direction does not
    ray = 10**170 + 1
    path = write_text(tmp_path, "[variety]\ndv = 1 0; 0 1; -1 -%d\n" % ray)
    out_path = tmp_path / "p.svg"
    assert main(["polytope", path, "--svg", str(out_path)]) == 0
    assert capsys.readouterr() == ("wrote %s\n" % out_path, "")
    labels = out_path.read_text(encoding="utf-8").split("<text ")[1:]
    assert len(labels) == 3
    for label in labels:
        x, y = (float(label.split('%s="' % axis)[1].split('"')[0]) for axis in "xy")
        assert math.isfinite(x) and math.isfinite(y)


def test_polytope_needs_rank_two(model_file, tmp_path, capsys):
    assert main(["polytope", model_file([-1, -1]), "--svg", str(tmp_path / "p.svg")]) == 3
    assert "rank-2" in capsys.readouterr().err


def test_polytope_missing_input_exits_2(tmp_path, capsys):
    assert main(["polytope", str(tmp_path / "no.lg"), "--svg", str(tmp_path / "p.svg")]) == 2


# --- parser-level errors ------------------------------------------------------

def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    calls = []
    original = cli.build_parser

    def counted():
        calls.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    runs = []
    for _ in range(2):
        code = main(["sweep", "--rank1", "3"])
        runs.append((code, capsys.readouterr()))
    assert calls == [1]
    assert runs[0] == runs[1] and runs[0][0] == 0
    with pytest.raises(SystemExit):
        main(["sweep"])
    assert main(["selfdual"]) == 2
    assert calls == [1]


def test_python_m_lgdual_matches_main(tmp_path, capsys):
    # a checkout runs the command line as python -m lgdual with src on the path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["sweep", "--rank1", "6"]
    proc = subprocess.run(
        [sys.executable, "-m", "lgdual"] + argv, capture_output=True, env=env, cwd=tmp_path
    )
    code = main(argv)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out.encode())
    assert code == 0 and proc.stdout.startswith(SWEEP_HEADER.encode())


@pytest.mark.skipif(
    shutil.which("lgdual") is None, reason="lgdual console script is not on PATH"
)
def test_console_script_is_installed():
    exe = shutil.which("lgdual")
    assert exe is not None
    proc = subprocess.run(
        [exe, "sweep", "--rank1", "2"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == SWEEP_HEADER
