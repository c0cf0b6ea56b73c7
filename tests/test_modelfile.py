"""ModelFile text format: complex literals, grammar, round trips."""

import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import literal_oracle

from lgdual.complexq import QUOTED_DIGITS, ComplexQ, _quoted, format_complex, parse_complex
from lgdual.errors import ParseError, ValidationError
from lgdual.lgmodel import bundle_model
from lgdual.modelfile import format_model, load_model, parse_model


# --- complex literals ---------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("i", ComplexQ(0, 1)),
        ("-i", ComplexQ(0, -1)),
        ("+i", ComplexQ(0, 1)),
        ("2", ComplexQ(2)),
        ("-3/4", ComplexQ(Fraction(-3, 4))),
        ("1/2-3i", ComplexQ(Fraction(1, 2), -3)),
        ("0.25+1e-2i", ComplexQ(Fraction(1, 4), Fraction(1, 100))),
        ("2.5e-3-1e+2i", ComplexQ(Fraction(1, 400), -100)),
        ("-1e-3", ComplexQ(Fraction(-1, 1000))),
        ("3i", ComplexQ(0, 3)),
        ("2j", ComplexQ(0, 2)),
        (" 1 + 2 i ", ComplexQ(1, 2)),
    ],
)
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


@pytest.mark.parametrize(
    "text", ["", "1+2", "i+i", "1+2+3i", "abc", "1//2", "1/0", "2+3/0i", "1/0i", "0/0-i"]
)
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


def test_format_complex_canonical_forms():
    assert format_complex(ComplexQ(0, 1)) == "0+1i"
    assert format_complex(ComplexQ(Fraction(3, 2), -1)) == "3/2-1i"
    assert format_complex(ComplexQ(5)) == "5"
    assert format_complex(ComplexQ(0, Fraction(-1, 3))) == "0-1/3i"
    assert format_complex(complex(1.0, -2.0)) == "1.0-2.0i"


@given(st.fractions(), st.fractions())
@settings(max_examples=80, deadline=None)
def test_complex_text_round_trip(re_part, im_part):
    z = ComplexQ(re_part, im_part)
    assert parse_complex(format_complex(z)) == z


def _outcome(parse, text):
    """The value of parse(text), or the type and message of what it raised."""
    try:
        return parse(text)
    except Exception as e:
        return type(e), str(e)


# Fraction("1e9999999") alone takes seconds, so exponents of 5 or more
# digits, also with "_" or " " between them, are left out: parse_complex
# drops the spaces and refuses them (see the next test)
LITERALS = st.text(alphabet="0123456789+-eE./iIjJ_x ", min_size=1, max_size=10).filter(
    lambda text: not re.search(r"[eE][+-]?[0-9](?:_?[0-9]){4}", text.replace(" ", ""))
)


@given(LITERALS)
@example("1e-3+2i")
@example("0.25-1e-2i")
@example("2.5E+1-i")
@example("1e+-2")
@example("e+1")
@example("-i")
@example("1/0")
@settings(max_examples=1000, deadline=None)
def test_term_pattern_matches_the_literal_oracle(text):
    assert _outcome(parse_complex, text) == _outcome(literal_oracle.parse_complex, text)


@pytest.mark.parametrize(
    "text", ["1e12345", "1e-99999999", "2-1E+1_2345i", "1e00001", "1/2+1e1_0_0_0_0i"]
)
def test_a_long_exponent_is_refused_before_fraction_runs(text):
    # Fraction would build 10^exponent exactly: 10^99999999 takes minutes
    start = time.perf_counter()
    with pytest.raises(ValueError) as e:
        parse_complex(text)
    assert time.perf_counter() - start < 1
    assert str(e.value) == "exponent over 4 digits in complex literal %r" % text


def test_a_four_digit_exponent_parses_exactly():
    assert parse_complex("1e9999") == ComplexQ(10**9999)
    assert parse_complex("-1e-9_999i") == ComplexQ(0, Fraction(-1, 10**9999))
    assert parse_complex("1.5e0003+2E-1i") == ComplexQ(1500, Fraction(1, 5))


def test_quoted_abbreviates_only_past_the_digit_limit():
    # up to QUOTED_DIGITS digits a number is quoted as str() writes it
    for x in (0, -7, 10**999, -(10**1000) + 1, Fraction(-3, 10**400), ComplexQ(1, -2)):
        assert _quoted(x) == str(x)
    assert QUOTED_DIGITS == 1000
    big = 12345678901234567890 * 10**1000 + 1
    assert _quoted(big) == "12345678901234567890...(1020 digits)"
    assert _quoted(-(10**1000)) == "-10000000000000000000...(1001 digits)"
    assert _quoted(Fraction(1, 10**5000)) == "1/10000000000000000000...(5001 digits)"
    assert _quoted(ComplexQ(0, -big)) == "0-12345678901234567890...(1020 digits)i"
    assert _quoted(1.5) == "1.5" and _quoted("1e5000") == "1e5000"


def test_format_complex_writes_integers_past_the_digit_limit_exactly():
    # str() refuses an integer past the interpreter's digit limit (4,300 by
    # default, 640 at the lowest); format_complex writes it in chunks of 600
    # digits, zeros inside chunks kept
    n = 10**9999 + 123 * 10**2000 + 7
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [str(n), str(-n), str(Fraction(-3, n))]
        for digits in (4300, 640):
            sys.set_int_max_str_digits(digits)
            assert format_complex(ComplexQ(n)) == expected[0]
            assert format_complex(ComplexQ(1, -n)) == "1%si" % expected[1]
            assert format_complex(ComplexQ(0, Fraction(-3, n))) == "0%si" % expected[2]
            assert format_complex(ComplexQ(0, 10**5000)) == "0+1%si" % ("0" * 5000)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected[0]) == 10_000


@pytest.mark.parametrize(
    "text,message",
    [
        ("2\x003i", "Invalid literal for Fraction: '2\\x003'"),
        ("1e\x01", "Invalid literal for Fraction: '1e\\x01'"),
        ("1\x00-2i", "Invalid literal for Fraction: '1\\x00'"),
        ("\x01", "Invalid literal for Fraction: '\\x01'"),
    ],
)
def test_a_control_character_is_quoted_as_written(text, message):
    # NUL and \x01 are characters like any other, never signs
    with pytest.raises(ValueError) as e:
        parse_complex(text)
    assert str(e.value) == message


# --- grammar ------------------------------------------------------------------

def test_parse_degrees_form_matches_builder():
    m = parse_model("[variety]\ndegrees = -2\n")
    ref = bundle_model([-2])
    assert m.variety.dv == ref.variety.dv
    assert m.variety.divisors == ("f0", "fInf", "X1")
    assert m.potential.terms == ref.potential.terms
    assert m.k_class.lift == ref.k_class.lift


def test_parse_accepts_commas_brackets_and_comments():
    text = """
    # a comment
    [variety]
    degrees = [-1, -1]   # another
    [kahler]
    class = i
    """
    m = parse_model(text)
    assert m.variety.dv.rows == 4


def test_parse_explicit_matrix_form():
    m = parse_model(
        "[variety]\n"
        "dv = 1 0; -1 2; 0 1\n"
        "labels = f0 fInf X1\n"
        "[potential]\n"
        "term = 1 : 0 1\n"
        "term = 2-i : 2 1\n"
    )
    assert m.variety.dv.entries == ((1, 0), (-1, 2), (0, 1))
    assert m.potential.terms[1] == (complex(2, -1), (2, 1))


def test_parse_default_labels_and_zero_potential():
    m = parse_model("[variety]\ndv = 1 0; 0 1\n[potential]\n")
    assert m.variety.divisors == ("D1", "D2")
    assert m.potential.terms == ()


def test_parse_explicit_potential_section_suppresses_generic_sections():
    m = parse_model("[variety]\ndegrees = -2\n[potential]\n")
    assert m.potential.terms == ()


def test_parse_offset_sets_imaginary_lift():
    m = parse_model(
        "[variety]\ndegrees = -2\noffset = 0 1/2 0\n[kahler]\nclass = 1/2i\n"
    )
    assert m.k_class.im_lift() == (0, Fraction(1, 2), 0)
    assert m.k_class.values() == (ComplexQ(0, Fraction(1, 2)),)


def test_parse_offset_solves_the_real_parts_of_the_lift():
    # the free generator (7, -5, 0, -3) has no unit entry, so the real
    # parts of the lift go through the solve
    m = parse_model(
        "[variety]\ndv = -3 -2; -3 -1; -3 1; -2 -3\noffset = -8/11 -9/11 0 0\n"
        "[kahler]\nclass = 1/2+i\nclass = 1/3-i\n"
    )
    assert m.k_class.lift == (
        ComplexQ(Fraction(-3, 22), Fraction(-8, 11)),
        ComplexQ(Fraction(-17, 66), Fraction(-9, 11)),
        ComplexQ(0),
        ComplexQ(0),
    )
    assert m.k_class.values() == (ComplexQ(Fraction(1, 2), 1), ComplexQ(Fraction(1, 3), -1))


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("[foo]\n", "unknown section [foo]", 1),
        ("[variety]\nrows = 1\n", "unknown key 'rows' in [variety]", 2),
        ("degrees = -2\n", "content before any [section] header", 1),
        ("[variety]\ndegrees\n", "expected 'key = value'", 2),
        ("[variety]\ndegrees = a b\n", "expected integers", 2),
        ("[variety]\ndegrees = -2\ndegrees = -3\n", "duplicate degrees", 3),
        ("[variety]\ndv = 1 0; 0 1\ndv = 1 0\n", "duplicate dv", 3),
        ("[variety]\ndegrees = -2\nlabels = a b c\n\nlabels = a b c\n", "duplicate labels", 5),
        ("[variety]\noffset = 0 1 0\ndegrees = -2\noffset = 0\n", "duplicate offset", 4),
        ("[variety]\ndegrees =\n", "degrees must be nonempty", 2),
        ("[variety]\ndv = 1 0; 1\n", "equal length", 2),
        # an empty dv needs terms to fix the rank
        ("[variety]\ndv =\nlabels =\n", "dv rows must be nonempty", 2),
        ("[variety]\ndv =\n[potential]\n", "dv rows must be nonempty", 2),
        ("[variety]\ndv =\n[potential]\nterm = 1 : 1 0\nterm = 1 : 1\n", "length 1", 5),
        ("[variety]\ndegrees = -2\ndv = 1 0\n", "mutually exclusive", None),
        ("[variety]\nlabels = a\n", "needs 'degrees' or 'dv'", None),
        ("[variety]\ndegrees = -2\n[potential]\nterm = 1 0 1\n", "coefficient", 4),
        ("[variety]\ndegrees = -2\n[potential]\nterm = 1 : 0 1 2\n", "length 3", 4),
        ("[variety]\noffset = 1/0\ndegrees = -2\n", "rational", 2),
        ("[variety]\ndegrees = -2\n[kahler]\nclass = 1+2\n", "two real components", 4),
        ("[variety]\ndegrees = -2\n[potential]\nterm = 1/0 : 0 0 1\n", "zero denominator", 4),
        ("[variety]\ndegrees = -2\n[potential]\nterm = 2+3/0i : 0 0 1\n", "zero denominator", 4),
        ("[variety]\ndegrees = -2\n[kahler]\nclass = 1/0i\n", "zero denominator", 4),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert fragment in str(err.value)
    if line is not None:
        assert "line %d:" % line in str(err.value)


def test_parse_empty_dv_takes_the_rank_of_its_terms():
    m = parse_model("[variety]\ndv =\nlabels =\n[potential]\nterm = 1 : 1 0\nterm = i : 2 1\n")
    assert (m.variety.dv.rows, m.variety.dv.cols) == (0, 2)
    assert m.variety.divisors == ()
    assert m.potential.exponents() == ((1, 0), (2, 1))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[variety]\ndegrees = -2\nlabels = a b\n", "2 labels for 3 divisors"),
        ("[variety]\ndv = 2 0; 0 1\n", "non-primitive (gcd 2)"),
        ("[variety]\ndv = 0 0; 0 1\n", "zero"),
        ("[variety]\ndegrees = -2\n[kahler]\nclass = i\nclass = i\n", "free rank 1"),
        ("[variety]\ndegrees = -2\noffset = 1\n", "1 entries for 3 divisors"),
        (
            "[variety]\ndegrees = -2\noffset = 0 0 2\n[kahler]\nclass = i\n",
            "offset projects to",
        ),
        # 10^5000 is quoted by its first digits and length, as str() would raise
        (
            "[variety]\ndegrees = -2\noffset = 1e5000 0 0\n",
            "offset projects to (Fraction(10000000000000000000...(5001 digits), 1),) but the"
            " kahler classes have imaginary parts (Fraction(1, 1),)",
        ),
        (
            "[variety]\ndv = 1 0; 0 1; -1 0; 0 -1\noffset = 0 0 2 1\n",
            "offset projects to (Fraction(2, 1), Fraction(1, 1)) but the kahler classes have"
            " imaginary parts (Fraction(1, 1), Fraction(1, 1))",
        ),
    ],
)
def test_semantic_validation(text, fragment):
    with pytest.raises(ValidationError) as err:
        parse_model(text)
    assert fragment in str(err.value)


# --- serialization ------------------------------------------------------------

def test_format_model_known_output():
    text = format_model(bundle_model([-2]))
    assert text == (
        "[variety]\n"
        "dv = 1 0; -1 2; 0 1\n"
        "labels = f0 fInf X1\n"
        "offset = 0 1 0\n"
        "[potential]\n"
        "term = 1.0+0.0i : 0 1  # t2\n"
        "term = 1.0+0.0i : 1 1  # t1*t2\n"
        "term = 1.0+0.0i : 2 1  # t1^2*t2\n"
        "[kahler]\n"
        "class = 0+1i\n"
    )


def test_format_model_header_lines_are_comments():
    text = format_model(bundle_model([-2]), header="one\ntwo")
    assert text.startswith("# one\n# two\n[variety]\n")


def test_format_model_omits_offset_when_real():
    from lgdual.lgmodel import ChowClass, linear_data

    m = bundle_model([-2])
    real_k = ChowClass((0, 0, 0), m.k_class.group)
    flat = type(m)(m.variety, m.potential, real_k)
    assert "offset" not in format_model(flat)


@pytest.mark.parametrize("degrees", [[-2], [-1, -1], [-3], [0], [1], [-2, 0, 1]])
def test_round_trip_is_stable(degrees):
    text = format_model(bundle_model(degrees))
    again = format_model(parse_model(text))
    assert again == text


def test_round_trip_preserves_model_data():
    m = bundle_model([-1, -1])
    m2 = parse_model(format_model(m))
    assert m2.variety.dv == m.variety.dv
    assert m2.variety.divisors == m.variety.divisors
    assert m2.potential.terms == m.potential.terms
    assert m2.k_class.lift == m.k_class.lift


def test_load_model_reads_files(tmp_path):
    p = tmp_path / "model.lg"
    p.write_text(format_model(bundle_model([-2])), encoding="utf-8")
    m = load_model(p)
    assert m.variety.dv.entries == ((1, 0), (-1, 2), (0, 1))


def test_load_model_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "absent.lg")
