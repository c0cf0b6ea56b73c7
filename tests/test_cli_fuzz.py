"""Model files drawn from a small grammar, run through the CLI in process:
every command ends in a stated exit code (0, 2, 3 or 4), never a traceback.

The grammar draws a [variety] of `dv` rows with entries mostly in [-3, 3]
and now and then +-10^20 or +-10^200, or a `degrees` list that is now and
then -10^20 with no [potential] (the generic-potential bound); offsets with
denominators, sometimes of the wrong length; terms whose coefficients come
from a list of literals, malformed and out-of-range ones among them, over
exponents that are sometimes of the wrong length; and an optional class.
One example in ten is a valid `degrees` model whose class is past the
interpreter's 4,300-digit limit, so `analyze` prints such a class on every
run (25 to 41 times in five counting runs of 500 examples).

Each example runs four commands.  Over 1,500 examples the slowest took
0.14 s and the whole run 5.5 s (CPython 3.11.7, 2 vCPUs), and the slowest
huge-class model takes 0.19 s, so a deadline of 2 s per example leaves a
tenfold margin for a loaded host, while a command that runs unbounded, as
one on a -10^20 degree did, fails it.  500 examples take about 3 s.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lgdual.cli import main

BIG = (10**20, -(10**20), 10**200, -(10**200))
# mostly small: one branch in ten draws a big entry
ENTRIES = st.one_of(*[st.integers(-3, 3)] * 9, st.sampled_from(BIG))
COEFFICIENTS = (
    "1", "-2", "1/3", "2/7+1/3i", "i", "-i", "0.25-1e-2i", "2.5E+1-i",
    # out of range: past the float range, past the interpreter's digit limit
    # when quoted, and an exponent too long to build
    "1e400", "1e-400", "1e5000", "1e-5000", "1e5000+1e-5000i", "1e12345678", "1e1_0000000",
    # malformed
    "0", "1/0", "1+", "2i3", "abc", "1e", "++1", "i i", "",
)
# past the interpreter's 4,300-digit limit: analyze prints the K lift
# exactly, and dualize and polytope quote what they refuse
HUGE_CLASSES = ("1e5000i", "-1e5000i", "1e-5000i", "1e9999+1e-9999i", "-1e9999")
CLASSES = (
    "i", "-i", "2i", "1/2+3i", "1", "0", "200i", "-200i", "1e400i", "1/0", "x", "1e12345678i",
    *HUGE_CLASSES,
)
COMMANDS = (
    ["analyze"],
    ["dualize", "--check-involution"],
    ["selfdual"],
    ["polytope", "--svg"],
)


def _row(values):
    return " ".join(map(str, values))


@st.composite
def model_files(draw):
    lines = ["[variety]"]
    if draw(st.integers(0, 9)) == 0:
        # a valid model with a huge class, so analyze prints its class lines
        degrees = draw(st.lists(st.integers(-3, 2), min_size=1, max_size=3))
        lines += ["degrees = " + _row(degrees), "[kahler]"]
        return "\n".join(lines + ["class = " + draw(st.sampled_from(HUGE_CLASSES))]) + "\n"
    if draw(st.integers(0, 2)) == 0:
        degrees = draw(st.lists(st.integers(-3, 2), min_size=1, max_size=3))
        if draw(st.integers(0, 3)) == 0:
            degrees[0] = -(10**20)
        lines.append("degrees = " + _row(degrees))
        n, rows = len(degrees) + 1, len(degrees) + 2
    else:
        n, rows = draw(st.integers(1, 3)), draw(st.integers(1, 5))
        dv = [[draw(ENTRIES) for _ in range(n)] for _ in range(rows)]
        lines.append("dv = " + "; ".join(map(_row, dv)))
    if draw(st.booleans()):
        size = rows if draw(st.integers(0, 4)) else rows + 1
        offset = ["%d/%d" % (draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in range(size)]
        lines.append("offset = " + _row(offset))
    if draw(st.integers(0, 3)):
        lines.append("[potential]")
        for _ in range(draw(st.integers(0, 4))):
            width = n if draw(st.integers(0, 9)) else n + 1
            exps = [draw(st.integers(-2, 2)) for _ in range(width)]
            lines.append("term = %s : %s" % (draw(st.sampled_from(COEFFICIENTS)), _row(exps)))
    if draw(st.booleans()):
        lines.append("[kahler]")
        lines.append("class = " + draw(st.sampled_from(CLASSES)))
    return "\n".join(lines) + "\n"


@given(text=model_files())
@settings(
    max_examples=500,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_command_ends_in_a_stated_exit_code(tmp_path, text):
    path = tmp_path / "model.lg"
    path.write_text(text, encoding="utf-8")
    for command in COMMANDS:
        argv = command + ([str(tmp_path / "p.svg")] if command[0] == "polytope" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [str(path)])
        assert code in (0, 2, 3, 4), (command, text)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith("error: "), (command, text)
