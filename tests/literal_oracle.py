r"""Complex-literal parsing by hidden exponent signs: the reference for
``lgdual.complexq.parse_complex``.

This is the parser that split a literal into terms by hiding each exponent
sign (a sign right after ``[0-9.][eE]``) as NUL or ``\x01``, splitting at
every sign left, and restoring the hidden ones, before one term pattern
that splits at a sign except right after ``[0-9.][eE]`` replaced it.  It is
kept unchanged as an independent oracle.  The restore also turns a NUL or
``\x01`` of the text itself into a sign, so the tests compare the two only
on texts without either character.
"""

import re
from fractions import Fraction

from lgdual.complexq import ComplexQ

_TERM = re.compile(r"[+-]?[^+-]+")
# exponent signs are hidden from the term splitter as NUL and \x01, and
# restored after it; a text with none of _HIDDEN needs neither step
_EXPONENT_PLUS = re.compile(r"([0-9.][eE])\+")
_EXPONENT_MINUS = re.compile(r"([0-9.][eE])-")
_HIDDEN = frozenset("eE\x00\x01")
_PLAIN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # two int() calls convert it


def _fraction(body, text):
    """Fraction(body); a zero denominator is a bad literal, like any other."""
    plain = _PLAIN.fullmatch(body)
    try:
        if plain is None:
            return Fraction(body)
        num, den = plain.groups()
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError("zero denominator in complex literal %r" % text) from None


def parse_complex(text):
    """Parse ``a+bi`` / ``a`` / ``bi`` / ``i`` into a ComplexQ.

    Both components may be any Fraction-parsable literal, e.g. "1/2-3i",
    "0.25+1e-2i", "-i", "2".
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    # "1e-3" is one term; the restore also turns a NUL of the text into "+"
    hidden = not _HIDDEN.isdisjoint(s)
    protected = _EXPONENT_MINUS.sub("\\1\x01", _EXPONENT_PLUS.sub("\\1\x00", s)) if hidden else s
    terms = _TERM.findall(protected)
    if "".join(terms) != protected:
        raise ValueError("bad complex literal %r" % text)
    if hidden:
        terms = [t.replace("\x00", "+").replace("\x01", "-") for t in terms]
    if not 1 <= len(terms) <= 2:
        raise ValueError("bad complex literal %r" % text)
    re_part = None
    im_part = None
    for t in terms:
        if t[-1] in "iIjJ":
            if im_part is not None:
                raise ValueError("two imaginary components in %r" % text)
            body = t[:-1]
            if body in ("", "+"):
                im_part = Fraction(1)
            elif body == "-":
                im_part = Fraction(-1)
            else:
                im_part = _fraction(body, text)
        else:
            if re_part is not None:
                raise ValueError("two real components in %r" % text)
            re_part = _fraction(t, text)
    return ComplexQ(re_part or 0, im_part or 0)
