"""Exact complex numbers with rational real and imaginary parts.

Kahler-type class decorations live in C/Z tensor a finitely generated
group; deciding class equality needs exact arithmetic, so lifts are kept
as pairs of Fractions rather than floats.  The text form is ``a+bi`` where
both parts accept anything Fraction parses ("2/3", "0.25", "-1e-3") with an
exponent of at most EXPONENT_DIGITS digits.
"""

import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from operator import attrgetter

__all__ = ["ComplexQ", "parse_complex", "format_complex"]


class _Frozen:
    """Base of lgdual's immutable value types, in place of a frozen dataclass,
    whose generated methods cost more than half of an import to build.
    Equality (between instances of one class only), hashing and repr read
    the fields that the class names in ``_fields``; assigning or deleting an
    attribute raises FrozenInstanceError, so each ``__init__`` sets its
    fields with object.__setattr__; pickling and copying carry every
    attribute, including any an unslotted type keeps besides its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(["%s=%r" % (f, getattr(self, f)) for f in self._fields])
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __getstate__(self):
        return getattr(self, "__dict__", None) or {f: getattr(self, f) for f in self._fields}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)


class ComplexQ(_Frozen):
    __slots__ = _fields = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is immutable, so one is kept as it is
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __add__(self, other):
        other = _coerce(other)
        return ComplexQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return ComplexQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return ComplexQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexQ(-self.re, -self.im)

    def is_integer(self):
        return self.im == 0 and self.re.denominator == 1

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        return format_complex(self)


def _coerce(x):
    if isinstance(x, ComplexQ):
        return x
    if isinstance(x, (int, Fraction)):
        return ComplexQ(x, 0)
    raise TypeError("cannot mix ComplexQ with %r" % (x,))


# a sign starts a term, except right after [0-9.][eE]: "1e-3" is one term
_TERM = re.compile(r"[+-]?[^+-]+(?:(?<=[0-9.][eE])[+-][^+-]*)*")
_PLAIN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # two int() calls convert it
EXPONENT_DIGITS = 4  # Fraction builds 10^exponent, so longer exponents are refused
_LONG_EXPONENT = re.compile(r"[eE][+-]?\d(?:_?\d){%d}" % EXPONENT_DIGITS)  # "_" may split digits
QUOTED_DIGITS = 1000  # a message quotes a longer integer by its first 20 digits and its length
_QUOTED = 10**QUOTED_DIGITS


def _fraction(body, text):
    """Fraction(body); a zero denominator or a long exponent is a bad literal."""
    plain = _PLAIN.fullmatch(body)
    try:
        if plain is None:
            if _LONG_EXPONENT.search(body):
                raise ValueError("exponent over %d digits in complex literal %r" % (EXPONENT_DIGITS, text))
            return Fraction(body)
        num, den = plain.groups()
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError("zero denominator in complex literal %r" % text) from None


def parse_complex(text):
    """Parse ``a+bi`` / ``a`` / ``bi`` / ``i`` into a ComplexQ.

    Both components may be any Fraction-parsable literal with an exponent
    of at most EXPONENT_DIGITS digits, e.g. "1/2-3i", "0.25+1e-2i", "-i", "2".
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    terms = _TERM.findall(s)
    if "".join(terms) != s or not 1 <= len(terms) <= 2:
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


def _exact(x):
    """str(x) for an int or Fraction x of any length, in chunks past str()'s limit."""
    try:
        return str(x)
    except ValueError:  # an integer past the interpreter's digit limit
        n, d = x.numerator, x.denominator
    if d != 1:
        return "%s/%s" % (_exact(n), _exact(d))
    high, low = divmod(abs(n), 10**600)  # 600 digits: below every limit str() allows
    return "%s%s%0600d" % ("-" if n < 0 else "", _exact(high), low)


def format_complex(z, part=_exact):
    """Canonical ``a+bi`` text form, each rational part written by part
    (exactly, by default); pure reals drop the imaginary part."""
    if isinstance(z, complex):
        sign = "+" if z.imag >= 0 else "-"
        return "%r%s%ri" % (z.real, sign, abs(z.imag))
    if z.im == 0:
        return part(z.re)
    sign = "+" if z.im >= 0 else "-"
    return "%s%s%si" % (part(z.re), sign, part(abs(z.im)))


def _quoted(x):
    """str(x) for an error message: each integer in an int, Fraction or
    ComplexQ x of more than QUOTED_DIGITS digits is written as its first 20
    digits and its length, as str() refuses integers past a limit."""
    if isinstance(x, ComplexQ):
        return format_complex(x, _quoted)
    if isinstance(x, Fraction) and x.denominator != 1:
        return "%s/%s" % (_quoted(x.numerator), _quoted(x.denominator))
    if not isinstance(x, (int, Fraction)) or -_QUOTED < x < _QUOTED:
        return str(x)
    m = abs(int(x))
    k = (m.bit_length() - 1) * 3010299 // 10**7  # at most log10(m), and close
    while 10 ** (k + 1) <= m:
        k += 1
    return "%s%d...(%d digits)" % ("-" if x < 0 else "", m // 10 ** (k - 19), k + 1)
