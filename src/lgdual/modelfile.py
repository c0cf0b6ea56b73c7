"""Text format for models: sections [variety], [potential], [kahler].

    # comment
    [variety]
    degrees = -2            # split-bundle form, XOR an explicit matrix:
    dv = 1 0; -1 2; 0 1     # rows ';'-separated
    labels = f0 fInf X1     # optional row names
    offset = 0 1 0          # optional rational Im-lift of K (one per divisor)
    [potential]             # optional; default: generic sections (degrees
    term = 1 : 0 1          #   form) or the zero potential (matrix form)
    [kahler]                # optional; one class value per free generator
    class = i               #   (default i each)

Integer and rational lists may also be comma-separated or bracketed.
"""

from .complexq import ComplexQ, _exact, _fraction, _quoted, format_complex, parse_complex
from .errors import ParseError, ValidationError
from .lgmodel import (
    ChowClass,
    LGModel,
    Superpotential,
    _default_class,
    canonical_class,
    generic_sections,
    monomial_name,
)
from .linalg import IntMatrix
from .toric import ToricData, _imprimitive_row, bundle_over_p1

__all__ = ["parse_model", "load_model", "format_model"]

_KEYS = {
    "variety": ("degrees", "dv", "labels", "offset"),
    "potential": ("term",),
    "kahler": ("class",),
}


def _tokens(value):
    return value.replace("[", " ").replace("]", " ").replace(",", " ").split()


def _int_list(value, line):
    try:
        return [int(t) for t in _tokens(value)]
    except ValueError:
        raise ParseError("expected integers, got %r" % value, line) from None


def _fraction_list(value, line):
    try:
        return [_fraction(t, value) for t in _tokens(value)]
    except ValueError:
        raise ParseError("expected rational numbers, got %r" % value, line) from None


def _imaginary_parts(values):
    """repr(tuple(v.im for v in values)), each integer quoted by _quoted."""
    parts = ["Fraction(%s, %s)" % (_quoted(v.im.numerator), _quoted(v.im.denominator)) for v in values]
    return "(%s)" % (parts[0] + "," if len(parts) == 1 else ", ".join(parts))


def _scan(text):
    """-> (list of (line_number, section, key, value), set of section names)."""
    out = []
    seen = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _KEYS:
                raise ParseError("unknown section [%s]" % name, lineno)
            section = name
            seen.add(name)
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        if section is None:
            raise ParseError("content before any [section] header", lineno)
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key not in _KEYS[section]:
            raise ParseError("unknown key %r in [%s]" % (key, section), lineno)
        out.append((lineno, section, key, value.strip()))
    return out, seen


def parse_model(text):
    """Parse ModelFile text into an LGModel.

    Raises ParseError (with line number) for structural problems and
    ValidationError for semantically inconsistent data.
    """
    degrees = dv_rows = labels = offset = None
    terms = []
    classes = []
    entries, sections_seen = _scan(text)
    have_potential_section = "potential" in sections_seen
    once = set()  # keys of [variety] that have appeared
    for lineno, section, key, value in entries:
        if key in once:
            raise ParseError("duplicate %s" % key, lineno)
        if section == "variety":
            once.add(key)
        if key == "degrees":
            degrees = _int_list(value, lineno)
            if not degrees:
                raise ParseError("degrees must be nonempty", lineno)
        elif key == "dv":
            # an empty dv, as in the dual of an empty potential, takes its rank from the terms
            dv_rows = [_int_list(part, lineno) for part in value.split(";")] if value else []
            dv_line = lineno
            widths = {len(r) for r in dv_rows}
            if dv_rows and (len(widths) != 1 or widths == {0}):
                raise ParseError("dv rows must be nonempty and of equal length", lineno)
        elif key == "labels":
            labels = tuple(value.split())
        elif key == "offset":
            offset = _fraction_list(value, lineno)
        elif key == "term":
            if ":" not in value:
                raise ParseError("term needs 'coefficient : exponents'", lineno)
            coeff_text, exps_text = value.split(":", 1)
            try:
                coeff = parse_complex(coeff_text.strip())
            except ValueError as e:
                raise ParseError(str(e), lineno) from None
            terms.append((lineno, coeff, _int_list(exps_text, lineno)))
        elif key == "class":
            try:
                classes.append(parse_complex(value))
            except ValueError as e:
                raise ParseError(str(e), lineno) from None

    if degrees is None and dv_rows is None:
        raise ParseError("[variety] needs 'degrees' or 'dv'", 1)
    if degrees is not None and dv_rows is not None:
        raise ParseError("'degrees' and 'dv' are mutually exclusive", 1)

    # variety
    if degrees is not None:
        variety = bundle_over_p1(degrees)
    else:
        if not dv_rows and not terms:
            raise ParseError("dv rows must be nonempty and of equal length", dv_line)
        dv = IntMatrix(len(dv_rows), len(dv_rows[0]) if dv_rows else len(terms[0][2]), dv_rows)
        bad = _imprimitive_row(dv)
        if bad:
            raise ValidationError(
                "dv row %d is %s; rows must be primitive ray generators" % (bad[0] + 1, bad[1])
            )
        variety = ToricData(dv.cols, tuple("D%d" % (i + 1) for i in range(dv.rows)), dv)
    if labels is not None:
        if len(labels) != variety.dv.rows:
            raise ValidationError("%d labels for %d divisors" % (len(labels), variety.dv.rows))
        variety = ToricData(variety.rank, labels, variety.dv)

    # potential
    if terms:
        rank = variety.rank
        for lineno, _, exps in terms:
            if len(exps) != rank:
                raise ParseError(
                    "exponent vector has length %d, variety rank is %d"
                    % (len(exps), rank),
                    lineno,
                )
        potential = Superpotential([(c, e) for _, c, e in terms])
    elif degrees is not None and not have_potential_section:
        potential = generic_sections(degrees)
    else:
        potential = Superpotential(())

    # K class
    group = variety.chow_group()
    if classes and len(classes) != group.free_rank:
        raise ValidationError(
            "%d kahler classes for free rank %d" % (len(classes), group.free_rank)
        )
    k = canonical_class(group, classes) if classes else _default_class(group)
    if offset is not None:
        if len(offset) != variety.dv.rows:
            raise ValidationError(
                "offset has %d entries for %d divisors" % (len(offset), variety.dv.rows)
            )
        # the offset replaces the imaginary parts of K's lift, which must keep its values
        moved = ChowClass(tuple(ComplexQ(z.re, q) for z, q in zip(k.lift, offset)), group)
        got, want = moved.values(), k.values()
        if got != want:
            raise ValidationError(
                "offset projects to %s but the kahler classes have imaginary parts %s"
                % (_imaginary_parts(got), _imaginary_parts(want))
            )
        k = moved

    return LGModel(variety, potential, k)


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def format_model(m, header=None):
    """Serialize a model in explicit-matrix form (round-trips via parse_model)."""
    lines = []
    if header:
        for h in header.splitlines():
            lines.append("# " + h)
    lines.append("[variety]")
    lines.append("dv = " + "; ".join(" ".join(map(_exact, row)) for row in m.variety.dv))
    lines.append("labels = " + " ".join(m.variety.divisors))
    im = m.k_class.im_lift()
    if any(im):
        lines.append("offset = " + " ".join(map(_exact, im)))
    lines.append("[potential]")
    for coeff, exps in m.potential.terms:
        lines.append(
            "term = %s : %s  # %s"
            % (format_complex(coeff), " ".join(map(_exact, exps)), monomial_name(exps))
        )
    values = m.k_class.values()
    if values:
        lines.append("[kahler]")
        for v in values:
            lines.append("class = " + format_complex(v))
    return "\n".join(lines) + "\n"
