"""Command-line frontend: analysis reports, duals, self-duality verdicts,
classification sweeps, and SVG moment-polytope rendering.

Exit codes are a stable scripting contract: 0 success, 1 sweep
classification mismatch, 2 parse error, 3 validation error, 4 kopaseptic
failure.
"""

import argparse
import functools
import os
import sys
from fractions import Fraction

from .complexq import _exact, _fraction as _rational, format_complex
from .errors import (
    GroupMismatchError,
    NotKopasepticError,
    ParseError,
    ShapeMismatchError,
    ValidationError,
)
from .lgmodel import dualize, is_kopaseptic, linear_data, monomial_name
from .modelfile import format_model, load_model
from .selfdual import (
    classify_cy,
    matrix_self_dual,
    model_self_dual,
    self_dual_witness,
    sweep_line_bundles,
    sweep_rank_two,
)
from .svg import render_svg

__all__ = ["build_parser", "main"]

SWEEP_HEADER = "degrees\tsumDeg\tcanonicalTrivial\tpolystable\tstrongCY\tselfDual"


def _yn(flag):
    return "yes" if flag else "no"


def _tf(flag):
    return "true" if flag else "false"


def _matrix_lines(mat, labels=None, indent="  "):
    """Row-major display with optional row-header labels, columns aligned."""
    if mat.rows == 0:
        return [indent + "(no rows)"]
    text = [[_exact(x) for x in row] for row in mat]
    widths = [max(map(len, col)) for col in zip(*text)]
    head = max((len(s) for s in labels), default=0) if labels else 0
    lines = []
    for i, row in enumerate(text):
        cells = "  ".join(s.rjust(w) for s, w in zip(row, widths))
        prefix = labels[i].ljust(head) + "  " if labels else ""
        lines.append(indent + prefix + cells)
    return lines


def _fraction(text):
    """A rational option value; a zero denominator or a long exponent is invalid, like "nan"."""
    try:
        return _rational(text, text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid Fraction value: %r" % text) from None


def _group_text(g):
    parts = []
    if g.free_rank:
        parts.append("Z" if g.free_rank == 1 else "Z^%d" % g.free_rank)
    parts.extend("Z/%d" % d for d in g.torsion)
    return " + ".join(parts) if parts else "0"


def _class_lines(name, cls):
    values = ", ".join(format_complex(v) for v in cls.values())
    lift = ", ".join(format_complex(z) for z in cls.lift)
    return [
        "%s class:" % name,
        "  values: [%s]" % values,
        "  lift: [%s]" % lift,
    ]


def cmd_analyze(args):
    m = load_model(args.path)
    dv = m.variety.dv
    mon = m.mon()
    group = m.k_class.group
    out = ["variety: %d divisors, rank %d" % (dv.rows, m.variety.rank)]
    out.append("dv:")
    out += _matrix_lines(dv, m.variety.divisors)
    out.append("chow group: %s" % _group_text(group))
    proj = group.free_projection()
    for i in range(group.free_rank):
        out.append(
            "  free generator %d: (%s)" % (i + 1, ", ".join(map(_exact, proj[i])))
        )
    out += _class_lines("K", m.k_class)
    names = [monomial_name(e) for e in m.potential.exponents()]
    out.append("potential: %d term%s" % (len(names), "" if len(names) == 1 else "s"))
    out.append("mon:")
    out += _matrix_lines(mon, names)
    d = linear_data(m)
    out += _class_lines("L", d.l)
    out.append("order matrix (dv . mon^T):")
    out += _matrix_lines(m.order_matrix(), m.variety.divisors)
    report = is_kopaseptic(d)
    out.append("kopaseptic:")
    out.append("  interior nonempty: %s" % _yn(report.interior_nonempty))
    if not report.kmap_exists:
        kmap = "no"
    elif report.kmap_identity:
        kmap = "yes (identity)"
    else:
        kmap = "yes (kept rows: %s)" % ", ".join(
            str(i) for i in report.facet_report.irredundant
        )
    out.append("  reconstruction map: %s" % kmap)
    # load_model rejects a negative order, so the report lists none
    out.append("  order matrix nonnegative: %s" % _yn(report.order_nonneg))
    out.append("=> %s" % ("PASS" if report.passed else "FAIL (%s)" % report.first_failure()))
    print("\n".join(out))
    return 0


def cmd_dualize(args):
    m = load_model(args.path)
    dual = dualize(linear_data(m))
    sys.stdout.write(format_model(dual, header="dual of %s" % os.path.basename(args.path)))
    try:
        matched = matrix_self_dual(m.variety.dv, dual.variety.dv)
    except ShapeMismatchError:
        matched = None
    print("# self-dual (matrix level): %s" % _yn(matched is not None))
    if args.check_involution:
        # L for the second swap is the original K: the dual's monomials are
        # the rows of dv, so K's group is already the cokernel of dual.mon()
        ddual = dualize(linear_data(dual, l=m.k_class))
        try:
            k_restored = ddual.k_class.equivalent(m.k_class)
        except GroupMismatchError:
            k_restored = False
        print("# involution: dv restored: %s" % _yn(ddual.variety.dv == m.variety.dv))
        print("# involution: mon restored: %s" % _yn(ddual.mon() == m.mon()))
        print("# involution: K equivalent: %s" % _yn(k_restored))
    return 0


def _parse_degrees(text):
    tokens = [t for t in text.replace(",", " ").split() if t]
    if not tokens:
        raise ParseError("empty degree list")
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise ParseError("degrees must be integers, got %r" % text) from None


def _print_witness(w):
    print("self-dual: YES")
    print("  monomial subset: [%s]" % ", ".join(str(i) for i in w.monomial_subset))
    print("  row permutation: [%s]" % ", ".join(str(p) for p in w.row_permutation))
    print("  basis change U:")
    for line in _matrix_lines(w.basis_change, indent="    "):
        print(line)
    print("  K values: [%s]" % ", ".join(format_complex(v) for v in w.k_class.values()))
    print("  K lift: [%s]" % ", ".join(format_complex(z) for z in w.k_class.lift))


def cmd_selfdual(args):
    if args.path is None and args.degrees is None:
        raise ParseError("give a model file or --degrees")
    if args.path is not None and args.degrees is not None:
        raise ParseError("give a model file or --degrees, not both")
    if args.degrees is not None:
        degrees = _parse_degrees(args.degrees)
        verdict = model_self_dual(degrees)
        print(
            "degrees: [%s]   sum: %d"
            % (", ".join(str(a) for a in degrees), verdict.sum_degree)
        )
        print(
            "canonicalTrivial: %s   polystable: %s   strongCY: %s"
            % (_tf(verdict.canonical_trivial), _tf(verdict.polystable), _tf(verdict.strong_cy))
        )
        witness, reason = verdict.witness, verdict.failure
    else:
        witness, reason = self_dual_witness(load_model(args.path))
    if witness is None:
        print("self-dual: NO (%s)" % reason)
    else:
        _print_witness(witness)
    return 0


def cmd_sweep(args):
    if args.rank1 is not None:
        if args.rank1 < 1:
            raise ParseError("--rank1 bound must be >= 1")
        verdicts = sweep_line_bundles(args.rank1)
        expected = {(-2,)}
        actual = {v.degrees for v in verdicts if v.self_dual}
    elif args.rank2 is not None:
        if args.rank2 < 1:
            raise ParseError("--rank2 bound must be >= 1")
        verdicts = sweep_rank_two(args.rank2)
        expected = {(-1, -1), (0, -2)}
        actual = {v.degrees for v in verdicts if v.self_dual}
    else:
        max_rank, bound = args.cy
        if max_rank < 1 or bound < 1:
            raise ParseError("--cy bounds must be >= 1")
        verdicts = classify_cy(max_rank, bound)
        expected = {(-2,), (-1, -1)}
        actual = {v.degrees for v in verdicts if v.strong_cy and v.self_dual}
    expected &= {v.degrees for v in verdicts}
    print(SWEEP_HEADER)
    for v in verdicts:
        print(
            "\t".join(
                (
                    ",".join(str(a) for a in v.degrees),
                    str(v.sum_degree),
                    _tf(v.canonical_trivial),
                    _tf(v.polystable),
                    _tf(v.strong_cy),
                    _tf(v.self_dual),
                )
            )
        )
    if actual != expected:
        print(
            "classification mismatch: expected %s, found %s"
            % (sorted(expected), sorted(actual)),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_polytope(args):
    m = load_model(args.path)
    text = render_svg(m, truncate=args.truncate)
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("wrote %s" % args.svg)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lgdual",
        description="Toric Landau-Ginzburg models: duals, self-duality, "
        "classification sweeps, and moment polytopes over exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", help="print matrices, classes, and the kopaseptic report"
    )
    p.add_argument("path", help="model file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dualize", help="print the dual model in model-file form")
    p.add_argument("path", help="model file")
    p.add_argument(
        "--check-involution",
        action="store_true",
        help="re-dualize and report whether the original model returns",
    )
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser(
        "selfdual", help="decide self-duality of a model file or a split bundle"
    )
    p.add_argument("path", nargs="?", help="model file")
    p.add_argument(
        "--degrees",
        help="bundle degrees instead of a file, e.g. --degrees=-1,-1",
    )
    p.set_defaults(func=cmd_selfdual)

    p = sub.add_parser("sweep", help="classification table for a family of bundles")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument(
        "--rank1", type=int, metavar="KMAX", help="line bundles O(-k), k = 0..KMAX"
    )
    g.add_argument(
        "--rank2",
        type=int,
        metavar="KMAX",
        help="bundles O(k)+O(-k-2), k = -1..KMAX",
    )
    g.add_argument(
        "--cy",
        type=int,
        nargs=2,
        metavar=("MAXRANK", "BOUND"),
        help="degree tuples with sum -2, entries in [-BOUND, BOUND], rank <= MAXRANK",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("polytope", help="render the rank-2 moment polytope as SVG")
    p.add_argument("path", help="model file")
    p.add_argument("--svg", required=True, metavar="OUT", help="output SVG file")
    p.add_argument(
        "--truncate",
        type=_fraction,
        default=Fraction(1),
        metavar="H",
        help="cut height of rising unbounded edges, above their vertices (default 1)",
    )
    p.set_defaults(func=cmd_polytope)
    return parser


@functools.cache
def _parser():
    """The parser, built on first use; argparse parsers can be reused."""
    return build_parser()


# the exit code of each error a command reports; the first type that matches wins
_EXIT_CODES = {ParseError: 2, NotKopasepticError: 4, ValidationError: 3, OSError: 2}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as e:
        print("error: %s" % e, file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
