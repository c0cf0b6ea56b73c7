"""Moment-polytope rendering for rank-2 varieties as standalone SVG 1.1.

The polyhedron {xi : dv.xi + Im K >= 0} of a rank-2 model is drawn as a
polygon: its vertices and edges in the counterclockwise order of the facet
walk in ``polyhedra``, with each unbounded edge cut off at a truncation
height (default 1).  Every facet edge carries one label; the artificial
truncation edge carries none.
"""

from fractions import Fraction

from .errors import DimensionMismatchError, ValidationError
from .polyhedra import HalfspaceSystem, _boundary, _rotate_to_lexmin

__all__ = ["moment_polygon", "render_svg"]


def _truncation_point(v, r, height):
    if r[1] > 0:
        t = (height - v[1]) / Fraction(r[1])
        if t > 0:
            return (v[0] + t * r[0], v[1] + t * r[1])
    # ray never reaches the cut height going up; fall back to a unit step
    return (v[0] + r[0], v[1] + r[1])


def moment_polygon(dv, offset, truncate=Fraction(1)):
    """Exact polygon for the halfspace system (dv, offset) in the plane.

    Returns (points, edge_rows): points are Fraction pairs of the closed
    polygon in positive orientation; edge_rows[i] is the dv row index whose
    facet carries the edge points[i] -> points[i+1], or None for the
    truncation edge.  Raises when the region is empty, lower-dimensional,
    or has no vertices at all.
    """
    if dv.cols != 2:
        raise DimensionMismatchError("expected 2 columns, got %d" % dv.cols)
    truncate = Fraction(truncate)
    edges, corners = _boundary(HalfspaceSystem(dv, offset))
    if not corners:
        raise ValidationError("the polyhedron has no vertices; nothing to draw")
    rows = [i for i, _ in edges]
    if len(corners) == len(edges):
        # the edge from corner k to corner k + 1 lies on rows[k + 1]
        points, edge_rows = zip(*_rotate_to_lexmin(list(zip(corners, rows[1:] + rows[:1]))))
        return list(points), list(edge_rows)
    first, last = edges[0][1], edges[-1][1]
    points = (
        [_truncation_point(corners[0], (-first[0], -first[1]), truncate)]
        + corners
        + [_truncation_point(corners[-1], last, truncate)]
    )
    return points, rows + [None]


def _fmt(x):
    s = "%.4f" % float(x)
    s = s.rstrip("0").rstrip(".")
    return s if s not in ("-0", "") else "0"


def _display_name(labels, name):
    if tuple(labels) == ("f0", "fInf", "X1"):
        return {"f0": "f0", "fInf": "f∞", "X1": "ℓ"}[name]
    return name


def render_svg(model, truncate=Fraction(1)):
    """SVG document for the moment polytope of a rank-2 model."""
    if model.variety.rank != 2:
        raise DimensionMismatchError(
            "polytope rendering needs a rank-2 variety, got rank %d" % model.variety.rank
        )
    dv = model.variety.dv
    offset = model.k_class.im_lift()
    points, edge_rows = moment_polygon(dv, offset, truncate)

    # svg y axis points down; flip once here
    flipped = [(float(x), -float(y)) for x, y in points]
    xs = [p[0] for p in flipped]
    ys = [p[1] for p in flipped]
    margin = 0.8
    minx, maxx = min(xs) - margin, max(xs) + margin
    miny, maxy = min(ys) - margin, max(ys) + margin
    width, height = maxx - minx, maxy - miny

    parts = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="%s %s %s %s" width="%d" height="%d">'
        % (_fmt(minx), _fmt(miny), _fmt(width), _fmt(height), 480, int(480 * height / width))
    )
    point_text = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in flipped)
    parts.append(
        '<polygon points="%s" fill="#eef2ff" stroke="#334" stroke-width="0.05"/>'
        % point_text
    )
    n = len(points)
    for i, row in enumerate(edge_rows):
        if row is None:
            continue
        (x1, y1), (x2, y2) = flipped[i], flipped[(i + 1) % n]
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        c = dv[row]
        norm = (c[0] ** 2 + c[1] ** 2) ** 0.5
        # inward normal, flipped along with the y axis
        mx += 0.35 * c[0] / norm
        my += 0.35 * -c[1] / norm
        name = _display_name(model.variety.divisors, model.variety.divisors[row])
        parts.append(
            '<text x="%s" y="%s" font-size="0.45" text-anchor="middle" '
            'dominant-baseline="middle" fill="#112">%s</text>'
            % (_fmt(mx), _fmt(my), name)
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
