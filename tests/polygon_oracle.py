"""Pairwise-intersection 2D enumeration: the reference for the facet walk.

This is the code that enumerated the vertices and rays of a 2D system and
drew its moment polygon before one counterclockwise walk over the kept
facets replaced it, kept unchanged as an independent oracle.  It
intersects every pair of kept rows and tests each point against every
row, sorts the vertices around their centroid, takes rays from both
directions of every row, and rebuilds the polygon's edges from the
vertices with a second facet pass and a shoelace orientation test.
``contains`` is the membership test it tests each point with, in Fraction
arithmetic; the polyhedra tests use it too.
"""

from fractions import Fraction
from math import gcd

from lgdual.errors import DimensionMismatchError, ValidationError
from lgdual.polyhedra import HalfspaceSystem, _ccw_key, _rotate_to_lexmin, facets
from lgdual.svg import _truncation_point


def contains(h, point, strict=False):
    """True when point satisfies every row of h, strictly if strict."""
    for row, off in zip(h.c, h.offset):
        val = sum(Fraction(a) * Fraction(x) for a, x in zip(row, point)) + off
        if val < 0 or (strict and val == 0):
            return False
    return True


def vertices_and_rays_2d(h):
    """Vertices (rational pairs) and primitive recession rays of a 2D system.

    Vertices are the feasible pairwise facet intersections, ordered
    counterclockwise starting from the lexicographically smallest; rays
    generate the recession cone, also counterclockwise from the smallest.
    """
    rep = facets(h)
    rows = [h.c[i] for i in rep.irredundant]
    offs = [h.offset[i] for i in rep.irredundant]

    verts = set()
    m = len(rows)
    for i in range(m):
        for j in range(i + 1, m):
            a, b = rows[i]
            c, d = rows[j]
            det = a * d - b * c
            if det == 0:
                continue
            o1, o2 = offs[i], offs[j]
            x = Fraction(-o1 * d + o2 * b, det)
            y = Fraction(-o2 * a + o1 * c, det)
            if contains(h, (x, y)):
                verts.add((x, y))
    verts = list(verts)
    if len(verts) > 2:
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        rel = {(v[0] - cx, v[1] - cy): v for v in verts}
        verts = [rel[p] for p in _ccw_key(list(rel))]
    else:
        verts.sort()
    verts = _rotate_to_lexmin(verts)

    ray_set = set()
    for a, b in rows:
        for d in ((-b, a), (b, -a)):
            if d == (0, 0):
                continue
            if all(ra * d[0] + rb * d[1] >= 0 for ra, rb in rows):
                g = gcd(abs(d[0]), abs(d[1]))
                ray_set.add((d[0] // g, d[1] // g))
    rays = _rotate_to_lexmin(_ccw_key(sorted(ray_set)))
    return verts, rays


def _dot(c, p):
    return sum(Fraction(a) * q for a, q in zip(c, p))


def _shoelace(points):
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        total += x1 * y2 - x2 * y1
    return total


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
    report = facets(HalfspaceSystem(dv, offset))
    kept = report.irredundant
    rows = [dv[i] for i in kept]
    offs = [Fraction(offset[i]) for i in kept]
    verts, rays = vertices_and_rays_2d(HalfspaceSystem(dv.take_rows(kept), offs))
    if not verts:
        raise ValidationError("the polyhedron has no vertices; nothing to draw")

    def tight_row(p, q):
        for j, (c, off) in enumerate(zip(rows, offs)):
            if _dot(c, p) + off == 0 and _dot(c, q) + off == 0:
                return kept[j]
        return None

    if not rays:
        points = list(verts)
        edge_rows = [
            tight_row(points[i], points[(i + 1) % len(points)])
            for i in range(len(points))
        ]
        return points, edge_rows

    # one unbounded edge per facet line that holds exactly one vertex
    open_edges = []
    for j, (c, off) in enumerate(zip(rows, offs)):
        tight = [v for v in verts if _dot(c, v) + off == 0]
        if len(tight) != 1:
            continue
        along = [r for r in rays if _dot(c, r) == 0]
        if not along:
            continue
        open_edges.append((tight[0], along[0]))
    if len(open_edges) != 2:
        raise ValidationError(
            "expected 2 unbounded boundary edges, found %d" % len(open_edges)
        )
    (va, ra), (vb, rb) = open_edges

    def chain_from(start, end):
        i = verts.index(start)
        c = list(verts[i:]) + list(verts[:i])
        if c[-1] != end:
            c = list(reversed(c))
            i = c.index(start)
            c = c[i:] + c[:i]
        assert c[0] == start and c[-1] == end
        return c

    candidate = (
        [_truncation_point(va, ra, truncate)]
        + chain_from(va, vb)
        + [_truncation_point(vb, rb, truncate)]
    )
    if _shoelace(candidate) < 0:
        candidate = (
            [_truncation_point(vb, rb, truncate)]
            + chain_from(vb, va)
            + [_truncation_point(va, ra, truncate)]
        )
    points = candidate
    edge_rows = [
        tight_row(points[i], points[(i + 1) % len(points)])
        for i in range(len(points))
    ]
    return points, edge_rows
