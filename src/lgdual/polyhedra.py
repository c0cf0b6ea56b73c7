"""Exact rational halfspace systems.

A system is a pair (c, offset) describing P = { xi : c @ xi + offset >= 0 }
componentwise.  Feasibility is decided by one exact simplex kernel on
integer tableaux.  Redundancy removal takes one interior point from it and
certifies most kept rows by a functional on P's polar about that point;
every other row takes one LP.  Every answer is replayed against the
original rows before it is returned: interior points, nonnegative
multiplier certificates of emptiness, the multipliers behind each dropped
row, and the polar or Farkas vector behind each kept one.  For display,
one counterclockwise walk over the kept facets of a 2D system, sorted by
the angle of their edge directions, gives its vertices, rays and edges.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatchError, EmptyInteriorError
from .linalg import IntMatrix

__all__ = [
    "HalfspaceSystem",
    "FacetReport",
    "strict_interior_nonempty",
    "strict_interior_point",
    "infeasibility_certificate",
    "facets",
    "vertices_and_rays_2d",
]


@dataclass(frozen=True)
class HalfspaceSystem:
    """Constraint rows c (r x n, integer) and a rational offset r-vector."""

    c: IntMatrix
    offset: tuple

    def __init__(self, c, offset):
        offset = tuple(Fraction(x) for x in offset)
        if len(offset) != c.rows:
            raise DimensionMismatchError(
                "offset length %d does not match %d constraint rows" % (len(offset), c.rows)
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "offset", offset)

    def contains(self, point, strict=False):
        for i in range(self.c.rows):
            val = sum(Fraction(a) * Fraction(x) for a, x in zip(self.c[i], point)) + self.offset[i]
            if val < 0 or (strict and val == 0):
                return False
        return True


@dataclass(frozen=True)
class FacetReport:
    """Redundancy report: which input rows cut actual facets.

    ``irredundant`` lists surviving row indices in input order;
    ``primitive_normals`` holds those rows divided by their positive gcd;
    ``kmap`` assigns each input row its facet position or None if dropped.
    """

    irredundant: tuple
    primitive_normals: IntMatrix
    kmap: tuple

    def is_identity(self):
        return all(k is not None for k in self.kmap)


# ---------------------------------------------------------------------------
# Exact simplex.  The tableau holds D * B^-1 [A | I | b] for the current basis
# B, with D = |det B| and a cost row below, so every entry is an integer and
# every pivot is one exact division (Edmonds 1967).  Bland's rule (Bland
# 1977) picks the entering column and breaks ratio-test ties, so no basis
# repeats.  The I columns belong to the phase-1 artificials: they never
# re-enter, and their cost-row entries give the duals.

def _pivot(t, r, s, d):
    top = t[r]
    p = top[s]
    for i, row in enumerate(t):
        if i != r:
            f = row[s]
            t[i] = [(x * p - f * y) // d for x, y in zip(row, top)]
    if p < 0:  # only when an artificial leaves; keep D positive
        t[:] = [[-x for x in row] for row in t]
    return abs(p)


def _optimise(t, basis, n, d):
    """Pivot until no structural column has a negative reduced cost."""
    m = len(basis)
    while True:
        s = next((j for j in range(n) if t[m][j] < 0), None)
        if s is None:
            return d
        r = None
        for i in range(m):
            a, rhs = t[i][s], t[i][-1]
            if a <= 0:
                if not (a and rhs == 0 and basis[i] >= n):
                    continue
                a = 1  # an artificial at zero leaves at ratio 0, so it never grows
            if r is None or rhs * r_a < r_rhs * a or (rhs * r_a == r_rhs * a and basis[i] < basis[r]):
                r, r_rhs, r_a = i, rhs, a
        assert r is not None, "linear program is unbounded"
        d = _pivot(t, r, s, d)
        basis[r] = s


def _simplex(cols, b, cost):
    """Minimise cost . lam subject to sum_j lam_j cols[j] = b, lam >= 0.

    All data are integers, and so are the results: (lam, y, d) stands for
    the optimum lam / d and duals y / d, with y . cols[j] <= d cost[j] for
    every j and y . b = cost . lam.  (None, y, d) means no lam is feasible,
    y being a Farkas certificate: y . cols[j] <= 0 < y . b.  The program
    must be bounded.
    """
    m, n = len(b), len(cols)
    sign = [1 if v >= 0 else -1 for v in b]
    t = [
        [sign[i] * col[i] for col in cols] + [int(k == i) for k in range(m)] + [sign[i] * b[i]]
        for i in range(m)
    ]
    basis = list(range(n, n + m))
    # phase 1: minimise the sum of the artificials
    t.append([-sum(row[j] for row in t) if j < n or j == n + m else 0 for j in range(n + m + 1)])
    d = _optimise(t, basis, n, 1)
    if t[m][-1] < 0:
        return None, tuple(sign[k] * (d - t[m][n + k]) for k in range(m)), d
    # phase 2 from the feasible basis; basic artificials sit at zero
    full = list(cost) + [0] * (m + 1)
    t[m] = [d * full[j] - sum(full[k] * t[i][j] for i, k in enumerate(basis)) for j in range(n + m + 1)]
    d = _optimise(t, basis, n, d)
    lam = [0] * n
    for i, k in enumerate(basis):
        if k < n:
            lam[k] = t[i][-1]
    return tuple(lam), tuple(-sign[k] * t[m][n + k] for k in range(m)), d


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _interior(h):
    """The largest margin t <= 1 by which a point satisfies every row.

    Solves min L offset . lam + L mu subject to C^T lam = 0,
    1 . lam + mu = 1, lam, mu >= 0, where L clears the offsets'
    denominators.  The program is feasible and bounded, and its duals
    (x, v) have C x + v <= L offset, v <= L and v = L t.  Returns (t, point,
    lam): C point + offset >= t for point = -x / L, and lam >= 0 has
    C^T lam = 0 and offset . lam <= t, so lam certifies emptiness when
    t <= 0.  Both witnesses are replayed here.
    """
    rows, n = h.c.entries, h.c.cols
    scale = lcm(*(o.denominator for o in h.offset))
    offs = [int(o * scale) for o in h.offset]
    lam, y, d = _simplex([row + (1,) for row in rows] + [(0,) * n + (1,)], (0,) * n + (1,), offs + [scale])
    lam, v = lam[:-1], y[n]
    if v > 0:
        assert all(d * o - _dot(row, y) >= v for row, o in zip(rows, offs))
    else:
        assert min(lam) >= 0 and any(lam) and _dot(lam, offs) <= v
        assert all(_dot(lam, col) == 0 for col in zip(*rows))
    return (
        Fraction(v, d * scale),
        tuple(Fraction(-x, d * scale) for x in y[:n]),
        tuple(Fraction(x, d) for x in lam),
    )


def strict_interior_nonempty(h):
    """True iff some rational point satisfies every constraint strictly."""
    return _interior(h)[0] > 0


def strict_interior_point(h):
    """A rational point strictly inside P, or None."""
    t, point, _ = _interior(h)
    return point if t > 0 else None


def infeasibility_certificate(h, strict=True):
    """Nonnegative multipliers witnessing emptiness (of the strict interior
    when ``strict``, of P itself otherwise), or None if feasible.

    The returned tuple lambda satisfies sum(lambda_i * row_i) = 0 and
    sum(lambda_i * offset_i) <= 0, with < 0 forced in the non-strict case.
    """
    t, _, lam = _interior(h)
    return lam if t < 0 or (strict and t == 0) else None


def facets(h):
    """Geometric redundancy removal.

    A row is dropped iff the other rows imply it: some lambda >= 0 over
    them has sum(lambda_i * row_i) = row_j and sum(lambda_i * offset_i) <=
    offset_j.  As P is nonempty, this is the affine Farkas lemma for "no
    point keeps the other rows and violates row j".  Exact duplicate
    halfspaces keep their first occurrence only.  Requires a nonempty
    strict interior.

    A kept row is certified by a point that violates it alone.  Most such
    points come from the polar of P about the interior point x0, whose
    points are A_i = row_i / (slack of row i at x0): row j is a facet when
    w = A_j - centroid has A_j . w > max(0, A_i . w) for every other row i,
    and then the point just past row j on the ray from x0 along -w violates
    row j alone (ray shooting, Clarkson 1994).  Every row this leaves open
    takes one LP, which gives the multipliers of a dropped row or a Farkas
    vector for a kept one.  Both kinds of kept-row certificate go through
    the same Farkas check, and multipliers through theirs, before a verdict
    is taken.
    """
    x0 = strict_interior_point(h)
    if x0 is None:
        raise EmptyInteriorError("halfspace system has no strict interior point")
    r, n = h.c.rows, h.c.cols
    seen = {}
    dup = set()
    for i in range(r):
        g = h.c.row_gcd(i)
        if g == 0:
            continue  # zero rows fall to the implication test
        key = (tuple(x // g for x in h.c[i]), h.offset[i] / g)
        if key in seen:
            dup.add(i)
        else:
            seen[key] = i
    base = [i for i in range(r) if i not in dup]
    rows = [h.c[i] for i in base]
    # row i as the column (c_i, L offset_i); the last entry of a sum may fall short
    scale = lcm(*(h.offset[i].denominator for i in base))
    cols = [row + (int(h.offset[i] * scale),) for i, row in zip(base, rows)]
    slack = (0,) * n + (1,)
    # x0 = u / D, where row i has slack b_i / (L D), b_i > 0; the polar
    # points are A_i = e_i c_i with e_i = K / b_i and K = lcm(b)
    den = lcm(*(x.denominator for x in x0))
    u = [int(x * den) for x in x0]
    b = [scale * _dot(row, u) + den * col[-1] for row, col in zip(rows, cols)]
    k = lcm(*b)
    e = [k // bi for bi in b]
    gram = [[_dot(p, q) for q in rows] for p in rows]
    dots = [_dot(e, g) for g in gram]  # A_i . sum(A) = e_i dots_i
    total = [_dot(e, coord) for coord in zip(*rows)]  # sum(A)
    m = len(base)
    irredundant = []
    for pos, i in enumerate(base):
        others = cols[:pos] + cols[pos + 1:]
        # s_i = A_i . w for w = m A_j - sum(A)
        s = [ei * (m * e[pos] * g[pos] - t) for ei, g, t in zip(e, gram, dots)]
        top = max([0] + s[:pos] + s[pos + 1:])
        if s[pos] > top:
            # x = x0 - 2K w / (L D (s_j + top)) violates row j alone; the
            # Farkas vector is (-L x, -1) cleared of denominators, with
            # y . col_i = b_i (2 s_i - s_j - top)
            lam, cut = None, s[pos] + top
            w = [m * e[pos] * c - t for c, t in zip(rows[pos], total)]
            y = [2 * k * wk - scale * cut * x for wk, x in zip(w, u)] + [-den * cut]
        else:
            lam, y, d = _simplex(others + [slack], cols[pos], [0] * len(cols))
        if lam is None:
            assert all(_dot(y, col) <= 0 for col in others + [slack]) and _dot(y, cols[pos]) > 0
            irredundant.append(i)
        else:
            assert min(lam) >= 0
            assert [_dot(lam, row) for row in zip(*others, slack)] == [d * x for x in cols[pos]]
    kmap = [None] * r
    normals = []
    for facet_idx, i in enumerate(irredundant):
        kmap[i] = facet_idx
        g = h.c.row_gcd(i)
        normals.append(tuple(x // g for x in h.c[i]))
    return FacetReport(
        tuple(irredundant),
        IntMatrix(len(normals), n, normals),
        tuple(kmap),
    )


# ---------------------------------------------------------------------------
# 2D enumeration

def _ccw_key(points):
    """Sort comparator data for exact counterclockwise ordering around origin."""

    def half(p):
        x, y = p
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = p[0] * q[1] - p[1] * q[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(points, key=functools.cmp_to_key(cmp))


def _rotate_to_lexmin(seq):
    if not seq:
        return seq
    k = min(range(len(seq)), key=lambda i: seq[i])
    return seq[k:] + seq[:k]


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _boundary(h):
    """Walk the boundary of a 2D region counterclockwise, with one facet pass.

    Row c keeps P on the left of its edge direction d = (c_1, -c_0), and
    the kept rows have distinct directions, so sorted by the angle of d
    they are P's boundary in order: consecutive rows meet at a corner
    exactly when d turns left between them, and a turn of pi or more is
    the unbounded gap, after which the walk starts.  Returns (edges,
    corners): edges lists (row index, primitive d) in walk order, and
    corners[k] is where edges k and k + 1 (cyclically) meet.  A bounded
    region has as many corners as edges, an unbounded one with vertices
    one fewer, and one with no vertices none.
    """
    rep = facets(h)
    index = {(b, -a): i for i, (a, b) in zip(rep.irredundant, rep.primitive_normals)}
    dirs = _ccw_key(list(index))
    start = next((k for k in range(len(dirs)) if _cross(dirs[k - 1], dirs[k]) <= 0), 0)
    edges = [(index[d], d) for d in dirs[start:] + dirs[:start]]
    corners = []
    for (i, d), (j, e) in zip(edges, edges[1:] + edges[:1]):
        if _cross(d, e) > 0:
            (a, b), (c, f) = h.c[i], h.c[j]
            o1, o2 = h.offset[i], h.offset[j]
            det = a * f - b * c
            corners.append((Fraction(-o1 * f + o2 * b, det), Fraction(-o2 * a + o1 * c, det)))
    return edges, corners


def vertices_and_rays_2d(h):
    """Vertices (rational pairs) and primitive recession rays of a 2D system.

    Vertices are the corners of the boundary walk, ordered counterclockwise
    starting from the lexicographically smallest; rays generate the
    recession cone, also counterclockwise from the smallest: the outward
    directions of the two unbounded edges, both directions of the lines
    of a region bounded by parallel lines, and none for a bounded region
    or the whole plane.  A 1D system is accepted and embedded on the
    first axis.
    """
    n = h.c.cols
    if n not in (1, 2):
        raise DimensionMismatchError("vertex/ray enumeration supports 1 or 2 dims, not %d" % n)
    if n == 1:
        rep = facets(h)
        rows = [h.c[i] for i in rep.irredundant]
        offs = [h.offset[i] for i in rep.irredundant]
        verts = set()
        for (a,), off in zip(rows, offs):
            x = -off / a
            if h.contains((x,)):
                verts.add((x, Fraction(0)))
        rays = set()
        for d in ((1,), (-1,)):
            if all(a * d[0] >= 0 for (a,) in rows):
                rays.add((d[0], 0))
        verts = sorted(verts)
        return verts, sorted(rays)

    edges, corners = _boundary(h)
    verts = _rotate_to_lexmin(corners)
    if len(corners) == len(edges):
        return verts, []
    first, last = edges[0][1], edges[-1][1]
    if not corners:
        last = first  # parallel lines: both directions along them
    return verts, sorted({(-first[0], -first[1]), last})
