"""Exact rational halfspace systems.

A system is a pair (c, offset) describing P = { xi : c @ xi + offset >= 0 }
componentwise.  Feasibility is decided by one exact simplex kernel on
integer tableaux.  Redundancy removal takes one interior point from it and
certifies most kept rows by a functional on P's polar about that point;
every other row takes one LP.  Both run on integers throughout; only the
public interior points and certificates are made Fractions.  Every answer
is replayed against the original rows before it is returned: interior
points, nonnegative multiplier certificates of emptiness, the multipliers
behind each dropped row, and the polar or Farkas vector behind each kept
one.  For display, one counterclockwise walk over the kept facets of a 2D
system, sorted by the angle of their edge directions, gives its corners
and edges, from which ``svg`` draws the polygon.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .complexq import _Frozen
from .errors import DimensionMismatchError, EmptyInteriorError
from .linalg import IntMatrix, _scaled

__all__ = [
    "HalfspaceSystem",
    "FacetReport",
    "strict_interior_nonempty",
    "strict_interior_point",
    "infeasibility_certificate",
    "facets",
]


class HalfspaceSystem(_Frozen):
    """Constraint rows c (r x n, integer) and a rational offset r-vector."""

    _fields = ("c", "offset")

    def __init__(self, c, offset):
        # a Fraction is immutable, so one is kept as it is
        offset = tuple(x if type(x) is Fraction else Fraction(x) for x in offset)
        if len(offset) != c.rows:
            raise DimensionMismatchError(
                "offset length %d does not match %d constraint rows" % (len(offset), c.rows)
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "offset", offset)


class FacetReport(_Frozen):
    """Redundancy report: which input rows cut actual facets.

    ``irredundant`` lists surviving row indices in input order;
    ``primitive_normals`` holds those rows divided by their positive gcd;
    ``kmap`` assigns each input row its facet position or None if dropped.
    """

    _fields = ("irredundant", "primitive_normals", "kmap")

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
    if p < 0:  # only when an artificial leaves; keep D positive
        top = t[r] = [-x for x in top]
        p = -p
    for i, row in enumerate(t):
        if i != r:
            f = row[s]
            if f:
                t[i] = [(x * p - f * y) // d for x, y in zip(row, top)]
            elif p != d:  # a row with no entry in column s is only rescaled
                t[i] = [x * p // d for x in row]
    return p


def _optimise(t, basis, n, d):
    """Pivot until no structural column has a negative reduced cost."""
    m = len(basis)
    while True:
        cost = t[m]
        for s in range(n):
            if cost[s] < 0:
                break
        else:
            return d
        r = None
        for i in range(m):
            row = t[i]
            a, rhs = row[s], row[-1]
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
    must be bounded.  A zero cost makes every feasible basis optimal with
    zero duals, so phase 2 is skipped.
    """
    m, n = len(b), len(cols)
    sign = [1 if v >= 0 else -1 for v in b]
    t = []
    for i, row in enumerate(zip(*cols) if n else [()] * m):  # zip(*[]) has no rows
        unit = [0] * m
        unit[i] = 1
        t.append([*row, *unit, b[i]] if b[i] >= 0 else [-x for x in row] + unit + [-b[i]])
    basis = list(range(n, n + m))
    # phase 1: minimise the sum of the artificials
    sums = [-sum(c) for c in zip(*t)] if m else [0] * (n + 1)
    t.append(sums[:n] + [0] * m + sums[-1:])
    d = _optimise(t, basis, n, 1)
    if t[m][-1] < 0:
        return None, tuple(sign[k] * (d - t[m][n + k]) for k in range(m)), d
    if any(cost):
        # phase 2 from the feasible basis; basic artificials sit at zero
        full = list(cost) + [0] * (m + 1)
        priced = [(full[k], t[i]) for i, k in enumerate(basis) if full[k]]
        t[m] = [d * c - sum(f * row[j] for f, row in priced) for j, c in enumerate(full)]
        d = _optimise(t, basis, n, d)
        y = tuple(-sign[k] * t[m][n + k] for k in range(m))
    else:
        y = (0,) * m
    lam = [0] * n
    for i, k in enumerate(basis):
        if k < n:
            lam[k] = t[i][-1]
    return tuple(lam), y, d


def _dot(u, v):
    return sum(map(mul, u, v))


def _interior(h):
    """The largest margin t <= 1 by which a point satisfies every row.

    Solves min L offset . lam + L mu subject to C^T lam = 0,
    1 . lam + mu = 1, lam, mu >= 0, where L clears the offsets'
    denominators.  The program is feasible and bounded, and its duals
    (x, v) have C x + v <= L offset, v <= L and v = L t.  Returns the
    integers (v, x, D, lam, d) with D = d L: t = v / D, C point + offset
    >= t for point = -x / D, and lam / d >= 0 has C^T lam = 0 and
    offset . lam / d <= t, so it certifies emptiness when v <= 0.  Both
    witnesses are replayed here.
    """
    rows, n = h.c.entries, h.c.cols
    scale, offs = _scaled(h.offset)
    lam, y, d = _simplex([row + (1,) for row in rows] + [(0,) * n + (1,)], (0,) * n + (1,), offs + [scale])
    lam, v = lam[:-1], y[n]
    if v > 0:
        assert all(d * o - _dot(row, y) >= v for row, o in zip(rows, offs))
    else:
        assert min(lam) >= 0 and any(lam) and _dot(lam, offs) <= v
        assert all(_dot(lam, col) == 0 for col in zip(*rows))
    return v, y[:n], d * scale, lam, d


def strict_interior_nonempty(h):
    """True iff some rational point satisfies every constraint strictly."""
    return _interior(h)[0] > 0


def strict_interior_point(h):
    """A rational point strictly inside P, or None."""
    v, x, den, _, _ = _interior(h)
    return tuple(Fraction(-xk, den) for xk in x) if v > 0 else None


def infeasibility_certificate(h, strict=True):
    """Nonnegative multipliers witnessing emptiness (of the strict interior
    when ``strict``, of P itself otherwise), or None if feasible.

    The returned tuple lambda satisfies sum(lambda_i * row_i) = 0 and
    sum(lambda_i * offset_i) <= 0, with < 0 forced in the non-strict case.
    """
    v, _, _, lam, d = _interior(h)
    return tuple(Fraction(x, d) for x in lam) if v < 0 or (strict and v == 0) else None


def facets(h):
    """Geometric redundancy removal.

    A row is dropped iff the other rows imply it: some lambda >= 0 over
    them has sum(lambda_i * row_i) = row_j and sum(lambda_i * offset_i) <=
    offset_j.  As P is nonempty, this is the affine Farkas lemma for "no
    point keeps the other rows and violates row j".  Equal halfspaces keep
    one row, the first of least gcd, so a primitive one wherever there is
    one.  Requires a nonempty strict interior.

    A kept row is certified by a point that violates it alone.  Most such
    points come from the polar of P about the interior point x0, whose
    points are A_i = row_i / (slack of row i at x0): row j is a facet when
    w = A_j - centroid has A_j . w > max(0, A_i . w) for every other row i,
    and then the point just past row j on the ray from x0 along -w violates
    row j alone (ray shooting, Clarkson 1994).  Every row this leaves open
    takes one LP, which gives the multipliers of a dropped row or a Farkas
    vector for a kept one.  Both kinds of kept-row certificate go through
    the same Farkas check, and multipliers through theirs, before a verdict
    is taken.  The whole pass runs on integers.
    """
    v, x, den, _, _ = _interior(h)
    if v <= 0:
        raise EmptyInteriorError("halfspace system has no strict interior point")
    # x0 = -x / D; dividing out gcd(D, x) gives x0 = u / D in lowest terms
    g = gcd(den, *x)
    den //= g
    u = [-xk // g for xk in x]
    r, n = h.c.rows, h.c.cols
    seen = {}
    dup = set()
    primitive = {}
    for i in sorted(range(r), key=h.c.row_gcd):
        g = h.c.row_gcd(i)
        if g == 0:
            continue  # zero rows fall to the implication test, which drops them
        primitive[i] = p = tuple(x // g for x in h.c[i])
        # the key holds offset / g in lowest terms
        num = h.offset[i].numerator
        q = gcd(num, g)
        if seen.setdefault((p, num // q, h.offset[i].denominator * (g // q)), i) != i:
            dup.add(i)
    base = [i for i in range(r) if i not in dup]
    rows = [h.c[i] for i in base]
    # row i as the column (c_i, L offset_i); the last entry of a sum may fall short
    scale, offs = _scaled([h.offset[i] for i in base])
    cols = [row + (o,) for row, o in zip(rows, offs)]
    slack = (0,) * n + (1,)
    # row i has slack b_i / (L D) at x0, b_i > 0; the polar points are
    # A_i = e_i c_i with e_i = K / b_i and K = lcm(b)
    b = [scale * _dot(row, u) + den * o for row, o in zip(rows, offs)]
    k = lcm(*b)
    e = [k // bi for bi in b]
    m = len(base)
    # the Gram matrix: its lower triangle, then each row completed by symmetry
    gram = [[_dot(p, q) for q in rows[:a + 1]] for a, p in enumerate(rows)]
    for a, row in enumerate(gram):
        row += [gram[c][a] for c in range(a + 1, m)]
    dots = [_dot(e, g) for g in gram]  # A_i . sum(A) = e_i dots_i
    total = [_dot(e, coord) for coord in zip(*rows)]  # sum(A)
    irredundant = []
    for pos, i in enumerate(base):
        others = cols[:pos] + cols[pos + 1:]
        others.append(slack)
        # s_i = A_i . w for w = m A_j - sum(A)
        me = m * e[pos]
        s = [ei * (me * g - t) for ei, g, t in zip(e, gram[pos], dots)]
        top = max([0] + s[:pos] + s[pos + 1:])
        if s[pos] > top:
            # x = x0 - 2K w / (L D (s_j + top)) violates row j alone; the
            # Farkas vector is (-L x, -1) cleared of denominators, with
            # y . col_i = b_i (2 s_i - s_j - top)
            lam, cut = None, s[pos] + top
            w = [me * c - t for c, t in zip(rows[pos], total)]
            y = [2 * k * wk - scale * cut * uk for wk, uk in zip(w, u)] + [-den * cut]
        else:
            lam, y, d = _simplex(others, cols[pos], [0] * len(others))
        if lam is None:
            assert all(_dot(y, col) <= 0 for col in others) and _dot(y, cols[pos]) > 0
            irredundant.append(i)
        else:
            assert min(lam) >= 0
            assert [_dot(lam, row) for row in zip(*others)] == [d * c for c in cols[pos]]
    kmap = [None] * r
    for facet_idx, i in enumerate(irredundant):
        kmap[i] = facet_idx
    normals = [primitive[i] for i in irredundant]
    return FacetReport(
        tuple(irredundant),
        IntMatrix._trusted(len(normals), n, normals),
        tuple(kmap),
    )


# ---------------------------------------------------------------------------
# 2D boundary walk

def _ccw_key(points):
    """Nonzero points sorted exactly counterclockwise around the origin,
    starting at the positive x-axis.  A point's half-plane h is 0 for an
    angle in [0, pi) and 1 for [pi, 2 pi); within one, the angle falls as
    t = x / (|x| + |y|) rises for h = 0 and rises with it for h = 1."""

    def key(p):
        x, y = p
        t = Fraction(x, abs(x) + abs(y))
        h = 0 if (y > 0 or (y == 0 and x > 0)) else 1
        return (h, -t if h == 0 else t)

    return sorted(points, key=key)


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
