"""The exact simplex kernel and polar facet pass with Fractions between
steps: the reference for the all-integer ``lgdual.polyhedra``.

These are the routines that ``facets`` and the interior LP ran before both
kept to plain integers end to end, kept unchanged as an oracle: the same
Edmonds tableau under Bland's rule, but every row updated at every pivot,
phase 2 run on a zero cost row, the interior point made Fractions and then
cleared back to integers, and the Gram matrix filled entry by entry.  The
integer kernel must give the same (lam, y, d) triples, the same facet
reports and the same public interior points and certificates.  The
duplicate rule follows ``facets``: equal halfspaces keep the first row
of least gcd.
"""

from fractions import Fraction
from math import lcm

from lgdual.errors import EmptyInteriorError
from lgdual.linalg import IntMatrix
from lgdual.polyhedra import FacetReport


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

    Returns (lam, y, d) as ``lgdual.polyhedra._simplex`` documents it.
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
    """(t, point, lam) of the largest-margin LP, as Fractions."""
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
    return _interior(h)[0] > 0


def strict_interior_point(h):
    t, point, _ = _interior(h)
    return point if t > 0 else None


def infeasibility_certificate(h, strict=True):
    t, _, lam = _interior(h)
    return lam if t < 0 or (strict and t == 0) else None


def facets(h):
    """Redundancy removal as ``lgdual.polyhedra.facets`` documents it."""
    x0 = strict_interior_point(h)
    if x0 is None:
        raise EmptyInteriorError("halfspace system has no strict interior point")
    r, n = h.c.rows, h.c.cols
    seen = {}
    dup = set()
    primitive = {}
    for i in sorted(range(r), key=h.c.row_gcd):
        g = h.c.row_gcd(i)
        if g == 0:
            continue  # zero rows fall to the implication test, which drops them
        primitive[i] = tuple(x // g for x in h.c[i])
        key = (primitive[i], h.offset[i] / g)
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
    for facet_idx, i in enumerate(irredundant):
        kmap[i] = facet_idx
    normals = [primitive[i] for i in irredundant]
    return FacetReport(
        tuple(irredundant),
        IntMatrix._trusted(len(normals), n, normals),
        tuple(kmap),
    )
