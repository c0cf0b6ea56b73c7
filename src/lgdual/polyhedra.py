"""Exact rational halfspace systems.

A system is a pair (c, offset) describing P = { xi : c @ xi + offset >= 0 }
componentwise.  Feasibility (with per-row strictness) is decided by
Fourier-Motzkin elimination over Fractions, carrying nonnegative multiplier
certificates so that every infeasibility verdict can be replayed against
the original rows.  On top of that sit facet/redundancy extraction and 2D
vertex/ray enumeration for display.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
# Fourier-Motzkin core.  Rows are (coef tuple, off, strict, cert) where cert
# holds rational multipliers over the original input rows.

def _seed_rows(coefs, offs, stricts):
    rows = []
    m = len(coefs)
    for i in range(m):
        cert = tuple(Fraction(1) if j == i else Fraction(0) for j in range(m))
        rows.append((tuple(Fraction(x) for x in coefs[i]), Fraction(offs[i]), stricts[i], cert))
    return rows


def _scale_row(row, s):
    coef, off, strict, cert = row
    return (
        tuple(x * s for x in coef),
        off * s,
        strict,
        tuple(x * s for x in cert),
    )


def _sift(rows):
    """Drop duplicate directions (keep the tightest) and trivial constants.

    Returns (kept rows, violated constant row or None).
    """
    by_dir = {}
    order = []
    for row in rows:
        coef, off, strict, _ = row
        lead = next((x for x in coef if x != 0), None)
        if lead is None:
            if off < 0 or (off == 0 and strict):
                return [], row
            continue  # trivially satisfied constant
        norm = _scale_row(row, 1 / abs(lead))
        key = norm[0]
        cur = by_dir.get(key)
        if cur is None:
            by_dir[key] = norm
            order.append(key)
        else:
            # same open/closed halfspace family: smaller offset is tighter
            if norm[1] < cur[1] or (norm[1] == cur[1] and norm[2] and not cur[2]):
                by_dir[key] = norm
    return [by_dir[k] for k in order], None


def _combine(p, q, var):
    lp = -q[0][var]
    lq = p[0][var]
    coef = tuple(lp * a + lq * b for a, b in zip(p[0], q[0]))
    off = lp * p[1] + lq * q[1]
    cert = tuple(lp * a + lq * b for a, b in zip(p[3], q[3]))
    return (coef, off, p[2] or q[2], cert)


def _feasible(coefs, offs, stricts, n):
    """Decide the mixed-strict system; return (True, point) or (False, cert)."""
    cur = _seed_rows(coefs, offs, stricts)
    stages = []
    for var in reversed(range(n)):
        cur, bad = _sift(cur)
        if bad is not None:
            return False, bad[3]
        stages.append(cur)
        pos = [r for r in cur if r[0][var] > 0]
        neg = [r for r in cur if r[0][var] < 0]
        passthrough = [r for r in cur if r[0][var] == 0]
        cur = passthrough + [_combine(p, q, var) for p in pos for q in neg]
    cur, bad = _sift(cur)
    if bad is not None:
        return False, bad[3]

    point = []
    for var in range(n):
        system = stages[n - 1 - var]
        lo = hi = None
        lo_strict = hi_strict = False
        for coef, off, strict, _ in system:
            c = coef[var]
            if c == 0:
                continue
            rest = off + sum(coef[j] * point[j] for j in range(var))
            bound = -rest / c
            if c > 0:
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict
            else:
                if hi is None or bound < hi or (bound == hi and strict):
                    hi, hi_strict = bound, strict
        if lo is None and hi is None:
            point.append(Fraction(0))
        elif lo is None:
            point.append(hi - 1)
        elif hi is None:
            point.append(lo + 1)
        else:
            if lo > hi or (lo == hi and (lo_strict or hi_strict)):
                raise AssertionError("elimination stages disagree on feasibility")
            point.append((lo + hi) / 2)
    return True, tuple(point)


def _system_rows(h):
    return [tuple(row) for row in h.c.entries], list(h.offset)


def strict_interior_nonempty(h):
    """True iff some rational point satisfies every constraint strictly."""
    coefs, offs = _system_rows(h)
    ok, _ = _feasible(coefs, offs, [True] * len(coefs), h.c.cols)
    return ok


def strict_interior_point(h):
    """A rational point strictly inside P, or None."""
    coefs, offs = _system_rows(h)
    ok, payload = _feasible(coefs, offs, [True] * len(coefs), h.c.cols)
    return payload if ok else None


def infeasibility_certificate(h, strict=True):
    """Nonnegative multipliers witnessing emptiness (of the strict interior
    when ``strict``, of P itself otherwise), or None if feasible.

    The returned tuple lambda satisfies sum(lambda_i * row_i) = 0 and
    sum(lambda_i * offset_i) <= 0, with < 0 forced in the non-strict case.
    """
    coefs, offs = _system_rows(h)
    ok, payload = _feasible(coefs, offs, [strict] * len(coefs), h.c.cols)
    return None if ok else payload


def _row_negation_feasible(coefs, offs, j, n):
    """Feasibility of: all rows except j (closed) plus row j strictly violated."""
    cs = [coefs[i] for i in range(len(coefs)) if i != j]
    os_ = [offs[i] for i in range(len(offs)) if i != j]
    stricts = [False] * len(cs)
    cs.append(tuple(-x for x in coefs[j]))
    os_.append(-offs[j])
    stricts.append(True)
    ok, _ = _feasible(cs, os_, stricts, n)
    return ok


def facets(h):
    """Geometric redundancy removal.

    A row is dropped iff strictly violating it while keeping every other
    row is infeasible (the polyhedron does not change without it).  Exact
    duplicate halfspaces keep their first occurrence only.  Requires a
    nonempty strict interior.
    """
    if not strict_interior_nonempty(h):
        raise EmptyInteriorError("halfspace system has no strict interior point")
    r, n = h.c.rows, h.c.cols
    seen = {}
    dup = set()
    for i in range(r):
        g = h.c.row_gcd(i)
        if g == 0:
            continue  # zero rows fall to the negation test
        key = (tuple(x // g for x in h.c[i]), h.offset[i] / g)
        if key in seen:
            dup.add(i)
        else:
            seen[key] = i
    base = [i for i in range(r) if i not in dup]
    coefs = [tuple(h.c[i]) for i in base]
    offs = [h.offset[i] for i in base]
    irredundant = []
    for pos, i in enumerate(base):
        if _row_negation_feasible(coefs, offs, pos, n):
            irredundant.append(i)
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


def vertices_and_rays_2d(h):
    """Vertices (rational pairs) and primitive recession rays of a 2D system.

    Vertices are the feasible pairwise facet intersections, ordered
    counterclockwise starting from the lexicographically smallest; rays
    generate the recession cone, also counterclockwise from the smallest.
    A 1D system is accepted and embedded on the first axis.
    """
    n = h.c.cols
    if n not in (1, 2):
        raise DimensionMismatchError("vertex/ray enumeration supports 1 or 2 dims, not %d" % n)
    rep = facets(h)
    rows = [h.c[i] for i in rep.irredundant]
    offs = [h.offset[i] for i in rep.irredundant]

    if n == 1:
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
            if h.contains((x, y)):
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
