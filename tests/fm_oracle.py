"""Fourier-Motzkin elimination: the reference for ``lgdual.polyhedra``.

This is the exact-Fraction elimination that decided feasibility and facet
redundancy before the simplex kernel, kept unchanged as an independent
oracle but for its duplicate rule, which follows ``facets``: equal
halfspaces keep the first row of least gcd.  Its cost grows doubly
exponentially with the dimension, so the tests only call it on small
systems.  Rows are (coef tuple, off, strict, cert) where cert holds
rational multipliers over the original input rows.
"""

from fractions import Fraction

from lgdual.errors import EmptyInteriorError
from lgdual.linalg import IntMatrix
from lgdual.polyhedra import FacetReport


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
    row is infeasible (the polyhedron does not change without it).  Equal
    halfspaces keep one row, the first of least gcd.  Requires a nonempty
    strict interior.
    """
    if not strict_interior_nonempty(h):
        raise EmptyInteriorError("halfspace system has no strict interior point")
    r, n = h.c.rows, h.c.cols
    seen = {}
    dup = set()
    for i in sorted(range(r), key=h.c.row_gcd):
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
