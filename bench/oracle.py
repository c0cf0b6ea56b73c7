"""Exact arithmetic for the benchmark's own checks, written apart from lgdual.

Nothing here imports lgdual: the verdicts and certificates computed below are
what the program's outputs are compared against.  Matrices are lists or
tuples of integer rows.
"""

import itertools
from fractions import Fraction
from functools import reduce
from math import gcd


def matmul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)] for row in a]


def det(rows):
    """Determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def rank(rows):
    """Rank over the rationals, by elimination over Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][col] / m[r][col]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def row_gcd(row):
    return reduce(gcd, (abs(x) for x in row), 0)


# ---------------------------------------------------------------------------
# Split bundles over the projective line


def bundle_matrices(degrees):
    """(dv, mon) of Tot(O(a_1) + ... + O(a_c)) with its generic sections.

    Rays: f0 = e_0, fInf = (-1, -a_1, ..., -a_c), X_j = e_j.  Sections: for
    each a_i <= 0 the monomials t1^j sigma_i, 0 <= j <= -a_i.
    """
    c = len(degrees)
    unit = [tuple(1 if t == i else 0 for t in range(c)) for i in range(c)]
    dv = [(1,) + (0,) * c, (-1,) + tuple(-a for a in degrees)]
    dv += [(0,) + u for u in unit]
    mon = [(j,) + unit[i] for i, a in enumerate(degrees) if a <= 0 for j in range(-a + 1)]
    return dv, mon


def cy_tuples(max_rank, bound):
    """Nonincreasing degree tuples with sum -2, entries in [-bound, bound]."""
    values = range(bound, -bound - 1, -1)
    return [
        tup
        for r in range(1, max_rank + 1)
        for tup in itertools.combinations_with_replacement(values, r)
        if sum(tup) == -2
    ]


def charges(rows):
    """Signed maximal minors of an (n+1) x n matrix: its left-kernel vector."""
    return [(-1) ** i * det(rows[:i] + rows[i + 1:]) for i in range(len(rows))]


def matrix_verdict(dv, mon):
    """Matrix-level self-duality of a corank-1 dv whose rows span Z^n.

    Returns None when some |dv|-row subset S of mon has mon_S[perm] @ U = dv
    for a permutation and a unimodular U, else the reason the program must
    report.  Two surjections Z^r -> Z^n with the same kernel differ by an
    element of GL(n, Z), so S qualifies exactly when its charge vector is
    primitive and equals dv's up to order and an overall sign.
    """
    if len(mon) < len(dv):
        return "not-enough-monomials"
    if rank(mon) != rank(dv):
        return "no-matrix-witness"
    key = sorted(charges(dv))
    for subset in itertools.combinations(mon, len(dv)):
        q = charges(list(subset))
        if row_gcd(q) == 1 and (sorted(q) == key or sorted(-x for x in q) == key):
            return None
    return "no-matrix-witness"


def witness_holds(dv, mon, subset, perm, u):
    """Replay mon[subset][perm] @ u == dv with det u = +-1."""
    if list(subset) != sorted(set(subset)) or not all(0 <= i < len(mon) for i in subset):
        return False
    if sorted(perm) != list(range(len(subset))) or len(subset) != len(dv):
        return False
    picked = [mon[subset[p]] for p in perm]
    return matmul(picked, u) == [list(r) for r in dv] and det(u) in (1, -1)


# ---------------------------------------------------------------------------
# Exact linear programming: certificates for halfspace systems A x + b >= 0


def nonneg_solution(mat, rhs):
    """Some y >= 0 with mat @ y == rhs, or None: phase one of the simplex
    method with Bland's rule against cycling.  Rows are kept as integers,
    each scaled by a positive factor, so every pivot is exact."""
    m, n = len(mat), len(mat[0])
    tab = []
    for i in range(m):
        row = [Fraction(x) for x in mat[i]] + [Fraction(rhs[i])]
        scale = reduce(lambda p, q: p * q // gcd(p, q), (x.denominator for x in row), 1)
        if rhs[i] < 0:
            scale = -scale
        tab.append([int(x * scale) for x in row[:n]] + [int(k == i) for k in range(m)]
                   + [int(row[n] * scale)])
    basis = [n + i for i in range(m)]
    # "minimise the sum of the artificial variables": start from the reduced
    # costs with the artificial columns priced out
    obj = [-sum(tab[i][j] for i in range(m)) if j < n else 0 for j in range(n + m)]
    obj.append(-sum(tab[i][-1] for i in range(m)))
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        r = None
        for i in range(m):
            if tab[i][enter] > 0:
                # compare tab[i][-1] / tab[i][enter] with the best ratio so far
                if r is None:
                    r = i
                    continue
                lhs = tab[i][-1] * tab[r][enter]
                rhs_ = tab[r][-1] * tab[i][enter]
                if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[r]):
                    r = i
        # phase one is bounded below by 0, so the entering column has a
        # positive entry and r is set
        piv_row, p = tab[r], tab[r][enter]
        for row in tab + [obj]:
            f = row[enter]
            if f and row is not piv_row:
                row[:] = [x * p - f * y for x, y in zip(row, piv_row)]
                g = reduce(gcd, row, 0)
                if g > 1:
                    row[:] = [x // g for x in row]
        basis[r] = enter
    if obj[-1] != 0:
        return None
    y = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            y[j] = Fraction(tab[i][-1], tab[i][j])
    return y


def point_in(a, b, strict):
    """A rational x with a_i x + b_i > 0 on strict rows and >= 0 on the rest,
    or None.  Solved homogenised: a_i x' + b_i t - s_i = [strict_i], t >= 1,
    with x' split into a positive and a negative part; then x = x' / t."""
    m, n = len(a), len(a[0])
    mat, rhs = [], []
    for i in range(m):
        mat.append(list(a[i]) + [-x for x in a[i]] + [b[i]] + [-int(k == i) for k in range(m)] + [0])
        rhs.append(1 if strict[i] else 0)
    mat.append([0] * (2 * n) + [1] + [0] * m + [-1])
    rhs.append(1)
    y = nonneg_solution(mat, rhs)
    if y is None:
        return None
    t = y[2 * n]
    return [(y[j] - y[n + j]) / t for j in range(n)]


def multipliers(a, b):
    """lambda >= 0 summing to 1 with lambda @ a == 0 and lambda @ b <= 0,
    which shows that a x + b > 0 has no solution; or None."""
    m, n = len(a), len(a[0])
    mat = [[a[i][j] for i in range(m)] + [0] for j in range(n)]
    mat.append([b[i] for i in range(m)] + [1])
    mat.append([1] * m + [0])
    y = nonneg_solution(mat, [0] * n + [0, 1])
    return None if y is None else y[:m]


def _replayed(ok, what):
    if not ok:
        raise ArithmeticError("%s fails replay" % what)


def value(row, x, off):
    return sum(Fraction(c) * v for c, v in zip(row, x)) + off


def point_replays(a, b, x, strict):
    vals = [value(a[i], x, b[i]) for i in range(len(a))]
    return all(v > 0 if s else v >= 0 for v, s in zip(vals, strict))


def multipliers_replay(a, b, lam):
    if lam is None or any(v < 0 for v in lam) or not any(lam):
        return False
    n = len(a[0])
    combo = [sum(lam[i] * a[i][j] for i in range(len(a))) for j in range(n)]
    return all(v == 0 for v in combo) and sum(l * o for l, o in zip(lam, b)) <= 0


class SystemReport:
    """Certified interior and facet structure of { x : a x + b >= 0 }.

    ``interior`` is True with a replayed strict point, or False with replayed
    multipliers.  When the interior is nonempty, ``kept`` lists the rows that
    cut facets: each kept row comes with a replayed point violating only that
    row, each dropped row with replayed multipliers showing that the system
    with that row negated has no strict point (enough, since the interior is
    nonempty).  A certificate that fails to replay raises ArithmeticError.
    """

    def __init__(self, a, b):
        m = len(a)
        x = point_in(a, b, [True] * m)
        if x is not None:
            _replayed(point_replays(a, b, x, [True] * m), "interior point")
            self.interior = True
        else:
            _replayed(multipliers_replay(a, b, multipliers(a, b)), "interior multipliers")
            self.interior = False
            self.kept = None
            return
        kept = []
        for j in range(m):
            neg_a = [r if i != j else [-v for v in r] for i, r in enumerate(a)]
            neg_b = [o if i != j else -o for i, o in enumerate(b)]
            strict = [i == j for i in range(m)]
            x = point_in(neg_a, neg_b, strict)
            if x is not None:
                _replayed(point_replays(neg_a, neg_b, x, strict), "kept-row point")
                kept.append(j)
            else:
                _replayed(multipliers_replay(neg_a, neg_b, multipliers(neg_a, neg_b)),
                          "dropped-row multipliers")
        self.kept = tuple(kept)
