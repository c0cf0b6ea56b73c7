"""Exact integer matrix algebra.

Provides arbitrary-precision integer matrices together with Smith and
column-style Hermite normal forms, cokernel presentations, and unimodular
right-equivalence solving.  Everything here is pure and exact; matrices are
immutable after construction.
"""

from math import gcd, lcm
from operator import add, index, sub

from .complexq import _Frozen
from .errors import ShapeMismatchError, ValidationError

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "ChowGroup",
    "snf",
    "cokernel",
    "hnf_col_transform",
    "right_equivalent",
]


def _integers(values, what):
    """values as a tuple of ints.  Entries with __index__ (int, bool, numpy
    integers) are taken; a float, Fraction or str raises ValidationError
    rather than being truncated."""
    try:
        return tuple([index(x) for x in values])
    except TypeError:
        raise ValidationError("%s must be integers, got %r" % (what, values)) from None


def _scaled(fractions):
    """(L, L * fractions) for the least L that makes every entry an integer."""
    scale = lcm(*(q.denominator for q in fractions))
    return scale, [q.numerator * (scale // q.denominator) for q in fractions]


def _bareiss(entries, cols):
    """Fraction-free row echelon reduction of integer rows (Bareiss 1968).

    Returns (pivots, sign, pivot, rows): pivots are the pivot columns, the
    leftmost independent ones, so the rank is their count; sign is the
    parity of the row swaps; pivot is the last nonzero pivot, which is the
    leading minor over the pivot rows and columns, so a square matrix of
    full rank has determinant sign * pivot; rows is the echelon form, read
    only on and right of each row's pivot.  Every division is exact
    (Sylvester's identity).
    """
    m = [list(row) for row in entries]
    pivots, sign, prev = [], 1, 1
    for col in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        p = top[col]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[col]
            if not f and p == prev:  # the update would leave the row as it is
                continue
            for j in range(col + 1, cols):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        pivots.append(col)
    return pivots, sign, prev, m


def _cofactors(rows, cols):
    """c_j = (-1)^j det(A without column j) for the k x (k + 1) matrix A of
    rows (cols = k + 1), by one fraction-free elimination: at rank k, c spans
    A's right kernel, and c_f = (-1)^f sign d at the free column f (the
    pivot columns have det sign * d), so back substitution gives c.  At
    lower rank c is 0; with no rows (k = 0) it is [1]."""
    pivots, sign, d, echelon = _bareiss(rows, cols)
    c = [0] * cols
    if len(pivots) == cols - 1:
        f = sum(range(cols)) - sum(pivots)
        c[f] = (-1) ** f * sign * d
        for row, p in reversed(list(zip(echelon, pivots))):
            c[p] = -sum(row[j] * c[j] for j in range(p + 1, cols)) // row[p]
    return c


def _bareiss_solve(a, rhs):
    """Integer x with a @ x == d * b for every integer vector b in rhs, and
    their one common denominator d, for a consistent system; returns (d, xs).

    One Bareiss elimination of a beside the columns of rhs, then
    fraction-free back substitution over the pivot columns: d is the last
    pivot, the minor of a on its pivot rows and columns, so d * x is
    integral (Cramer) and every division is exact.  Coordinates off the
    pivot columns are 0, so x / d is the reduced row echelon solution.
    Each x is replayed against a before it is returned.
    """
    n = a.cols
    rows = [row + tuple(b[i] for b in rhs) for i, row in enumerate(a.entries)]
    pivots, _, d, m = _bareiss(rows, n + len(rhs))
    pivots = [p for p in pivots if p < n]
    xs = []
    for t, b in enumerate(rhs):
        x = [0] * n
        for k in reversed(range(len(pivots))):
            row, p = m[k], pivots[k]
            x[p] = (d * row[n + t] - sum(row[q] * x[q] for q in pivots[k + 1:])) // row[p]
        if any(sum(u * v for u, v in zip(row, x)) != d * bi for row, bi in zip(a.entries, b)):
            raise ValueError("the system a @ x == b has no solution")
        xs.append(x)
    return d, xs


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_cols(mats, i, j):
    """Swap columns i and j of each matrix (a list of row lists) in mats."""
    for t in mats:
        for row in t:
            row[i], row[j] = row[j], row[i]


def _add_col(mats, j, i, q):
    """col_j += q * col_i in each matrix (a list of row lists) in mats."""
    for t in mats:
        for row in t:
            row[j] += q * row[i]


class IntMatrix(_Frozen):
    """Immutable integer matrix, row-major, arbitrary precision.

    The column count is explicit so zero-row matrices keep their shape
    (they show up as the exponent matrix of an empty superpotential).

    ``IntMatrix(rows, cols, entries)`` and ``from_rows`` validate: every
    entry must have ``__index__`` and every row the stated length, as their
    input comes from outside the program.  ``_trusted`` takes entries that
    are ints already, made by lgdual's own arithmetic (products, transposes,
    row selections, normal forms, primitive facet normals) or checked at a
    boundary, and skips both passes.
    """

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        # built from lists: tuple() of a generator allocates 10 slots and
        # shrinks, so its tuples land on CPython's per-size free lists
        # without being taken from them, and those lists hold memory
        entries = tuple([_integers(row, "matrix entries") for row in entries])
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ShapeMismatchError(
                "expected %dx%d entries, got %s" % (rows, cols, [len(r) for r in entries])
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, rows, cols, entries):
        """The rows x cols matrix of entries, each row a sequence of ints
        of length cols; rows are stored as tuples, with no coercion and no
        shape check."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", tuple([tuple(row) for row in entries]))
        return m

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [tuple(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n):
        return cls._trusted(n, n, _identity_rows(n))

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, list(map(list, self.entries)))

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatchError(
                "cannot multiply %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols)
            )
        # a sum of other's scaled rows: 1 takes a row as it is, -1 subtracts it
        zero = (0,) * other.cols
        out = []
        for row in self.entries:
            acc = zero
            for a, orow in zip(row, other.entries):
                if a == -1:
                    acc = list(map(sub, acc, orow))
                elif a:
                    if a != 1:
                        orow = [a * x for x in orow]
                    acc = orow if acc is zero else list(map(add, acc, orow))
            out.append(acc)
        return IntMatrix._trusted(self.rows, other.cols, out)

    def transpose(self):
        return IntMatrix._trusted(self.cols, self.rows, zip(*self.entries) if self.entries else [()] * self.cols)

    def take_rows(self, indices):
        return IntMatrix._trusted(len(indices), self.cols, [self.entries[i] for i in indices])

    def row_gcd(self, i):
        return gcd(*self.entries[i])

    def row_gcds(self):
        return tuple(self.row_gcd(i) for i in range(self.rows))

    def det(self):
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ShapeMismatchError("determinant of non-square %dx%d matrix" % (self.rows, self.cols))
        pivots, sign, pivot, _ = _bareiss(self.entries, self.cols)
        return sign * pivot if len(pivots) == self.rows else 0

    def rank(self):
        """Rank over the rationals, via fraction-free (Bareiss) elimination."""
        return len(_bareiss(self.entries, self.cols)[0])

    def is_unimodular(self):
        return self.rows == self.cols and self.det() in (1, -1)


def block_diag(a, b):
    """Direct sum of two integer matrices."""
    rows = [row + (0,) * b.cols for row in a.entries] + [(0,) * a.cols + row for row in b.entries]
    return IntMatrix._trusted(a.rows + b.rows, a.cols + b.cols, rows)


class SmithDecomposition(_Frozen):
    """u @ a @ v == s with u, v unimodular and s = diag(d1 | d2 | ...)."""

    _fields = ("u", "s", "v")

    def __init__(self, u, s, v):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", v)

    def diagonal(self):
        return tuple(self.s[i][i] for i in range(min(self.s.rows, self.s.cols)))


def snf(a):
    """Smith normal form with transforms.

    Pivoting by minimal nonzero absolute value, alternating row/column
    sweeps, then a divisibility pass folding any stained trailing entry
    into the pivot row.  Adequate and fully exact at small scale.
    """
    r, n = a.rows, a.cols
    m = [list(row) for row in a.entries]
    u = _identity_rows(r)
    v = _identity_rows(n)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def addmul_row(i, j, q):
        # row_i += q * row_j
        mi, mj = m[i], m[j]
        for k in range(n):
            mi[k] += q * mj[k]
        ui, uj = u[i], u[j]
        for k in range(r):
            ui[k] += q * uj[k]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(r, n)):
        while True:
            # smallest nonzero entry of the trailing block becomes the pivot
            piv = None
            best = None
            for i in range(t, r):
                for j in range(t, n):
                    x = m[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        piv = (i, j)
            if piv is None:
                break
            if piv != (t, t):
                if piv[0] != t:
                    swap_rows(t, piv[0])
                if piv[1] != t:
                    _swap_cols((m, v), t, piv[1])
            dirty = False
            for i in range(t + 1, r):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        addmul_row(i, t, -q)
                    if m[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        _add_col((m, v), j, t, -q)
                    if m[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block
            stain = None
            d = m[t][t]
            for i in range(t + 1, r):
                for j in range(t + 1, n):
                    if m[i][j] % d:
                        stain = i
                        break
                if stain is not None:
                    break
            if stain is None:
                break
            addmul_row(t, stain, 1)
        if m[t][t] < 0:
            negate_row(t)
    return SmithDecomposition(
        IntMatrix._trusted(r, r, u),
        IntMatrix._trusted(r, n, m),
        IntMatrix._trusted(n, n, v),
    )


class ChowGroup(_Frozen):
    """Cokernel presentation of an integer matrix map.

    The map sends the column lattice into the row lattice (chi -> a @ chi);
    its cokernel is Z^free_rank plus cyclic factors of the orders listed in
    ``torsion``.  ``projection`` stacks the free coordinate functionals first
    (sign-normalized so the first nonzero entry is positive), then the
    torsion coordinate functionals.  ``source`` is the defining matrix.
    """

    __slots__ = _fields = ("free_rank", "torsion", "projection", "source")

    def __init__(self, free_rank, torsion, projection, source):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "source", source)

    def free_projection(self):
        return self.projection.take_rows(range(self.free_rank))


def cokernel(a):
    """Cokernel of chi -> a @ chi as a ChowGroup presentation.

    When a is (n+1) x n and its signed maximal minors q_i = (-1)^i det(a
    without row i) have gcd 1, as for the ray matrix of every split bundle
    over the projective line, the rows of a span Z^n and the cokernel is Z.
    The primitive vectors of its left kernel are then +-q, so the
    projection is q under the sign rule, read from one elimination of a's
    transpose (_cofactors) in place of a Smith form.  Every other matrix
    goes through snf.
    """
    q = a.rows == a.cols + 1 and _cofactors(list(zip(*a.entries)), a.rows)
    if q and gcd(*q) == 1:
        free, torsion, torsion_rows = [q], (), []
    else:
        dec = snf(a)
        diag = dec.diagonal()
        k = sum(1 for d in diag if d != 0)
        free = dec.u.entries[k:]
        torsion = tuple(d for d in diag if d > 1)
        torsion_rows = [dec.u[i] for i in range(k) if diag[i] > 1]
    # the sign rule: a free row's first nonzero entry is positive
    free = [[-x for x in row] if next(x for x in row if x) < 0 else row for row in free]
    rows = free + torsion_rows
    return ChowGroup(len(free), torsion, IntMatrix._trusted(len(rows), a.rows, rows), a)


def _hnf_col_ops(a, with_u=True, with_uinv=True):
    """Column-reduce a to Hermite form, returning (h, u, u_inv) as lists.

    A transform that is not asked for comes back as [] and costs nothing:
    u_inv is kept transposed while reducing, so every step is a column
    operation on each of h, u and u_inv^T, and an untracked one is a
    matrix without rows.
    """
    r, n = a.rows, a.cols
    m = [list(row) for row in a.entries]
    u = _identity_rows(n) if with_u else []
    vt = _identity_rows(n) if with_uinv else []

    def negate(j):
        for t in (m, u, vt):
            for row in t:
                row[j] = -row[j]

    pivot_col = 0
    for row_idx in range(r):
        if pivot_col >= n:
            break
        # euclidean sweep across the active columns of this row
        while True:
            nz = [j for j in range(pivot_col, n) if m[row_idx][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(m[row_idx][j]))
            if jmin != pivot_col:
                _swap_cols((m, u, vt), pivot_col, jmin)
            done = True
            for j in range(pivot_col + 1, n):
                x = m[row_idx][j]
                if x:
                    q = x // m[row_idx][pivot_col]
                    # col_j -= q * col_p; on u_inv^T the inverse, col_p += q * col_j
                    _add_col((m, u), j, pivot_col, -q)
                    _add_col((vt,), pivot_col, j, q)
                    if m[row_idx][j]:
                        done = False
            if done:
                break
        if m[row_idx][pivot_col] == 0:
            continue
        if m[row_idx][pivot_col] < 0:
            negate(pivot_col)
        p = m[row_idx][pivot_col]
        for j in range(pivot_col):
            x = m[row_idx][j]
            q = x // p  # floor puts the entry into [0, p)
            if q:
                _add_col((m, u), j, pivot_col, -q)
                _add_col((vt,), pivot_col, j, q)
        pivot_col += 1
    return m, u, [list(row) for row in zip(*vt)]


def hnf_col_transform(a, with_u=True, with_uinv=True):
    """Unique column-style Hermite normal form h = a @ u plus the transform
    pair: returns (h, u, u_inv).

    Convention: pivots positive, entries left of a pivot within its row lie
    in [0, pivot), zero columns pushed rightmost.  A transform that is not
    asked for is not tracked and comes back as None.
    """
    m, u, uinv = _hnf_col_ops(a, with_u, with_uinv)
    n = a.cols
    return (
        IntMatrix._trusted(a.rows, a.cols, m),
        IntMatrix._trusted(n, n, u) if with_u else None,
        IntMatrix._trusted(n, n, uinv) if with_uinv else None,
    )


def right_equivalent(a, b):
    """Unimodular u with b @ u == a, or None when no such u exists.

    Decided through equality of Hermite forms: b @ ub == hb == ha == a @ ua
    for the tracked Hermite transforms, so u = ub @ ua^-1.  When b has full
    column rank u is unique.  The witness is replayed before it is returned.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeMismatchError(
            "right equivalence needs equal shapes, got %dx%d and %dx%d"
            % (a.rows, a.cols, b.rows, b.cols)
        )
    ha, _, ua_inv = hnf_col_transform(a, with_u=False)
    hb, ub, _ = hnf_col_transform(b, with_uinv=False)
    if ha != hb:
        return None
    u = ub @ ua_inv
    if b @ u != a or not u.is_unimodular():
        raise AssertionError("right-equivalence witness failed verification")
    return u
