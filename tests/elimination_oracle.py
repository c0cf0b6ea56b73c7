"""Fraction Gauss-Jordan eliminations: the reference for ``lgdual.linalg``.

These are the exact-Fraction routines that recovered right-equivalence
witnesses and class lifts before both went to the integer Bareiss kernel,
kept unchanged as an independent oracle: the row-select solve of
``right_equivalent`` (``_first_independent_rows``, ``_solve_square``) and
the reduced row echelon solve of ``canonical_class``
(``_solve_underdetermined``).
"""

from fractions import Fraction

from lgdual.errors import ShapeMismatchError, ValidationError
from lgdual.linalg import IntMatrix, hnf_col_transform


def _first_independent_rows(b):
    """Indices of the first maximal set of Q-linearly independent rows."""
    basis = []  # reduced Fraction rows
    picked = []
    for i in range(b.rows):
        vec = [Fraction(x) for x in b[i]]
        for lead, red in basis:
            if vec[lead]:
                f = vec[lead]
                vec = [x - f * y for x, y in zip(vec, red)]
        lead = next((j for j, x in enumerate(vec) if x != 0), None)
        if lead is None:
            continue
        inv = 1 / vec[lead]
        basis.append((lead, [x * inv for x in vec]))
        picked.append(i)
        if len(picked) == b.cols:
            break
    return picked


def _solve_square(mat, rhs):
    """Solve mat @ x = rhs over the rationals; mat n x n invertible.

    mat and rhs are lists of Fraction rows; returns list of Fraction rows.
    """
    n = len(mat)
    aug = [list(mat[i]) + list(rhs[i]) for i in range(n)]
    w = len(aug[0])
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:w] for row in aug]


def right_equivalent(a, b):
    """Unimodular u with b @ u == a, or None when no such u exists.

    Decided through equality of Hermite forms.  When b has full column
    rank the witness is recovered by a rational row-select solve (it is
    then unique); otherwise it is assembled from the tracked Hermite
    transforms of both sides.
    """
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeMismatchError(
            "right equivalence needs equal shapes, got %dx%d and %dx%d"
            % (a.rows, a.cols, b.rows, b.cols)
        )
    n = a.cols
    if n == 0:
        return IntMatrix.identity(0)
    ha, ua, ua_inv = hnf_col_transform(a)
    hb, ub, ub_inv = hnf_col_transform(b)
    if ha != hb:
        return None
    picked = _first_independent_rows(b)
    if len(picked) == n:
        bsel = [[Fraction(x) for x in b[i]] for i in picked]
        asel = [[Fraction(x) for x in a[i]] for i in picked]
        sol = _solve_square(bsel, asel)
        if any(x.denominator != 1 for row in sol for x in row):
            raise AssertionError("equivalent matrices produced a non-integral witness")
        u = IntMatrix(n, n, [[int(x) for x in row] for row in sol])
    else:
        u = ub @ ua_inv
    if b @ u != a or not u.is_unimodular():
        raise AssertionError("right-equivalence witness failed verification")
    return u


def _solve_underdetermined(mat, rhs):
    """Particular rational solution x of mat @ x = rhs (mat full row rank)."""
    rows = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(mat, rhs)]
    ncols = mat.cols
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(rows)):
        if rows[i][ncols] != 0:
            raise ValidationError("inconsistent class value system")
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = rows[i][ncols]
    return x
