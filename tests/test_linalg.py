"""Exact integer linear algebra: normal forms and right-equivalence."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import elimination_oracle
from lgdual import linalg
from lgdual.errors import ShapeMismatchError, ValidationError
from lgdual.linalg import (
    IntMatrix,
    _bareiss_solve,
    _hnf_col_ops,
    cokernel,
    hnf_col,
    hnf_col_transform,
    right_equivalent,
    snf,
)

entries = st.integers(min_value=-9, max_value=9)


def matrices(max_rows=4, max_cols=4, elems=entries, min_rows=1, min_cols=1):
    return st.integers(min_rows, max_rows).flatmap(
        lambda r: st.integers(min_cols, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(elems, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(IntMatrix.from_rows)
        )
    )


def minor_gcd(a, k):
    """Gcd of all k x k minors -- the k-th determinantal divisor."""
    g = 0
    for rows in itertools.combinations(range(a.rows), k):
        for cols in itertools.combinations(range(a.cols), k):
            sub = [[a[i][j] for j in cols] for i in rows]
            g = math.gcd(g, _det(sub))
    return g


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


# --- construction and arithmetic ------------------------------------------

def test_from_rows_shape_and_indexing():
    m = IntMatrix.from_rows([(1, 2, 3), (4, 5, 6)])
    assert (m.rows, m.cols) == (2, 3)
    assert m[1] == (4, 5, 6)
    assert list(m) == [(1, 2, 3), (4, 5, 6)]


def test_ragged_rows_rejected():
    with pytest.raises(ShapeMismatchError):
        IntMatrix.from_rows([(1, 2), (3,)])


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(3, 2), Fraction(2), "2"])
def test_non_integral_entries_rejected(bad):
    # no truncation: 1.5 used to become 1
    with pytest.raises(ValidationError):
        IntMatrix.from_rows([(bad, 2)])


def test_entries_take_index_integers():
    np = pytest.importorskip("numpy")
    m = IntMatrix.from_rows([(np.int64(-1), True)])
    assert m.entries == ((-1, 1),) and type(m[0][0]) is int


def test_matmul_shape_check():
    a = IntMatrix.from_rows([(1, 2)])
    with pytest.raises(ShapeMismatchError):
        a @ a


def test_matmul_against_known_product():
    a = IntMatrix.from_rows([(1, 2), (3, 4)])
    b = IntMatrix.from_rows([(0, 1), (1, 0)])
    assert a @ b == IntMatrix.from_rows([(2, 1), (4, 3)])


def test_identity_and_transpose():
    a = IntMatrix.from_rows([(1, 2, 3), (4, 5, 6)])
    assert a @ IntMatrix.identity(3) == a
    assert a.transpose().transpose() == a


@given(matrices())
def test_transpose_swaps_indices(a):
    t = a.transpose()
    assert all(t[j][i] == a[i][j] for i in range(a.rows) for j in range(a.cols))


def test_row_gcd():
    m = IntMatrix.from_rows([(4, -6), (0, 0), (3, 5)])
    assert [m.row_gcd(i) for i in range(3)] == [2, 0, 1]


def test_unimodular_detection():
    assert IntMatrix.from_rows([(2, 1), (1, 1)]).is_unimodular()
    assert not IntMatrix.from_rows([(2, 0), (0, 1)]).is_unimodular()
    assert not IntMatrix.from_rows([(1, 0)]).is_unimodular()


# --- Smith normal form ------------------------------------------------------

@given(matrices())
@settings(max_examples=150)
def test_snf_decomposition_reconstructs(a):
    dec = snf(a)
    assert dec.u @ a @ dec.v == dec.s
    assert dec.u.is_unimodular() and dec.v.is_unimodular()


@given(matrices())
@settings(max_examples=150)
def test_snf_diagonal_divisibility(a):
    dec = snf(a)
    diag = dec.diagonal()
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0
    s = dec.s
    assert all(
        s[i][j] == 0 for i in range(s.rows) for j in range(s.cols) if i != j
    )


@given(matrices(3, 3, st.integers(-4, 4)))
@settings(max_examples=120)
def test_snf_matches_determinantal_divisors(a):
    # d_1 d_2 ... d_k equals the gcd of all k x k minors
    diag = snf(a).diagonal()
    prod = 1
    for k in range(1, len(diag) + 1):
        prod *= diag[k - 1]
        assert abs(prod) == minor_gcd(a, k)


def test_snf_known_case():
    a = IntMatrix.from_rows([(2, 4, 4), (-6, 6, 12), (10, 4, 16)])
    assert snf(a).diagonal() == (2, 2, 156)


# --- Hermite normal form ----------------------------------------------------

def hnf_shape_ok(h):
    """Column-style HNF: pivots walk down, pivot positive, entries to its
    left reduced into [0, pivot)."""
    last = -1
    for j in range(h.cols):
        rows_ = [i for i in range(h.rows) if h[i][j] != 0]
        if not rows_:
            continue
        piv = min(rows_)
        if piv <= last:
            return False
        last = piv
        if h[piv][j] <= 0:
            return False
        for j2 in range(j):
            if not 0 <= h[piv][j2] < h[piv][j]:
                return False
    return True


@given(matrices())
@settings(max_examples=150)
def test_hnf_is_column_equivalent_and_shaped(a):
    h = hnf_col(a)
    hp, u, uinv = hnf_col_transform(a)
    assert hp == h
    assert u.is_unimodular()
    assert a @ u == h
    assert u @ uinv == IntMatrix.identity(a.cols)
    assert hnf_shape_ok(h)


@given(
    st.one_of(matrices(min_cols=0), st.integers(0, 3).map(lambda c: IntMatrix(0, c, []))),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=150)
def test_hnf_tracks_only_the_transforms_asked_for(a, with_u, with_uinv):
    h, u, uinv = _hnf_col_ops(a)
    hp, up, uinvp = _hnf_col_ops(a, with_u=with_u, with_uinv=with_uinv)
    assert hp == h
    assert up == (u if with_u else [])
    assert uinvp == (uinv if with_uinv else [])
    ht, ut, uinvt = hnf_col_transform(a, with_u=with_u, with_uinv=with_uinv)
    assert ht.entries == tuple(map(tuple, h))
    assert ut == (IntMatrix(a.cols, a.cols, u) if with_u else None)
    assert uinvt == (IntMatrix(a.cols, a.cols, uinv) if with_uinv else None)


def test_hnf_callers_track_only_what_they_read(monkeypatch):
    calls = []

    def counted(a, with_u=True, with_uinv=True):
        calls.append((a, with_u, with_uinv))
        return _hnf_col_ops(a, with_u, with_uinv)

    monkeypatch.setattr(linalg, "_hnf_col_ops", counted)
    a = IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1)])
    b = a @ IntMatrix.from_rows([(2, 1), (1, 1)])
    linalg.hnf_col(a)
    assert calls == [(a, False, False)]
    calls.clear()
    public = []
    transform = linalg.hnf_col_transform
    monkeypatch.setattr(
        linalg, "hnf_col_transform", lambda m, **kw: public.append(m) or transform(m, **kw)
    )
    u = right_equivalent(a, b)
    assert b @ u == a
    assert calls == [(a, False, True), (b, True, False)]
    assert public == [a, b]  # the Hermite time is spent under the public name
    monkeypatch.setattr(linalg, "hnf_col_transform", transform)
    calls.clear()
    hnf_col_transform(a)
    assert calls == [(a, True, True)]


@given(matrices(4, 2, st.integers(-3, 3), min_cols=2))
@settings(max_examples=80)
def test_hnf_invariant_under_unimodular_column_action(a):
    h = hnf_col(a)
    for u in ((1, 1, 0, 1), (0, -1, 1, 0), (1, 0, 1, 1), (3, 2, 1, 1)):
        w = IntMatrix.from_rows([u[:2], u[2:]])
        assert hnf_col(a @ w) == h


def test_hnf_idempotent_on_examples():
    for rows in [
        [(1, 0), (-1, 2), (0, 1)],
        [(3, 1), (2, 5)],
        [(0, 0, 0), (1, 2, 3)],
    ]:
        h = hnf_col(IntMatrix.from_rows(rows))
        assert hnf_col(h) == h


# --- rank and cokernel ------------------------------------------------------

def test_rank_examples():
    assert IntMatrix.from_rows([(1, 2), (2, 4)]).rank() == 1
    assert IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1)]).rank() == 2
    assert IntMatrix.from_rows([(0, 0)]).rank() == 0


def fraction_rank(a):
    """Rank by Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in a.entries]
    r = 0
    for col in range(a.cols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


@st.composite
def rank_cases(draw):
    """Any shape from 0x0 to 6x6, small entries or entries near +-10^12,
    sometimes with a row that combines others or a zero column."""
    big = st.integers(10**12 - 3, 10**12 + 3)
    elems = st.one_of(st.integers(-3, 3), big, big.map(lambda x: -x))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m = [draw(st.lists(elems, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        m[-1] = [x + k * y for x, y in zip(m[0], m[1])]
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = 0
    return IntMatrix(rows, cols, m)


@given(rank_cases())
@settings(max_examples=300, deadline=None)
def test_rank_matches_fraction_elimination(a):
    assert a.rank() == fraction_rank(a)
    assert a.transpose().rank() == a.rank()


def test_rank_of_empty_and_zero_matrices():
    assert IntMatrix(0, 3, []).rank() == 0
    assert IntMatrix(3, 0, [(), (), ()]).rank() == 0
    assert IntMatrix.zero(2, 4).rank() == 0
    assert IntMatrix(0, 0, []).det() == 1


def test_cokernel_free_part():
    # Z^3 / <(1,0), (-1,2), (0,1)> = Z via (1, 1, -2)
    g = cokernel(IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1)]))
    assert g.free_rank == 1 and g.torsion == ()
    assert tuple(g.free_projection()[0]) == (1, 1, -2)


def test_cokernel_torsion():
    g = cokernel(IntMatrix.from_rows([(2, 0), (0, 1)]))
    assert g.free_rank == 0 and g.torsion == (2,)


def test_cokernel_projection_kills_image():
    a = IntMatrix.from_rows([(1, 0, 0), (-1, 1, 1), (0, 1, 0), (0, 0, 1)])
    g = cokernel(a)
    proj = g.free_projection()
    assert (proj @ a).entries == tuple(
        (0,) * a.cols for _ in range(g.free_rank)
    )


def test_projection_sign_canonical():
    # first nonzero entry of every free row is positive
    for rows in [
        [(1, 0), (-1, 2), (0, 1)],
        [(1, 0), (-1, 4), (0, 1)],
        [(-1,), (1,)],
    ]:
        g = cokernel(IntMatrix.from_rows(rows))
        for i in range(g.free_rank):
            row = g.free_projection()[i]
            lead = next(v for v in row if v)
            assert lead > 0


def snf_presentation(a):
    """The cokernel of a read off snf(a) alone: free rank, torsion and the
    projection, u's rows past the nonzero diagonal (first nonzero entry
    made positive) over u's rows of diagonal entries above 1."""
    dec = snf(a)
    diag = dec.diagonal()
    k = sum(1 for d in diag if d)
    free = []
    for row in dec.u.entries[k:]:
        lead = next((x for x in row if x), 0)
        free.append(tuple(-x for x in row) if lead < 0 else row)
    tors = [dec.u[i] for i in range(k) if diag[i] > 1]
    projection = IntMatrix(len(free) + len(tors), a.rows, free + tors)
    return a.rows - k, tuple(d for d in diag if d > 1), projection


@st.composite
def corank_one_matrices(draw):
    """(n+1) x n integer matrices, n = 0..6: entries up to 10^6 or small, and
    shapes that leave the charge path: a zero row, rank below n (a product
    through k < n columns, so every maximal minor is 0), and a column scaled
    by d >= 2 (every maximal minor divisible by d, so the group has torsion)."""
    n = draw(st.integers(0, 6))
    elems = draw(st.sampled_from([st.integers(-10**6, 10**6), st.integers(-3, 3)]))
    rows = [[draw(elems) for _ in range(n)] for _ in range(n + 1)]
    shape = draw(st.sampled_from(["drawn", "zero-row", "rank-below", "scaled"]))
    if n and shape == "zero-row":
        rows[draw(st.integers(0, n))] = [0] * n
    elif n and shape == "rank-below":
        k = draw(st.integers(0, n - 1))
        left = [[draw(st.integers(-10**3, 10**3)) for _ in range(k)] for _ in range(n + 1)]
        right = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
        rows = [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(n)] for row in left]
    elif n and shape == "scaled":
        j, d = draw(st.integers(0, n - 1)), draw(st.integers(2, 6))
        rows = [row[:j] + [d * row[j]] + row[j + 1:] for row in rows]
    return IntMatrix(n + 1, n, rows)


@given(corank_one_matrices())
@example(IntMatrix(1, 0, [()]))  # n = 0: the empty determinant gives q = (1)
@settings(max_examples=300, deadline=None)
def test_cokernel_matches_the_smith_presentation_on_corank_one(a):
    # the charge path, taken when the signed maximal minors have gcd 1, gives
    # the presentation snf gives; every other matrix goes through snf
    g = cokernel(a)
    assert (g.free_rank, g.torsion, g.projection) == snf_presentation(a)
    assert g.source is a


# --- right equivalence ------------------------------------------------------

def unimodular_2x2(bound=2):
    mats = []
    span = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(span, repeat=4):
        if a * d - b * c in (1, -1):
            mats.append(IntMatrix.from_rows([(a, b), (c, d)]))
    return mats


UNIMODULAR_2X2 = unimodular_2x2()


def test_right_equivalent_finds_known_transform():
    a = IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1)])
    u = IntMatrix.from_rows([(2, 1), (1, 1)])
    b = a @ u
    got = right_equivalent(b, a)
    assert got is not None
    assert a @ got == b


@given(matrices(4, 2, st.integers(-3, 3), min_cols=2))
@settings(max_examples=80, deadline=None)
def test_right_equivalent_recovers_planted_transform(a):
    w = UNIMODULAR_2X2[hash(a.entries) % len(UNIMODULAR_2X2)]
    b = a @ w
    u = right_equivalent(b, a)
    assert u is not None
    assert a @ u == b and u.is_unimodular()


@st.composite
def same_shape_pairs(draw):
    r = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
    rows = st.lists(row, min_size=r, max_size=r)
    return IntMatrix.from_rows(draw(rows)), IntMatrix.from_rows(draw(rows))


@given(same_shape_pairs())
@settings(max_examples=60, deadline=None)
def test_right_equivalent_complete_on_small_pairs(pair):
    a, b = pair
    u = right_equivalent(a, b)
    brute = next((w for w in UNIMODULAR_2X2 if b @ w == a), None)
    if u is not None:
        assert b @ u == a and u.is_unimodular()
    if brute is not None:
        # the witness found by brute force need not be the one returned,
        # but existence must agree
        assert u is not None


def test_right_equivalent_rejects_different_lattices():
    a = IntMatrix.from_rows([(1, 0), (0, 1)])
    b = IntMatrix.from_rows([(2, 0), (0, 1)])
    assert right_equivalent(a, b) is None
    assert right_equivalent(b, a) is None


def test_right_equivalent_shape_mismatch():
    a = IntMatrix.from_rows([(1, 0)])
    b = IntMatrix.from_rows([(1, 0), (0, 1)])
    with pytest.raises(ShapeMismatchError):
        right_equivalent(a, b)


def test_right_equivalent_without_columns():
    a, b = IntMatrix(2, 0, ((), ())), IntMatrix(2, 0, ((), ()))
    assert right_equivalent(a, b) == IntMatrix.identity(0)


@st.composite
def planted_pairs(draw):
    """(b @ w, b) for a planted unimodular w; b has n = 1..4 columns and
    n..6 rows, of full column rank or, through a zero or repeated column,
    of lower rank."""
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(n, 6))
    b = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(rows)]
    deficient = n > 1 and draw(st.booleans())
    if deficient:
        k = draw(st.integers(0, 2))
        for row in b:
            row[-1] = k * row[0]
    b = IntMatrix.from_rows(b)
    assume(deficient or b.rank() == n)
    w = IntMatrix.identity(n)
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, k in draw(st.lists(ops, max_size=6)):
        e = [[int(x == y) for y in range(n)] for x in range(n)]
        if i == j:
            e[i][i] = -1
        else:
            e[i][j] = k
        w = w @ IntMatrix.from_rows(e)
    return b @ w, b


@given(planted_pairs())
@settings(max_examples=200, deadline=None)
def test_right_equivalent_matches_row_select_solve(pair):
    # with full column rank the witness is unique, so the Hermite
    # transforms give the matrix the old rational row-select solve gave
    a, b = pair
    u = right_equivalent(a, b)
    assert u is not None and b @ u == a and u.is_unimodular()
    if b.rank() == b.cols:
        assert u == elimination_oracle.right_equivalent(a, b)


@st.composite
def full_row_rank_systems(draw):
    """f x r integer systems of full row rank, f = 1..5 and r up to 9,
    some columns zero, with two right-hand sides of small Fractions."""
    f = draw(st.integers(1, 5))
    r = draw(st.integers(f, 9))
    zero = draw(st.sets(st.integers(0, r - 1), max_size=r - f))
    entries = st.integers(-3, 3)
    a = IntMatrix(f, r, [[0 if j in zero else draw(entries) for j in range(r)] for _ in range(f)])
    assume(a.rank() == f)
    q = st.fractions(-5, 5, max_denominator=6)
    return a, draw(st.lists(st.lists(q, min_size=f, max_size=f), min_size=2, max_size=2))


@given(full_row_rank_systems())
@settings(max_examples=300, deadline=None)
def test_bareiss_solve_matches_fraction_elimination(system):
    # the class-lift solve: same pivot columns as the reduced row echelon
    # form, so the same Fractions, from integers over one denominator
    a, rhs = system
    scale = math.lcm(*(q.denominator for b in rhs for q in b))
    d, xs = _bareiss_solve(a, [[int(q * scale) for q in b] for b in rhs])
    assert len(xs) == len(rhs)
    for b, x in zip(rhs, xs):
        want = elimination_oracle._solve_underdetermined(a, b)
        assert [Fraction(v, d * scale) for v in x] == want


def test_bareiss_solve_rejects_an_inconsistent_system():
    a = IntMatrix.from_rows([(1, 2), (2, 4)])
    assert _bareiss_solve(a, [[1, 2]]) == (1, [[1, 0]])
    with pytest.raises(ValueError):
        _bareiss_solve(a, [[1, 3]])


@given(matrices(4, 3, st.integers(-3, 3)))
@settings(max_examples=80)
def test_row_gcds_invariant_under_unimodular_right_action(a):
    _, u, _ = hnf_col_transform(a)
    moved = a @ u
    assert a.row_gcds() == moved.row_gcds()
