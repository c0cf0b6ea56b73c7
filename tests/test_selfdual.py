"""Self-duality: matrix search, K reconstruction, verdicts, sweeps, products."""

import dataclasses
import itertools
import sys
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lgdual import selfdual
from lgdual.complexq import ComplexQ
from lgdual.errors import (
    EmptyInteriorError,
    GroupMismatchError,
    NotKopasepticError,
    ShapeMismatchError,
    ValidationError,
)
from lgdual.lgmodel import bundle_model, canonical_class, linear_data, dualize
from lgdual.linalg import IntMatrix, _bareiss, cokernel, right_equivalent
from lgdual.modelfile import parse_model
from lgdual.selfdual import (
    _basis_change,
    _charge_k_step,
    _charge_row,
    _minor_table,
    _row_order_search,
    _search_matrix_witness,
    classify_cy,
    k_reconstruction_class,
    matrix_self_dual,
    model_self_dual,
    product_self_dual,
    self_dual_witness,
    sweep_line_bundles,
    sweep_rank_two,
)
from lgdual.toric import ToricData, bundle_over_p1, from_linear_data

UNIMODULAR_2X2 = [
    IntMatrix.from_rows([(a, b), (c, d)])
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
    if a * d - b * c in (1, -1)
]


def small_matrices(rows, cols, bound=3):
    elem = st.integers(-bound, bound)
    row = st.tuples(*[elem] * cols)
    return st.lists(row, min_size=rows, max_size=rows).map(IntMatrix.from_rows)


# --- matrix-level search ------------------------------------------------------

def test_matrix_self_dual_identity_case():
    a = IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1)])
    perm, u = matrix_self_dual(a, a)
    assert perm == (0, 1, 2)
    assert u == IntMatrix.identity(2)


def test_matrix_self_dual_cotangent_witness():
    dv = bundle_over_p1([-2]).dv
    mon = bundle_model([-2]).mon()
    perm, u = matrix_self_dual(dv, mon)
    assert perm == (0, 2, 1)
    assert u == IntMatrix.from_rows([(-1, 1), (1, 0)])
    assert mon.take_rows(perm) @ u == dv


def test_matrix_self_dual_conifold_witness():
    dv = bundle_over_p1([-1, -1]).dv
    mon = bundle_model([-1, -1]).mon()
    perm, u = matrix_self_dual(dv, mon)
    assert perm == (0, 3, 1, 2)
    assert mon.take_rows(perm) @ u == dv and u.is_unimodular()


def test_matrix_self_dual_no_witness_for_next_twist():
    dv = bundle_over_p1([-3]).dv
    mon = bundle_model([-3]).mon()
    for subset in itertools.combinations(range(mon.rows), dv.rows):
        assert matrix_self_dual(dv, mon.take_rows(subset)) is None


def test_matrix_self_dual_shape_errors():
    a = IntMatrix.from_rows([(1, 0), (0, 1)])
    with pytest.raises(ShapeMismatchError):
        matrix_self_dual(a, IntMatrix.from_rows([(1, 0)]))
    with pytest.raises(ShapeMismatchError):
        matrix_self_dual(a, IntMatrix.from_rows([(1,), (0,)]))


def test_matrix_self_dual_gcd_prune():
    a = IntMatrix.from_rows([(1, 0), (0, 2)])
    b = IntMatrix.from_rows([(1, 0), (0, 1)])
    assert matrix_self_dual(a, b) is None


def test_matrix_self_dual_rank_prune():
    a = IntMatrix.from_rows([(1, 0), (0, 1)])
    b = IntMatrix.from_rows([(1, 0), (2, 0)])
    assert matrix_self_dual(a, b) is None


@given(small_matrices(3, 2), st.integers(0, len(UNIMODULAR_2X2) - 1), st.permutations(range(3)))
@settings(max_examples=100, deadline=None)
def test_matrix_self_dual_recovers_planted_instances(a, wi, perm):
    b = (a @ UNIMODULAR_2X2[wi]).take_rows(tuple(perm))
    res = matrix_self_dual(a, b)
    assert res is not None
    p, u = res
    assert b.take_rows(p) @ u == a and u.is_unimodular()


@given(small_matrices(3, 2, 2), small_matrices(3, 2, 2))
@settings(max_examples=60, deadline=None)
def test_matrix_self_dual_vs_bounded_brute_force(a, b):
    res = matrix_self_dual(a, b)
    brute = next(
        (
            (perm, w)
            for perm in itertools.permutations(range(3))
            for w in UNIMODULAR_2X2
            if b.take_rows(perm) @ w == a
        ),
        None,
    )
    if res is not None:
        p, u = res
        assert b.take_rows(p) @ u == a and u.is_unimodular()
    if brute is not None:
        assert res is not None


# --- corank-1 charge decision against the row-order search --------------------

def abs_minors(m):
    """Sorted |det| of every cols-row submatrix, one determinant each."""
    subsets = itertools.combinations(range(m.rows), m.cols)
    return sorted(abs(m.take_rows(t).det()) for t in subsets)


def spans_corank_one(a):
    """True when a is (n+1) x n with coprime maximal minors: its rows span Z^n."""
    return a.rows == a.cols + 1 and gcd(*abs_minors(a)) == 1


def unimodular(n):
    """Products of elementary column operations and column sign flips."""
    index = st.integers(0, n - 1)
    step = st.tuples(index, index, st.integers(-2, 2), st.booleans())

    def build(steps):
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, j, k, flip in steps:
            if i != j:
                for row in u:
                    row[j] += k * row[i]
            if flip:
                for row in u:
                    row[i] = -row[i]
        return IntMatrix(n, n, u)

    return st.lists(step, max_size=6).map(build)


def planted(draw, a):
    """a @ u with its rows shuffled, for a drawn unimodular u."""
    b = a @ draw(unimodular(a.cols))
    return b.take_rows(tuple(draw(st.permutations(range(a.rows)))))


def stacked(v):
    """The identity with the row v below it; its charges are +-v_i and +-1."""
    n = len(v)
    return IntMatrix(n + 1, n, [[int(i == j) for j in range(n)] for i in range(n)] + [v])


@st.composite
def corank_one_pairs(draw):
    """(kind, a, b) with a of shape 4x3 or 5x4."""
    n = draw(st.sampled_from((3, 4)))
    kind = draw(st.sampled_from(("planted", "ties", "rank-deficient-b", "sublattice-a")))
    if kind == "ties":
        # entries of v in {-1, 0, 1} tie and negate charges; b either matches
        # or carries a signed reordering of v, which may not match
        v = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        a = stacked(v) @ draw(unimodular(n))
        if draw(st.booleans()):
            return kind, a, planted(draw, a)
        w = [x * draw(st.sampled_from((1, -1))) for x in draw(st.permutations(v))]
        return kind, a, planted(draw, stacked(w))
    a = draw(small_matrices(n + 1, n, 2))
    if kind == "planted":
        return kind, a, planted(draw, a)
    if kind == "rank-deficient-b":
        b = draw(small_matrices(n + 1, n, 2))
        rows = [row[:-1] + (row[0],) for row in b.entries]  # last column repeats the first
        return kind, a, IntMatrix(n + 1, n, rows)
    # doubling the last column leaves every maximal minor even
    scale = [[int(i == j) for j in range(n)] for i in range(n)]
    scale[-1][-1] = 2
    a = a @ IntMatrix(n, n, scale)
    b = planted(draw, a) if draw(st.booleans()) else draw(small_matrices(n + 1, n, 2))
    return kind, a, b


@given(corank_one_pairs())
@settings(max_examples=300, deadline=None)
def test_charge_decision_matches_row_order_search(case):
    kind, a, b = case
    if kind == "sublattice-a":
        assert not spans_corank_one(a)
    if kind == "ties":
        assert spans_corank_one(a)
    if kind == "rank-deficient-b":
        assert b.rank() < b.cols
    res = matrix_self_dual(a, b)
    assert res == _row_order_search(a, b)
    if res is not None:
        perm, u = res
        assert b.take_rows(perm) @ u == a and u.is_unimodular()


# --- minor-table subset search against a per-subset row-order search -----------

def per_subset_search(dv, mon):
    """First (subset, perm, u) of a plain loop over the subsets of mon, each
    decided by the row-order search once its |maximal minors|, taken one
    determinant at a time, agree with those of dv."""
    key = abs_minors(dv)
    for subset in itertools.combinations(range(mon.rows), dv.rows):
        b = mon.take_rows(subset)
        if abs_minors(b) != key:
            continue
        res = _row_order_search(dv, b)
        if res is not None:
            return (subset,) + res
    return None


@st.composite
def corank_one_searches(draw):
    """(kind, dv, mon): dv spanning of shape 3x2 or 4x3, mon of 4 to 9 rows."""
    n = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("planted", "ties", "zero-and-duplicate", "low-rank")))
    m = draw(st.integers(4, 9))
    if kind == "ties":
        # entries in {-1, 0, 1} tie and negate charges, in dv and in mon
        v = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        dv = stacked(v) @ draw(unimodular(n))
        w = [x * draw(st.sampled_from((1, -1))) for x in draw(st.permutations(v))]
        plant = planted(draw, dv if draw(st.booleans()) else stacked(w))
        rest = draw(small_matrices(m - n - 1, n, 1)).entries if m > n + 1 else ()
        rows = list(plant.entries) + list(rest)
    else:
        dv = draw(small_matrices(n + 1, n, 2))
        assume(spans_corank_one(dv))
        rows = list(draw(small_matrices(m, n, 2)).entries)
        if kind == "planted":
            rows[: n + 1] = planted(draw, dv).entries
        elif kind == "zero-and-duplicate":
            if draw(st.booleans()):
                rows[: n + 1] = planted(draw, dv).entries
            rows[-1] = (0,) * n
            rows[-2] = rows[draw(st.integers(0, m - 3))]
        else:
            rows = [row[:-1] + (row[0],) for row in rows]  # last column repeats the first
    order = draw(st.permutations(range(len(rows))))
    return kind, dv, IntMatrix.from_rows([rows[i] for i in order], n)


@given(corank_one_searches())
@settings(max_examples=250, deadline=None)
def test_table_search_matches_per_subset_search(case):
    kind, dv, mon = case
    assert spans_corank_one(dv)
    if kind == "low-rank":
        assert mon.rank() < dv.cols
    found = _search_matrix_witness(dv, mon)
    assert found == per_subset_search(dv, mon)
    if kind == "planted":
        assert found is not None
    if found is not None:
        subset, perm, u = found
        assert mon.take_rows([subset[p] for p in perm]) @ u == dv


def per_subset_table(rows, n):
    """(T, det) for every n-row subset T in lexicographic order, one Bareiss
    elimination each."""
    out = []
    for t in itertools.combinations(range(len(rows)), n):
        pivots, sign, pivot, _ = _bareiss([rows[i] for i in t], n)
        out.append((t, sign * pivot if len(pivots) == n else 0))
    return out


@st.composite
def plucker_configurations(draw):
    """(kind, rows, n): n + 1 rows of length n, n = 0..6, with entries up to
    +-10^12 and rank below n, zero rows and duplicate rows among them."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("random", "low-rank", "zero-row", "duplicate-row")))
    bound = draw(st.sampled_from((2, 10**12)))
    vectors = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    rows = [draw(vectors) for _ in range(n + 1)]
    if kind == "low-rank" and n:
        # combinations of k < n vectors
        basis = [draw(vectors) for _ in range(draw(st.integers(0, n - 1)))]
        coefficients = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
        mix = [draw(coefficients) for _ in range(n + 1)]
        rows = [[sum(c * v[j] for c, v in zip(cs, basis)) for j in range(n)] for cs in mix]
    i, j = draw(st.permutations(range(n + 1)))[:2] if n else (0, 0)
    vanish = set()  # rows over which every minor is 0
    if kind == "zero-row":
        rows[i], vanish = [0] * n, {i}
    elif kind == "duplicate-row":
        rows[i], vanish = rows[j], {i, j}
    return kind, [tuple(row) for row in rows], n, vanish


@given(plucker_configurations())
@settings(max_examples=300, deadline=None)
def test_one_elimination_table_matches_per_subset_determinants(case):
    kind, rows, n, vanish = case
    table = _minor_table(rows, n)
    assert list(table.items()) == per_subset_table(rows, n)
    if kind == "low-rank" and n:
        assert not any(table.values())
    assert all(table[t] == 0 for t in table if vanish and vanish <= set(t))


@st.composite
def corank_one_leaves(draw):
    """(kind, dv, mon): dv (n+1) x n spanning Z^n and mon its n + 1 rows in
    a planted order times a planted unimodular u."""
    kind = draw(st.sampled_from(("random", "ties", "no-unit-minor")))
    if kind == "no-unit-minor":
        # diag(p) over the all-ones row, for distinct primes p_i: its minors
        # +-prod(p) and +-prod(p) / p_i are coprime, and none is +-1
        n = draw(st.sampled_from((2, 3)))
        p = draw(st.permutations((2, 3, 5, 7)))[:n]
        rows = [[p[i] * (i == j) for j in range(n)] for i in range(n)] + [[1] * n]
        dv = IntMatrix(n + 1, n, rows) @ draw(unimodular(n))
    elif kind == "ties":
        n = draw(st.integers(1, 4))
        dv = stacked(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
        dv = dv @ draw(unimodular(n))
    else:
        n = draw(st.integers(1, 4))
        dv = draw(small_matrices(n + 1, n, 2))
        assume(spans_corank_one(dv))
    return kind, dv, planted(draw, dv)


@given(corank_one_leaves())
@settings(max_examples=250, deadline=None)
def test_corank_one_leaf_matches_right_equivalent(case):
    kind, dv, mon = case
    assert spans_corank_one(dv) and mon.rows == dv.rows
    if kind == "no-unit-minor":
        assert min(abs_minors(dv)) > 1
    found = _search_matrix_witness(dv, mon)
    assert found == per_subset_search(dv, mon)
    subset, perm, u = found
    assert subset == tuple(range(mon.rows))
    assert u == right_equivalent(dv, mon.take_rows(perm))


@pytest.mark.parametrize(
    "b",
    [
        # u = 1 on rows 0 and 1 fails on row 2
        [(1, 0), (0, 1), (1, 2)],
        # h = diag(2, 1) does not divide row 0 of a, so no integer u exists
        [(2, 0), (0, 1), (1, 1)],
    ],
)
def test_basis_change_rejects_rows_whose_charges_differ(b):
    a = IntMatrix.from_rows([(1, 0), (0, 1), (1, 1)])
    with pytest.raises(AssertionError, match="failed verification"):
        _basis_change(a, IntMatrix.from_rows(b), 2)


@st.composite
def minor_walks(draw):
    """(table, m, r, n, key): a random table of n-subset minors of range(m)
    and the |minors| key of r-subsets to find, planted from one subset or
    drawn at random, with zeros and repeated |values| throughout."""
    n = draw(st.integers(0, 3))
    m = draw(st.integers(n, 7))
    shape = draw(st.sampled_from(("any", "r == n", "r == m", "r < n")))
    if shape == "r == n":
        r = n
    elif shape == "r == m":
        r = m
    elif shape == "r < n" and n > 0:
        r = draw(st.integers(0, n - 1))
    else:
        r = draw(st.integers(0, m))
    values = st.integers(-2, 2)
    table = {t: draw(values) for t in itertools.combinations(range(m), n)}
    if draw(st.booleans()):
        s = draw(st.sampled_from(list(itertools.combinations(range(m), r))))
        key = [abs(table[t]) for t in itertools.combinations(s, n)]
    else:
        key = [abs(draw(values)) for _ in range(comb(r, n))]
    if r < n:
        table = {}  # as in the search: no r-subset has an n-row minor to read
    return table, m, r, n, key


@given(minor_walks())
@settings(max_examples=400, deadline=None)
def test_minor_walk_yields_every_matching_subset_in_order(case):
    table, m, r, n, key = case
    counts = Counter(key)
    before = dict(counts)
    walked = list(selfdual._minor_walk(table, m, r, n, counts))
    expected = [
        s for s in itertools.combinations(range(m), r)
        if sorted(abs(table[t]) for t in itertools.combinations(s, n)) == sorted(key)
    ]
    assert walked == expected
    assert dict(counts) == before  # restored


@st.composite
def general_searches(draw):
    """(kind, planted, dv, mon) for dv that is not spanning corank 1."""
    kinds = ("planted-6x4", "planted-5x3", "sublattice", "short", "low-rank-dv")
    kind = draw(st.sampled_from(kinds))
    if kind == "planted-6x4":
        dv, m = draw(small_matrices(6, 4, 2)), 8
    elif kind == "planted-5x3":
        dv, m = draw(small_matrices(5, 3, 2)), draw(st.integers(5, 7))
    elif kind == "sublattice":
        # doubling the last column leaves every maximal minor even: index 2
        n = draw(st.sampled_from((2, 3)))
        scale = [[int(i == j) for j in range(n)] for i in range(n)]
        scale[-1][-1] = 2
        dv = draw(small_matrices(n + 1, n, 2)) @ IntMatrix(n, n, scale)
        m = draw(st.integers(n + 1, 7))
    elif kind == "short":
        n = draw(st.sampled_from((3, 4)))
        dv, m = draw(small_matrices(draw(st.integers(1, n - 1)), n, 2)), draw(st.integers(n, 6))
    else:
        # the last column repeats the first, so dv has rank below n, while
        # the random rows of mon mostly raise its rank above that of dv
        n = draw(st.sampled_from((2, 3)))
        dv = draw(small_matrices(draw(st.integers(1, n + 2)), n, 2))
        dv = IntMatrix.from_rows([row[:-1] + (row[0],) for row in dv.entries], n)
        m = draw(st.integers(dv.rows + 1, dv.rows + 3))
    rows = list(draw(small_matrices(m, dv.cols, 2)).entries)
    plant = kind != "sublattice" or draw(st.booleans())
    if plant:
        rows[: dv.rows] = planted(draw, dv).entries
    order = draw(st.permutations(range(m)))
    return kind, plant, dv, IntMatrix.from_rows([rows[i] for i in order], dv.cols)


@given(general_searches())
@settings(max_examples=150, deadline=None)
def test_general_search_matches_per_subset_search(case):
    _, plant, dv, mon = case
    assert not spans_corank_one(dv)
    found = _search_matrix_witness(dv, mon)
    assert found == per_subset_search(dv, mon)
    if plant:
        assert found is not None
    if found is not None:
        subset, perm, u = found
        assert mon.take_rows([subset[p] for p in perm]) @ u == dv and u.is_unimodular()


HIGHER_RANK_MON = """\
[variety]
dv = 1 0 0; -1 0 0
[potential]
term = 1 : 0 1 0
term = 1 : 0 -1 0
term = 1 : 0 0 1
"""


def test_subset_of_higher_rank_mon_can_match():
    # mon has rank 2 and dv rank 1, yet rows 0 and 1 of mon match dv after
    # exchanging the first two coordinates
    m = parse_model(HIGHER_RANK_MON)
    dv, mon = m.variety.dv, m.mon()
    assert mon.rank() > dv.rank()
    w, reason = self_dual_witness(m)
    assert reason is None
    assert (w.monomial_subset, w.row_permutation) == ((0, 1), (0, 1))
    assert w.basis_change == IntMatrix.from_rows([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    assert w.verify(dv, mon)


# --- edge shapes ----------------------------------------------------------------

def test_zero_row_dv_matches_the_empty_subset():
    dv = IntMatrix(0, 2, [])
    mon = IntMatrix.from_rows([(1, 0), (0, 1), (2, 3)])
    assert _search_matrix_witness(dv, mon) == ((), (), IntMatrix.identity(2))
    assert matrix_self_dual(dv, dv) == ((), IntMatrix.identity(2))


def test_all_zero_dv_matches_only_zero_rows():
    dv = IntMatrix.zero(2, 2)
    mon = IntMatrix.from_rows([(1, 0), (0, 0), (2, 1), (0, 0)])
    assert _search_matrix_witness(dv, mon) == ((1, 3), (0, 1), IntMatrix.identity(2))
    assert _search_matrix_witness(dv, mon.take_rows((0, 1, 2))) is None


@pytest.mark.parametrize("rows", range(5))
def test_zero_columns(rows):
    # with n = 0 every row is zero and the one minor, the empty determinant,
    # is 1, so a 1 x 0 dv takes the charge path and the others the row orders
    dv = IntMatrix(rows, 0, [()] * rows)
    mon = IntMatrix(3, 0, [()] * 3)
    found = _search_matrix_witness(dv, mon)
    if rows > mon.rows:
        assert found is None
    else:
        assert found == (tuple(range(rows)), tuple(range(rows)), IntMatrix(0, 0, []))


@pytest.mark.parametrize(
    "dv, mon, subset",
    [
        # spanning corank 1: the charge path
        ([(1, 0), (-1, 2), (0, 1)], [(0, 0), (0, 1), (1, 0), (0, 1), (-1, 2)], (1, 2, 4)),
        # index 2: the row-order path
        ([(1, 0), (1, 2)], [(0, 0), (1, 2), (1, 2), (1, 0)], (1, 3)),
    ],
    ids=["corank-one", "sublattice"],
)
def test_zero_and_duplicate_mon_rows(dv, mon, subset):
    dv, mon = IntMatrix.from_rows(dv), IntMatrix.from_rows(mon)
    found = _search_matrix_witness(dv, mon)
    assert found == per_subset_search(dv, mon)
    assert found[0] == subset


# --- search effort ------------------------------------------------------------

@pytest.fixture
def right_equivalent_calls(monkeypatch):
    calls = []
    original = selfdual.right_equivalent

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(selfdual, "right_equivalent", counted)
    return calls


DENSE_A = IntMatrix.from_rows([
    (2, 1, 3, -3), (3, -3, -2, 2), (-3, -1, -3, -1), (1, 2, 3, 1),
    (3, 1, 1, 3), (2, 1, -2, -1), (-3, -3, -2, 1),
])
DENSE_B = IntMatrix.from_rows([
    (-2, -1, 3, 1), (3, -1, 1, 2), (1, 2, -1, 2), (2, 1, 2, -2),
    (-1, 3, -3, -1), (2, 3, 3, -2), (3, -1, 2, 2),
])


@pytest.fixture
def minor_tables(monkeypatch):
    seen = []
    original = selfdual._minor_table

    def counted(rows, n):
        seen.append(rows)
        return original(rows, n)

    monkeypatch.setattr(selfdual, "_minor_table", counted)
    return seen


def test_dense_pair_without_match_makes_no_leaf_test(right_equivalent_calls):
    # every row gcd is 1 and both ranks are 4, so only the maximal-minor
    # multisets tell these apart before the 5,040 row orders would
    a, b = DENSE_A, DENSE_B
    assert set(a.row_gcds()) == set(b.row_gcds()) == {1}
    assert a.rank() == b.rank() == 4
    assert matrix_self_dual(a, b) is None
    assert right_equivalent_calls == []


def test_row_gcd_mismatch_makes_no_leaf_test(right_equivalent_calls):
    doubled = IntMatrix.from_rows([tuple(2 * x for x in DENSE_B[0])] + list(DENSE_B.entries[1:]))
    assert matrix_self_dual(DENSE_A, doubled) is None
    # both determinants are -2, so only the row gcds tell these apart
    a, b = IntMatrix.from_rows([(2, 0), (0, -1)]), IntMatrix.from_rows([(1, 1), (1, -1)])
    assert abs_minors(a) == abs_minors(b) and a.row_gcds() != b.row_gcds()
    assert matrix_self_dual(a, b) is None
    assert right_equivalent_calls == []


@pytest.fixture
def eliminations(monkeypatch):
    """Counts of selfdual's own Bareiss eliminations and of IntMatrix.rank calls."""
    counts = Counter()
    original, rank = selfdual._bareiss, IntMatrix.rank

    def counted(rows, cols):
        counts["bareiss"] += 1
        return original(rows, cols)

    def counted_rank(m):
        counts["rank"] += 1
        return rank(m)

    monkeypatch.setattr(selfdual, "_bareiss", counted)
    monkeypatch.setattr(IntMatrix, "rank", counted_rank)
    return counts


LINE_MON = bundle_model([-20]).mon()


@pytest.mark.parametrize(
    "dv, mon, bareiss, ranks",
    [
        # 6 x 4 (corank 2): 7 subsets through the row-order path; one
        # elimination per minor, C(6, 4) + C(7, 4), and the two ranks
        (IntMatrix.from_rows(DENSE_A.entries[:6]), DENSE_B, 15 + 35, 2),
        # O(-20): 1,330 subsets through the charge path; dv's 3 minors from
        # one elimination of its transpose, mon's C(21, 2) one at a time
        (bundle_over_p1([-20]).dv, LINE_MON, 1 + comb(LINE_MON.rows, 2), 2),
        # two 4 x 3 tables, one elimination each, stand in for both ranks
        (bundle_over_p1([-1, -1]).dv, bundle_over_p1([0, -2]).dv, 2, 0),
        # O(1) + O(-3): mon's table is all zero, so its rank is below dv's
        (bundle_over_p1([1, -3]).dv, bundle_model([1, -3]).mon(), 2, 0),
    ],
    ids=["corank-two", "line-bundle", "corank-one-pair", "rank-below"],
)
def test_search_takes_two_minor_tables(dv, mon, bareiss, ranks, minor_tables, eliminations):
    assert _search_matrix_witness(dv, mon) is None
    assert minor_tables == [dv.entries, mon.entries]
    assert eliminations == Counter(bareiss=bareiss, rank=ranks)


def test_short_dv_builds_no_mon_minor_table(minor_tables):
    # a 1 x 4 dv has no 4-row minor, so no subset reads a table of mon's
    # C(14, 4) = 1,001 minors; only dv's own (empty) table is taken
    mon = IntMatrix.from_rows(DENSE_A.entries + DENSE_B.entries)
    dv = IntMatrix.from_rows([(0, 2, -1, 3)])
    found = _search_matrix_witness(dv, mon)
    assert minor_tables == [dv.entries]
    assert found == per_subset_search(dv, mon)
    subset, perm, u = found
    assert mon.take_rows(subset).take_rows(perm) @ u == dv and u.is_unimodular()


@pytest.fixture
def hermite_transforms(monkeypatch):
    calls = []
    original = selfdual.hnf_col_transform

    def counted(a, **tracked):
        calls.append(a)
        return original(a, **tracked)

    monkeypatch.setattr(selfdual, "hnf_col_transform", counted)
    return calls


@pytest.mark.parametrize("degrees", [(-2,), (-1, -1), (0, 0, 0, -2), (0, 0, 0, -1, -1)])
def test_self_dual_bundle_makes_one_leaf_test(degrees, right_equivalent_calls, hermite_transforms):
    # the leaf solves for U from one Hermite form of n rows, not two of n + 1
    verdict = model_self_dual(degrees)
    assert verdict.self_dual
    assert right_equivalent_calls == []
    assert [h.rows for h in hermite_transforms] == [verdict.witness.basis_change.rows]


def test_line_bundle_sweep_makes_one_leaf_test(right_equivalent_calls, hermite_transforms):
    verdicts = sweep_line_bundles(20)
    assert [v.degrees for v in verdicts if v.self_dual] == [(-2,)]
    assert right_equivalent_calls == []
    assert len(hermite_transforms) == 1


def test_line_bundle_takes_each_minor_once(monkeypatch):
    # the subset loop reads every charge from one table of 2-row minors of
    # mon, not from 3 determinants per 3-row subset; dv's 3 minors come
    # from one elimination of its 2 x 3 transpose
    calls = []
    original = selfdual._bareiss

    def counted(rows, cols):
        calls.append(tuple(map(tuple, rows)))
        return original(rows, cols)

    monkeypatch.setattr(selfdual, "_bareiss", counted)
    dv, mon = bundle_over_p1([-20]).dv, bundle_model([-20]).mon()
    assert model_self_dual((-20,)).failure == "no-matrix-witness"
    pairs = list(itertools.combinations(mon.entries, 2))
    assert len(calls) == 1 + comb(mon.rows, 2) < 3 * comb(mon.rows, 3)
    assert calls[0] == tuple(zip(*dv.entries))
    assert calls[1:] == pairs


def test_line_bundle_sweep_cuts_prefixes(monkeypatch):
    # reading 3 minors for each of the 7,315 3-row subsets would take 21,945
    # reads; the walk cuts a prefix at its first minor outside dv's multiset
    reads = []

    class CountedTable(dict):
        def __getitem__(self, t):
            reads.append(t)
            return dict.__getitem__(self, t)

    original = selfdual._minor_table
    monkeypatch.setattr(selfdual, "_minor_table", lambda rows, n: CountedTable(original(rows, n)))
    verdicts = sweep_line_bundles(20)
    assert [v.degrees for v in verdicts if v.self_dual] == [(-2,)]
    subsets = sum(comb(bundle_model((-k,)).mon().rows, 3) for k in range(21))
    assert 3 * subsets == 21_945
    assert len(reads) == 2_682


# --- K reconstruction ---------------------------------------------------------

def test_k_reconstruction_for_the_two_self_dual_cases():
    for degrees in ([-2], [-1, -1]):
        k = k_reconstruction_class(bundle_over_p1(degrees))
        assert k is not None
        assert k.values() == (ComplexQ(0, 1),)


def test_k_reconstruction_none_when_every_sign_fails():
    # rows (1), (-1), (2): either the interior dies or a row is dropped,
    # for every choice of signs on the two free generators
    x = ToricData(1, ("a", "b", "c"), IntMatrix.from_rows([(1,), (-1,), (2,)]))
    assert k_reconstruction_class(x) is None


def keeps_every_row(dv, offset):
    """The general K step for one lift: the facet pass keeps every row."""
    try:
        _, report = from_linear_data(dv, offset)
    except (NotKopasepticError, EmptyInteriorError):
        return False
    return report.is_identity()


def general_k_class(variety):
    """k_reconstruction_class as the facet pass decides it, for every shape."""
    group = variety.chow_group()
    for signs in itertools.product((1, -1), repeat=group.free_rank):
        k = canonical_class(group, [ComplexQ(0, s) for s in signs])
        if keeps_every_row(variety.dv, k.im_lift()):
            return k
    return None


def test_charge_k_step_matches_facets_on_bundles():
    # every degree tuple with up to 3 summands in [-5, 3], both signs of K
    tried = 0
    for c in (1, 2, 3):
        for degrees in itertools.product(range(-5, 4), repeat=c):
            x = bundle_over_p1(degrees)
            group = x.chow_group()
            q = _charge_row(x.dv, group)
            assert q == (1, 1) + degrees
            for sign in (1, -1):
                lift = canonical_class(group, [ComplexQ(0, sign)]).im_lift()
                assert _charge_k_step(q, lift) == keeps_every_row(x.dv, lift)
                tried += 1
    assert tried == 2 * 819


@st.composite
def corank_one_systems(draw):
    """(dv, offset): an (n+1) x n dv with small entries and rational offsets,
    sometimes with a duplicate row, a zero charge (a row that is the sum of
    two others), a non-primitive row, or beta = q . offset forced to 0."""
    n = draw(st.integers(1, 4))
    rows = [draw(st.tuples(*[st.integers(-2, 2)] * n)) for _ in range(n + 1)]
    rows = [[x // (gcd(*row) or 1) for x in row] for row in rows]
    kind = draw(st.sampled_from(["plain", "duplicate", "zero-charge", "non-primitive"]))
    if kind == "duplicate":
        rows[1] = list(rows[0])
    elif kind == "zero-charge" and n >= 2:
        rows[2] = [x + y for x, y in zip(rows[0], rows[1])]
    elif kind == "non-primitive":
        rows[0] = [2 * x for x in rows[0]]
    dv = IntMatrix.from_rows(rows)
    assume(dv.rank() == n)
    offset = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in range(n + 1)]
    if kind == "duplicate" and draw(st.booleans()):
        offset[1] = offset[0]
    if draw(st.booleans()):
        q = cokernel(dv).projection[0]
        i = next(i for i, x in enumerate(q) if x)
        offset[i] = -sum(x * y for k, (x, y) in enumerate(zip(q, offset)) if k != i) / q[i]
    return dv, tuple(offset)


@given(corank_one_systems())
@settings(max_examples=400, deadline=None)
def test_charge_k_step_matches_facets_on_random_systems(case):
    dv, offset = case
    group = cokernel(dv)
    x = ToricData(dv.cols, tuple("D%d" % i for i in range(dv.rows)), dv)
    assert k_reconstruction_class(x) == general_k_class(x)
    q = _charge_row(dv, group)
    if q is None:
        # a zero or non-primitive row leaves the K step to the facet pass
        assert any(g != 1 for g in dv.row_gcds())
        return
    assert q == tuple(group.projection[0])
    assert _charge_k_step(q, offset) == keeps_every_row(dv, offset)


@pytest.mark.parametrize(
    "rows, values",
    [
        # q = (1, -1, -1): K = i drops row 0, K = -i keeps every row
        ([(1, 1), (1, 0), (0, 1)], (ComplexQ(0, -1),)),
        # q = (1, -1): either sign drops a row
        ([(1,), (1,)], None),
    ],
    ids=["second-sign", "no-sign"],
)
def test_charge_k_step_picks_the_sign_facets_picks(rows, values):
    dv = IntMatrix.from_rows(rows)
    x = ToricData(dv.cols, tuple("D%d" % i for i in range(dv.rows)), dv)
    assert _charge_row(dv, x.chow_group()) is not None
    k = k_reconstruction_class(x)
    assert k == general_k_class(x)
    assert (None if k is None else k.values()) == values


@pytest.mark.parametrize(
    "rows, offset, reason",
    [
        # q = (1, 1, 1) and beta = -1: every slack vector sums to -1
        ([(1, 0), (0, 1), (-1, -1)], (-1, 0, 0), EmptyInteriorError),
        # q = (1, 1, -1) and beta = -1: x >= 0 and y >= 0 imply x + y >= -1
        ([(1, 0), (0, 1), (1, 1)], (0, 0, 1), "dropped"),
        # the same halfspace twice: facets keeps the first only
        ([(1,), (1,)], (Fraction(1, 2), Fraction(1, 2)), "duplicate"),
    ],
    ids=["empty-interior", "dropped-row", "duplicate-row"],
)
def test_charge_k_step_planted_failures(rows, offset, reason):
    dv = IntMatrix.from_rows(rows)
    q = _charge_row(dv, cokernel(dv))
    assert q is not None
    assert _charge_k_step(q, offset) is False
    if reason is EmptyInteriorError:
        with pytest.raises(EmptyInteriorError):
            from_linear_data(dv, offset)
    else:
        _, report = from_linear_data(dv, offset)
        assert report.irredundant == ((0, 1) if reason == "dropped" else (0,))


def test_charge_k_step_keeps_a_zero_charge_row_at_beta_zero():
    # q = (1, 1, -1, -1, 0) and beta = 0: row 4 is cut by s = -e_4, the one
    # case where the facet rule's (beta + q_i) q_j is 0
    dv = IntMatrix.from_rows([(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, -1, 0), (0, 0, 0, 1)])
    q = _charge_row(dv, cokernel(dv))
    assert sorted(map(abs, q)) == [0, 1, 1, 1, 1] and q[4] == 0
    offset = (0, 0, 0, 0, 1)
    assert _charge_k_step(q, offset) is True
    assert keeps_every_row(dv, offset)


def test_charge_row_replays_the_charge_vector():
    dv = bundle_over_p1([-2]).dv
    group = cokernel(dv)
    assert _charge_row(dv, group) == (1, 1, -2)
    wrong = dataclasses.replace(group, projection=IntMatrix.from_rows([(1, 1, 1)]))
    with pytest.raises(AssertionError):
        _charge_row(dv, wrong)
    other = cokernel(bundle_over_p1([-3]).dv)
    with pytest.raises(GroupMismatchError):
        k_reconstruction_class(bundle_over_p1([-2]), other)


def test_k_step_holds_for_every_bundle_at_the_first_sign(monkeypatch):
    # q = (1, 1, a_1, ..., a_c) and K = i give beta = 1 > 0: the two charges
    # equal to 1 keep the interior and every row, so no facet pass runs
    def no_facets(*args, **kwargs):
        raise AssertionError("the facet pass ran")

    monkeypatch.setattr(selfdual, "from_linear_data", no_facets)
    for c in (1, 2, 3, 4):
        for degrees in itertools.product(range(-6, 7), repeat=c):
            x = bundle_over_p1(degrees)
            group = x.chow_group()
            # bundle_model's default K
            assert k_reconstruction_class(x, group) == canonical_class(group, [ComplexQ(0, 1)])


@pytest.mark.parametrize(
    "verdicts",
    [lambda: classify_cy(4, 4), lambda: sweep_rank_two(6)],
    ids=["classify_cy(4,4)", "sweep_rank_two(6)"],
)
def test_yes_witnesses_replay_their_k_class_through_facets(verdicts):
    # verify(check_k=True) runs the facet pass, so it replays the K class the
    # charge decision returned without using it
    yes = [v for v in verdicts() if v.self_dual]
    assert yes
    for v in yes:
        m = bundle_model(v.degrees)
        assert v.witness.k_class == m.k_class
        assert v.witness.verify(m.variety.dv, m.mon(), check_k=True)


# --- verdicts -----------------------------------------------------------------

def test_verdict_cotangent_case():
    v = model_self_dual([-2])
    assert v.canonical_trivial and v.polystable and v.strong_cy and v.self_dual
    assert v.sum_degree == -2
    assert v.failure is None
    w = v.witness
    assert w.verify(bundle_over_p1([-2]).dv, bundle_model([-2]).mon())


def test_verdict_conifold_case():
    v = model_self_dual((-1, -1))
    assert v.strong_cy and v.self_dual


def test_verdict_closing_remark_cases():
    # matrix-level self-dual without strong CY
    for degrees in ([-2, 0], [-1, -1, 0], [-2, 0, 0]):
        v = model_self_dual(degrees)
        assert v.self_dual, degrees
        assert v.canonical_trivial and not v.polystable and not v.strong_cy
    v = model_self_dual([-3, 1])
    assert not v.polystable and not v.self_dual


def test_verdict_failure_reasons():
    assert model_self_dual([-3]).failure == "no-matrix-witness"
    assert model_self_dual([1]).failure == "not-enough-monomials"
    assert model_self_dual([-4]).failure == "no-matrix-witness"


def test_verdict_keeps_a_given_degree_tuple():
    # a sweep keeps every verdict: a tuple of ints is not copied, and a
    # verdict carries no per-instance dict
    degrees = (-1, -1)
    v = model_self_dual(degrees)
    assert v.degrees is degrees and not hasattr(v, "__dict__")
    assert model_self_dual([-1, -1]).degrees == degrees
    coerced = model_self_dual((True, -1.0)).degrees
    assert coerced == (1, -1) and all(type(a) is int for a in coerced)


def test_verdict_stores_only_the_search_outcome():
    # the degree flags are read off the degrees, so a NO verdict is an
    # object of four slots: 64 bytes on 64-bit CPython, where seven took 88
    class FourSlots:
        __slots__ = ("a", "b", "c", "d")

    v = model_self_dual((-3,))
    assert selfdual.BundleVerdict.__slots__ == ("degrees", "self_dual", "witness", "failure")
    assert sys.getsizeof(v) == sys.getsizeof(FourSlots())
    if sys.maxsize > 2**32:
        assert sys.getsizeof(v) == 64
    assert (v.canonical_trivial, v.polystable, v.strong_cy) == (False, True, False)
    flipped = dataclasses.replace(v, self_dual=True, witness=None)
    assert flipped.self_dual and flipped.degrees is v.degrees


def test_verdict_degrees_must_be_nonempty():
    with pytest.raises(ValidationError):
        model_self_dual([])


def test_self_dual_witness_verifies_with_k():
    m = bundle_model([-1, -1])
    w, reason = self_dual_witness(m)
    assert reason is None
    assert w.verify(m.variety.dv, m.mon(), check_k=True)
    assert w.selected_rows() == tuple(w.monomial_subset[p] for p in w.row_permutation)


@pytest.mark.parametrize(
    "change",
    [
        {"basis_change": IntMatrix.identity(3)},
        {"monomial_subset": (0, 1, 7)},
        {"row_permutation": (0, 2, 3)},
        {"monomial_subset": (2, 1, 0), "row_permutation": (2, 0, 1)},
    ],
    ids=["basis-change-shape", "subset-out-of-range", "not-a-permutation", "subset-not-increasing"],
)
def test_verify_rejects_malformed_witness(change):
    dv, mon = bundle_over_p1([-2]).dv, bundle_model([-2]).mon()
    witness = model_self_dual((-2,)).witness
    assert witness.verify(dv, mon)
    assert (witness.monomial_subset, witness.row_permutation) == ((0, 1, 2), (0, 2, 1))
    w = dataclasses.replace(witness, **change)
    assert w.verify(dv, mon) is False
    assert w.verify(dv, mon, check_k=False) is False


def test_self_dual_witness_reason_strings():
    assert self_dual_witness(bundle_model([2]))[1] == "not-enough-monomials"
    assert self_dual_witness(bundle_model([-5]))[1] == "no-matrix-witness"


# --- sweeps -------------------------------------------------------------------

def test_sweep_line_bundles_hits_only_twist_two():
    verdicts = sweep_line_bundles(10)
    assert [v.degrees for v in verdicts] == [(-k,) for k in range(11)]
    assert [v.degrees for v in verdicts if v.self_dual] == [(-2,)]
    assert all(v.polystable for v in verdicts)


def test_sweep_rank_two_hits_minus_one_and_zero():
    verdicts = sweep_rank_two(8)
    assert [v.degrees for v in verdicts] == [(k, -k - 2) for k in range(-1, 9)]
    assert [v.degrees for v in verdicts if v.self_dual] == [(-1, -1), (0, -2)]
    assert all(v.canonical_trivial for v in verdicts)


def test_classify_cy_small():
    verdicts = classify_cy(2, 2)
    assert [v.degrees for v in verdicts] == [(-2,), (-1, -1), (0, -2)]
    assert all(v.sum_degree == -2 for v in verdicts)
    strong = [v.degrees for v in verdicts if v.strong_cy and v.self_dual]
    assert strong == [(-2,), (-1, -1)]


def test_classify_cy_enumeration_is_complete():
    verdicts = classify_cy(3, 4)
    seen = {v.degrees for v in verdicts}
    for rank in (1, 2, 3):
        for tup in itertools.combinations_with_replacement(range(4, -5, -1), rank):
            if sum(tup) == -2:
                assert tuple(tup) in seen


def test_classify_cy_validates_rank():
    with pytest.raises(ValidationError):
        classify_cy(0, 3)


# --- products -----------------------------------------------------------------

@pytest.mark.parametrize("degrees", [[-2], [-1, -1], [-3], [-2, 0]])
def test_product_with_dual_is_matrix_self_dual(degrees):
    m = bundle_model(degrees)
    total, witness = product_self_dual(m)
    assert witness.verify(total.variety.dv, total.mon(), check_k=False)


def test_product_witness_block_structure():
    m = bundle_model([-2])
    total, w = product_self_dual(m)
    dual = dualize(linear_data(m))
    r1, r2 = m.variety.dv.rows, dual.variety.dv.rows
    s1 = len(m.potential.terms)
    assert total.variety.dv.rows == r1 + r2
    assert w.monomial_subset == tuple(range(s1 + r1))[: len(w.monomial_subset)]
    assert w.basis_change.rows == m.variety.rank + dual.variety.rank
