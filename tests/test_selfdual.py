"""Self-duality: matrix search, K reconstruction, verdicts, sweeps, products."""

import dataclasses
import gc
import itertools
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lgdual import lgmodel, linalg, selfdual
from lgdual.complexq import ComplexQ
from lgdual.errors import (
    EmptyInteriorError,
    GroupMismatchError,
    NotKopasepticError,
    ShapeMismatchError,
    ValidationError,
)
from lgdual.lgmodel import (
    ChowClass,
    LGModel,
    Superpotential,
    bundle_model,
    canonical_class,
    dualize,
    linear_data,
)
from lgdual.linalg import ChowGroup, IntMatrix, _bareiss, cokernel, right_equivalent
from lgdual.modelfile import parse_model
from lgdual.selfdual import (
    _basis_change,
    _charge_k_step,
    _charge_row,
    _charges,
    _Minors,
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
from lgdual.toric import (
    BundleSpec,
    ToricData,
    bundle_over_p1,
    from_linear_data,
    projective_line,
    split_bundle_total_space,
)
import charge_k_oracle
from row_order_oracle import _row_order_search

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


def oracle_key(found, dv):
    """found as it must equal the oracle's answer: whole when dv has a nonzero
    maximal minor, so u is unique, else without u, which callers replay."""
    return found if found is None or any(abs_minors(dv)) else found[:-1]


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
    assert oracle_key(res, a) == oracle_key(_row_order_search(a, b), a)
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
    table = _Minors(rows, n)
    # one row per (n-1)-subset of the first n rows, all filled at construction
    assert sorted(table) == list(itertools.combinations(range(n), n - 1)) if n else not table
    expected = per_subset_table(rows, n)
    read = list(zip([t for t, _ in expected], table.minors(range(n + 1))))
    assert read == expected
    # the cofactor vector that fills the table is the rows' charge vector
    assert table.charges == (list(_charges([x for _, x in read])) if n else None)
    assert len(table) == n  # the reads built no row
    if kind == "low-rank" and n:
        assert not any(map(any, table.values()))
    assert all(x == 0 for t, x in read if vanish and vanish <= set(t))


@st.composite
def minor_configurations(draw):
    """(rows, n, low, need): m rows of length n, n = 0..5 and m = 0..9 other
    than n + 1, with entries up to +-10^12, where every minor over need or
    more of the rows low is 0.  The low-rank-head kind puts n - 1 or more rows
    in the span of fewer than n - 1 vectors, so the heads among them have
    rank below n - 1 and no cofactors; zero and duplicate rows are there."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 9).filter(lambda m: m != n + 1))
    kind = draw(st.sampled_from(("random", "low-rank-head", "zero-row", "duplicate-row")))
    bound = draw(st.sampled_from((2, 10**12)))
    vectors = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    rows = [draw(vectors) for _ in range(m)]
    order = draw(st.permutations(range(m)))
    low, need = set(), 1
    if kind == "low-rank-head" and 2 <= n and n - 1 <= m:
        basis = [draw(vectors) for _ in range(draw(st.integers(0, n - 2)))]
        coefficients = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
        low, need = set(order[: draw(st.integers(n - 1, m))]), n - 1
        for i in low:
            cs = draw(coefficients)
            rows[i] = [sum(c * v[j] for c, v in zip(cs, basis)) for j in range(n)]
    elif kind == "zero-row" and m >= 1:
        rows[order[0]], low = [0] * n, {order[0]}
    elif kind == "duplicate-row" and m >= 2:
        rows[order[0]], low, need = rows[order[1]], set(order[:2]), 2
    return [tuple(row) for row in rows], n, low, need


@given(minor_configurations(), st.data())
@settings(max_examples=400, deadline=None)
def test_minors_on_demand_match_per_subset_determinants(case, data):
    rows, n, low, need = case
    expected = per_subset_table(rows, n)
    table = _Minors(rows, n)
    assert isinstance(table, selfdual._Minors) and not table
    shuffled = data.draw(st.permutations(expected))
    assert [(t, *table.minors(t)) for t, _ in shuffled] == shuffled
    # one row per head read, and a second read returns the kept value
    assert sorted(table) == sorted({t[:-1] for t, _ in expected}) if n else not table
    assert [(t, *table.minors(t)) for t, _ in expected] == expected
    assert all(x == 0 for t, x in expected if len(low & set(t)) >= need)


def test_p1_minor_lemma():
    # the rows of mon over the line are (j, e_i), 0 <= j <= -a_i: c + 1 of
    # them have a nonzero minor only when they cover every summand, one of
    # them twice, and then |det| = |j - j'| for that summand's two rows
    checked = 0
    for c in range(1, 4):
        for degrees in itertools.combinations_with_replacement(range(0, -5, -1), c):
            mon = bundle_model(degrees).mon()
            table = _Minors(mon.entries, c + 1)
            for t in itertools.combinations(range(mon.rows), c + 1):
                summand = {i: mon[i][1:].index(1) for i in t}
                covered = Counter(summand.values())
                if len(covered) == c:
                    j, k = (mon[i][0] for i in t if covered[summand[i]] == 2)
                    assert abs(table[t[:-1]][t[-1]]) == abs(j - k) > 0
                else:
                    assert table[t[:-1]][t[-1]] == 0
                checked += 1
    assert checked == 9_042


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
    assert _basis_change(a, IntMatrix.from_rows(b), (0, 1)) is None


def test_search_raises_when_matching_charges_have_no_basis_change(monkeypatch):
    # equal charges up to sign always give a u, so a failed solve at a
    # spanning corank-1 order is a fault, not a NO verdict
    monkeypatch.setattr(selfdual, "_basis_change", lambda a, b, keep: None)
    with pytest.raises(AssertionError, match="charges match"):
        model_self_dual((-2,))


def fraction_det(rows):
    """det of a square list of integer rows by Gaussian elimination over
    Fractions, apart from every elimination in lgdual; 1 for no rows."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p], det = a[p], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


@st.composite
def minor_rows(draw, max_m, max_n, entries):
    """(rows, n): m <= max_m integer rows of length n <= max_n, with m = n + 1
    (the table filled at construction) drawn as often as any other m."""
    n = draw(st.integers(0, max_n))
    m = draw(st.just(n + 1) | st.integers(0, max_m))
    vectors = st.lists(entries, min_size=n, max_size=n).map(tuple)
    return draw(st.lists(vectors, min_size=m, max_size=m)), n


@given(minor_rows(9, 4, st.integers(-10**6, 10**6) | st.integers(-2, 2)), st.data())
@settings(max_examples=400, deadline=None)
def test_minor_reads_match_fraction_determinants(case, data):
    # every read of a table, from a head's row or through minors, in random
    # order, is the determinant of its rows
    rows, n = case
    table = _Minors(rows, n)
    subsets = list(itertools.combinations(range(len(rows)), n))
    dets = [fraction_det([rows[i] for i in t]) for t in subsets]
    for t, det in data.draw(st.permutations(list(zip(subsets, dets)))):
        assert table.minors(t) == [det]
        if t:
            assert table[t[:-1]][t[-1]] == det
    assert table.minors(range(len(rows))) == dets


@st.composite
def minor_walks(draw):
    """(rows, m, r, n, key): m integer rows of length n and the |minors| key
    of r-subsets to find, planted from one subset or drawn at random; entries
    in [-2, 2] give zeros and repeated |minors| throughout."""
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
    vectors = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(vectors, min_size=m, max_size=m))
    if draw(st.booleans()):
        s = draw(st.sampled_from(list(itertools.combinations(range(m), r))))
        key = [abs(fraction_det([rows[i] for i in t])) for t in itertools.combinations(s, n)]
    else:
        key = [draw(st.integers(0, 4)) for _ in range(comb(r, n))]
    return rows, m, r, n, key


@given(minor_walks())
@settings(max_examples=400, deadline=None)
def test_minor_walk_yields_every_matching_subset_in_order(case):
    rows, m, r, n, key = case
    # as in the search: with r < n no subset has an n-row minor to read
    table = _Minors(rows, n) if r >= n else {}
    counts = Counter(key)
    before = dict(counts)
    walked = list(selfdual._minor_walk(table, m, r, n, counts))
    expected = [
        s for s in itertools.combinations(range(m), r)
        if sorted(
            abs(fraction_det([rows[i] for i in t])) for t in itertools.combinations(s, n)
        ) == sorted(key)
    ]
    assert walked == expected
    assert dict(counts) == before  # restored


@st.composite
def square_tables(draw):
    """(rows, n, key): n + 1 rows in Z^n, n <= 4, with entries in [-3, 3],
    and n + 1 |minor| values: the rows' own, one of them raised, or random."""
    n = draw(st.integers(0, 4))
    rows = [tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))) for _ in range(n + 1)]
    kind = draw(st.sampled_from(["own", "raised", "random"]))
    if kind == "random":
        return rows, n, [draw(st.integers(0, 4)) for _ in range(n + 1)]
    key = [abs(fraction_det([rows[i] for i in t])) for t in itertools.combinations(range(n + 1), n)]
    if kind == "raised":
        key[draw(st.integers(0, n))] += draw(st.integers(1, 2))
    return rows, n, key


@given(square_tables())
@settings(max_examples=400, deadline=None)
def test_square_walk_takes_the_subsets_the_minor_walk_yields(case):
    # two (n + 1)-row matrices have one subset, all rows, which the search
    # reads off the table's charges instead of walking it index by index
    rows, n, key = case
    counts = Counter(key)
    walked = list(selfdual._minor_walk(_Minors(rows, n), n + 1, n + 1, n, counts))
    assert selfdual._square_walk(_Minors(rows, n), n + 1, counts) == walked
    assert dict(counts) == dict(Counter(key))


@st.composite
def square_pairs(draw):
    """(dv, mon): both (n+1) x n, n <= 5, entries in [-3, 3]; for n >= 1, in
    half the draws mon is dv U with its rows shuffled, U unimodular."""
    n = draw(st.integers(0, 5))
    dv = draw(small_matrices(n + 1, n, 3))
    return dv, planted(draw, dv) if n and draw(st.booleans()) else draw(small_matrices(n + 1, n, 3))


@given(square_pairs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_square_search_matches_the_row_order_oracle(case, with_group):
    # with_group passes dv's class group, which gives dv's rank and, for a
    # spanning dv, its minors; the oracle decides the one subset, all of mon,
    # once its |minors| agree with dv's
    dv, mon = case
    found = _search_matrix_witness(dv, mon, cokernel(dv) if with_group else None)
    assert oracle_key(found, dv) == oracle_key(per_subset_search(dv, mon), dv)
    if found is not None:
        subset, perm, u = found
        assert subset == tuple(range(mon.rows))
        assert mon.take_rows(perm) @ u == dv and u.is_unimodular()


@st.composite
def general_searches(draw):
    """(kind, planted, dv, mon) for dv that is not spanning corank 1."""
    kinds = ("planted-6x4", "planted-7x4", "planted-5x3", "sublattice", "short", "low-rank-dv")
    kind = draw(st.sampled_from(kinds))
    if kind == "planted-6x4":
        dv, m = draw(small_matrices(6, 4, 2)), 8
    elif kind == "planted-7x4":
        # corank 3; rows scaled into three gcd classes (mostly 3, 2 and 2
        # rows) keep the oracle's Hermite pairs to a few dozen row orders
        dv, m = draw(small_matrices(7, 4, 2)), 9
        dv = IntMatrix.from_rows(
            [[f * x for x in row] for f, row in zip((1, 1, 1, 2, 2, 3, 3), dv.entries)], 4
        )
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
    assert oracle_key(found, dv) == oracle_key(per_subset_search(dv, mon), dv)
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
    dv = IntMatrix.from_rows([(0, 0), (0, 0)])
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
    # selfdual does not bind the name, so any call goes through linalg
    assert not hasattr(selfdual, "right_equivalent")
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return right_equivalent(a, b)

    monkeypatch.setattr(linalg, "right_equivalent", counted)
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
    original = selfdual._Minors

    def counted(rows, n):
        seen.append(rows)
        return original(rows, n)

    monkeypatch.setattr(selfdual, "_Minors", counted)
    return seen


def test_dense_pair_without_match_makes_no_leaf_test(right_equivalent_calls):
    # every row gcd is 1 and both ranks are 4, so only the maximal-minor
    # multisets tell these apart before the 5,040 row orders would
    a, b = DENSE_A, DENSE_B
    assert set(a.row_gcds()) == set(b.row_gcds()) == {1}
    assert a.rank() == b.rank() == 4
    assert matrix_self_dual(a, b) is None
    assert right_equivalent_calls == []


def test_reversed_dense_rows_take_no_hermite_pair(right_equivalent_calls):
    # every row gcd is 1, so only the minors of the placed rows narrow the
    # 5,040 row orders; dv has a nonzero minor, so one solve decides the order
    reversed_rows = DENSE_A.take_rows(tuple(reversed(range(DENSE_A.rows))))
    perm, u = matrix_self_dual(DENSE_A, reversed_rows)
    assert perm == (6, 5, 4, 3, 2, 1, 0)
    assert u == IntMatrix.identity(4)
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
    """Counts of selfdual's own eliminations, one per cofactor vector, and of
    IntMatrix.rank calls."""
    counts = Counter()
    original, rank = selfdual._cofactors, IntMatrix.rank

    def counted(rows, cols):
        counts["bareiss"] += 1
        return original(rows, cols)

    def counted_rank(m):
        counts["rank"] += 1
        return rank(m)

    monkeypatch.setattr(selfdual, "_cofactors", counted)
    monkeypatch.setattr(IntMatrix, "rank", counted_rank)
    return counts


LINE_MON = bundle_model([-20]).mon()


@pytest.mark.parametrize(
    "dv, mon, bareiss, ranks",
    [
        # 6 x 4 (corank 2): 7 subsets through the row-order path; one
        # elimination per head, the first 3 rows of a minor read: dv's
        # C(5, 3), as all its minors are read, and mon's C(4, 3) within the
        # rows 0..3 the walk reads, not C(6, 4) + C(7, 4); and the two ranks
        (IntMatrix.from_rows(DENSE_A.entries[:6]), DENSE_B, comb(5, 3) + comb(4, 3), 2),
        # O(-20): 1,330 subsets through the charge path; dv's 3 minors from
        # one elimination of its transpose, mon's from one elimination per
        # head row, rows 0..18, not one per pair of rows
        (bundle_over_p1([-20]).dv, LINE_MON, 1 + 19, 2),
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


@pytest.fixture
def bareiss_runs(monkeypatch):
    """Counts of every Bareiss elimination, in linalg and selfdual alike, and
    of IntMatrix.rank calls."""
    counts = Counter()
    original, rank = linalg._bareiss, IntMatrix.rank

    def counted(entries, cols):
        counts["bareiss"] += 1
        return original(entries, cols)

    def counted_rank(m):
        counts["rank"] += 1
        return rank(m)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    monkeypatch.setattr(IntMatrix, "rank", counted_rank)
    return counts


@pytest.mark.parametrize(
    "sweep, ranks, bareiss",
    [
        # 975 of the 1,025 searches end at the rank precheck, which eliminates
        # mon alone: 1,950 rank calls and 3,097 eliminations when dv's rank
        # was eliminated too; the 50 that pass it read dv's minors off the
        # class group, not from an elimination of dv (2,122 when they did)
        (lambda: classify_cy(6, 6), 975, 2_072),
        # 18 of the 21 (36 and 268 with dv eliminated, 250 with dv's minors)
        (lambda: sweep_line_bundles(20), 18, 231),
    ],
    ids=["classify_cy(6,6)", "sweep_line_bundles(20)"],
)
def test_precheck_reads_dv_rank_from_the_class_group(sweep, ranks, bareiss, bareiss_runs):
    sweep()
    assert bareiss_runs == Counter(rank=ranks, bareiss=bareiss)


def test_rank_six_yes_verdict_eliminates_each_matrix_once(bareiss_runs, monkeypatch):
    # one elimination each: dv's transpose in cokernel, whose charge row also
    # gives dv's minors; mon's transpose, whose cofactors fill its minor
    # table and give its charges; the basis change's det, and _charge_row's
    # replayed minor of dv (5 and 2 when dv's minors were eliminated again)
    original, cofactors = selfdual._cofactors, []

    def counted(rows, cols):
        cofactors.append(rows)
        return original(rows, cols)

    monkeypatch.setattr(selfdual, "_cofactors", counted)
    assert model_self_dual((0, 0, 0, 0, 0, -2)).self_dual
    assert bareiss_runs == Counter(bareiss=4)
    assert cofactors == [list(zip(*bundle_model((0, 0, 0, 0, 0, -2)).mon().entries))]


def test_rank_six_yes_verdict_reads_its_one_subset_directly(bareiss_runs, monkeypatch):
    # dv and mon are both 8 x 7, so the one subset, all of mon, is read off
    # the charges of mon's table and never walked; the eliminations stay
    # those of the test above
    original, cofactors = selfdual._cofactors, []

    def counted(rows, cols):
        cofactors.append(rows)
        return original(rows, cols)

    def no_walk(*args):
        raise AssertionError("the subset walk ran")

    monkeypatch.setattr(selfdual, "_cofactors", counted)
    monkeypatch.setattr(selfdual, "_extend_walk", no_walk)
    verdict = model_self_dual((0, 0, 0, 0, 0, -2))
    assert verdict.self_dual and verdict.witness.monomial_subset == tuple(range(8))
    assert bareiss_runs == Counter(bareiss=4)
    assert cofactors == [list(zip(*bundle_model((0, 0, 0, 0, 0, -2)).mon().entries))]


class _PastPrecheck(Exception):
    pass


def test_precheck_with_the_class_group_decides_as_without(monkeypatch):
    # every degree tuple of rank <= 4 with entries in [-4, 3]: the search
    # reads the group in its precheck alone, so a search that gets past it
    # stops at its first minor table, and both searches stop alike
    def stop(rows, n):
        raise _PastPrecheck

    def outcome(*args):
        try:
            return _search_matrix_witness(*args)
        except _PastPrecheck:
            return _PastPrecheck

    monkeypatch.setattr(selfdual, "_Minors", stop)
    outcomes = Counter()
    for c in (1, 2, 3, 4):
        for degrees in itertools.product(range(-4, 4), repeat=c):
            m = bundle_model(degrees)
            dv, mon, group = m.variety.dv, m.mon(), m.k_class.group
            found = outcome(dv, mon, group)
            assert found == outcome(dv, mon)
            outcomes[found] += 1
    assert outcomes[None] and outcomes[_PastPrecheck]


def _class_group_cases():
    # whole searches: every tuple of rank <= 3 and the nonincreasing ones of
    # rank 4 in [-4, 3], then the dense models above
    for c in (1, 2, 3):
        for degrees in itertools.product(range(-4, 4), repeat=c):
            m = bundle_model(degrees)
            yield m.variety.dv, m.mon()
    for degrees in itertools.combinations_with_replacement(range(3, -5, -1), 4):
        m = bundle_model(degrees)
        yield m.variety.dv, m.mon()
    six = IntMatrix.from_rows(DENSE_A.entries[:6])
    reversed_rows = DENSE_A.take_rows(tuple(reversed(range(DENSE_A.rows))))
    other = IntMatrix.from_rows(RANK_TWO.entries[:-1] + ((1, 2, 1),))
    higher = parse_model(HIGHER_RANK_MON)
    yield from [
        (DENSE_A, DENSE_B), (six, DENSE_B), (DENSE_A, reversed_rows), (RANK_TWO, other),
        (RANK_TWO, RANK_TWO.take_rows(tuple(reversed(range(6))))),
        (higher.variety.dv, higher.mon()), (IntMatrix.from_rows([(0, 2, -1, 3)]), DENSE_A),
    ]


def test_search_with_the_class_group_returns_what_the_search_without_does():
    found = Counter()
    for dv, mon in _class_group_cases():
        with_group = _search_matrix_witness(dv, mon, cokernel(dv))
        assert with_group == _search_matrix_witness(dv, mon)
        found[with_group is not None] += 1
    assert found[True] and found[False]


@st.composite
def class_group_searches(draw):
    """(kind, dv, mon): dv (n + 1) x n with n = 1..5 and entries in [-3, 3],
    mon of up to n + 4 rows with dv's rows planted among them (after a
    unimodular change and a shuffle) in half the draws.  The torsion kind
    doubles dv's last column, so every maximal minor is even, and the
    low-rank kind zeroes it, so every maximal minor is 0."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("random", "torsion", "low-rank")))
    dv = draw(small_matrices(n + 1, n))
    if kind != "random":
        dv = IntMatrix.from_rows([row[:-1] + (2 * row[-1] if kind == "torsion" else 0,) for row in dv])
    plant = draw(st.booleans())
    m = draw(st.integers(n + 1 if plant else 0, n + 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=m, max_size=m))
    if plant:
        rows[: n + 1] = planted(draw, dv).entries
    order = draw(st.permutations(range(m)))
    return kind, dv, IntMatrix.from_rows([rows[i] for i in order], n)


@given(class_group_searches())
@settings(max_examples=300, deadline=None)
def test_minors_read_off_the_class_group_match_dv_table(case):
    # the fast path reads dv's minors off its class group when cokernel took
    # its cofactor path (free rank 1, no torsion); the slow path eliminates
    # dv's transpose again in _Minors(dv), which every other dv still takes
    kind, dv, mon = case
    n, group = dv.cols, cokernel(dv)
    minors = _Minors(dv.entries, n).minors(range(n + 1))
    fast = group.free_rank == 1 and not group.torsion
    assert fast == (kind == "random" and gcd(*minors) == 1)
    if fast:
        read = list(_charges(group.projection[0]))
        assert read in (minors, [-x for x in minors])
    original, calls, found = selfdual._cofactors, {}, {}
    for with_group in (True, False):
        seen = calls[with_group] = []

        def counted(rows, cols, seen=seen):
            seen.append(rows)
            return original(rows, cols)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selfdual, "_cofactors", counted)
            found[with_group] = _search_matrix_witness(dv, mon, group if with_group else None)
    assert found[True] == found[False]
    if found[True] is not None:
        subset, perm, u = found[True]
        assert mon.take_rows(subset).take_rows(perm) @ u == dv and u.is_unimodular()
    # a search past the rank precheck builds dv's minors first, from dv's
    # transpose, unless the group holds them
    dv_t = list(zip(*dv.entries))
    if not (mon.rows == n + 1 or mon.rank() >= dv.rank()):
        assert calls == {True: [], False: []}
    elif fast:
        assert calls[False] == [dv_t] + calls[True]
    else:
        assert calls[True] == calls[False] and calls[True][0] == dv_t


def test_search_rejects_a_class_group_of_another_matrix():
    dv, mon = bundle_over_p1([-2]).dv, bundle_model([-2]).mon()
    with pytest.raises(GroupMismatchError):
        _search_matrix_witness(dv, mon, cokernel(bundle_over_p1([-3]).dv))
    assert _search_matrix_witness(dv, mon, cokernel(dv)) is not None


def test_short_dv_builds_no_mon_minor_table(minor_tables):
    # a 1 x 4 dv has no 4-row minor, so no subset reads a table of mon's
    # C(14, 4) = 1,001 minors
    mon = IntMatrix.from_rows(DENSE_A.entries + DENSE_B.entries)
    dv = IntMatrix.from_rows([(0, 2, -1, 3)])
    found = _search_matrix_witness(dv, mon)
    assert mon.entries not in minor_tables
    assert oracle_key(found, dv) == oracle_key(per_subset_search(dv, mon), dv)
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


RANK_TWO = IntMatrix.from_rows([
    (1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 1, 2), (1, -1, 1), (3, 1, 3),
])


def test_rank_deficient_pair_takes_no_hermite_pair(right_equivalent_calls, hermite_transforms):
    # a rank-2 6 x 3 dv has no nonzero maximal minor and every row gcd is 1,
    # so each of the 720 row orders would compare two Hermite forms.  One
    # Hermite form of dv and one of the single subset bring both to 6 x 2,
    # whose 2 x 2 minors differ once the last row (3, 1, 3) is (1, 2, 1)
    other = IntMatrix.from_rows(RANK_TWO.entries[:-1] + ((1, 2, 1),))
    assert RANK_TWO.rank() == other.rank() == 2
    assert set(RANK_TWO.row_gcds()) == set(other.row_gcds()) == {1}
    assert matrix_self_dual(RANK_TWO, other) is None
    assert hermite_transforms == [RANK_TWO, other]
    hermite_transforms.clear()
    # reversed rows: the same two forms, then the search at rank 2 solves
    # from 2 rows at each of the two orders whose minors all match
    reversed_rows = RANK_TWO.take_rows(tuple(reversed(range(6))))
    perm, u = matrix_self_dual(RANK_TWO, reversed_rows)
    assert perm == (5, 4, 3, 2, 1, 0)
    assert reversed_rows.take_rows(perm) @ u == RANK_TWO and u.is_unimodular()
    assert [h.rows for h in hermite_transforms] == [6, 6, 2, 2]
    assert right_equivalent_calls == []


def test_line_bundle_takes_each_minor_once(monkeypatch):
    # the subset loop reads every charge from mon's 2-row minors, kept as one
    # row per head row and built on the head's first read from one
    # elimination: not one per pair of rows nor 3 per 3-row subset; dv's 3
    # minors are read off the charge row of its class group, which cokernel
    # took from one elimination of dv's 2 x 3 transpose
    calls, built = [], []
    original, missing = selfdual._cofactors, selfdual._Minors.__missing__

    def counted(rows, cols):
        calls.append(tuple(map(tuple, rows)))
        return original(rows, cols)

    def counted_missing(table, h):
        built.append(h)
        return missing(table, h)

    monkeypatch.setattr(selfdual, "_cofactors", counted)
    monkeypatch.setattr(selfdual._Minors, "__missing__", counted_missing)
    mon = bundle_model([-20]).mon()
    assert model_self_dual((-20,)).failure == "no-matrix-witness"
    assert len(calls) == 19 < comb(mon.rows, 2)
    assert calls == [(row,) for row in mon.entries[:19]]
    # rows 0..18 each head a read and are built once; row 19 heads none
    assert built == [(h,) for h in range(19)]


def test_line_bundle_sweep_cuts_prefixes(monkeypatch):
    # reading 3 minors for each of the 7,315 3-row subsets would take 21,945
    # reads; the walk cuts a prefix at its first minor outside dv's multiset.
    # It fetches each head's row once per prefix and reads the row's minors:
    # the first head's over every next index, the others' for the indices
    # that the first keeps.  Each row is built on its first fetch
    reads, fetches, eliminations = Counter(), Counter(), []
    original, cofactors = selfdual._Minors, selfdual._cofactors

    class CountedRow(list):
        def __getitem__(self, i):
            reads[self.rows] += 1
            return list.__getitem__(self, i)

    class CountedReads(original):
        def __init__(self, rows, n):
            super().__init__(rows, n)
            for h in list(self):
                self[h] = self.counted(dict.__getitem__(self, h))

        def counted(self, row):
            row = CountedRow(row)
            row.rows = self.rows
            return row

        def __missing__(self, h):
            row = self[h] = self.counted(super().__missing__(h))
            return row

        def __getitem__(self, h):
            fetches[self.rows] += 1
            return super().__getitem__(h)

    def counted(rows, cols):
        eliminations.append(rows)
        return cofactors(rows, cols)

    monkeypatch.setattr(selfdual, "_Minors", CountedReads)
    monkeypatch.setattr(selfdual, "_cofactors", counted)
    verdicts = sweep_line_bundles(20)
    assert [v.degrees for v in verdicts if v.self_dual] == [(-2,)]
    subsets = sum(comb(bundle_model((-k,)).mon().rows, 3) for k in range(21))
    assert 3 * subsets == 21_945
    mons = [bundle_model((-k,)).mon().entries for k in range(21)]
    # O(-2)'s 3-row mon gives its charges from the cofactor vector that
    # fills its table, and its one subset, square with dv, is read as those
    # 3 charges rather than as the walk's 5 reads
    assert sum(reads[rows] for rows in mons) == 2_886
    assert sum(fetches[rows] for rows in mons) == 399
    # dv's 3 minors are read off its class group, so dv has no table, and
    # O(0) and O(-1) have fewer monomials than dv has rows
    dvs = [bundle_over_p1([-k]).dv.entries for k in range(21)]
    assert [reads[rows] for rows in dvs] == [0] * 21
    assert [fetches[rows] for rows in dvs] == [0] * 21
    assert len(eliminations) == 190


# --- K reconstruction ---------------------------------------------------------

def test_k_reconstruction_for_the_two_self_dual_cases():
    # the step checks the model's own K and hands it back
    for degrees in ([-2], [-1, -1]):
        m = bundle_model(degrees)
        assert k_reconstruction_class(m.variety, m.k_class) is m.k_class
        assert m.k_class.values() == (ComplexQ(0, 1),)


def test_k_reconstruction_none_when_every_sign_fails():
    # rows (1), (-1), (2): either the interior dies or a row is dropped,
    # for every choice of signs on the two free generators
    x = ToricData(1, ("a", "b", "c"), IntMatrix.from_rows([(1,), (-1,), (2,)]))
    group = x.chow_group()
    assert group.free_rank == 2
    for signs in itertools.product((1, -1), repeat=2):
        k = canonical_class(group, [ComplexQ(0, s) for s in signs])
        assert k_reconstruction_class(x, k) is None


def keeps_every_row(dv, offset):
    """The general K step for one lift: the facet pass keeps every row."""
    try:
        _, report = from_linear_data(dv, offset)
    except (NotKopasepticError, EmptyInteriorError):
        return False
    return report.is_identity()


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
    k = ChowClass(tuple(ComplexQ(0, b) for b in offset), group)
    assert k.im_lift() == offset
    assert (k_reconstruction_class(x, k) is k) == keeps_every_row(dv, offset)
    q = _charge_row(dv, group)
    if q is None:
        # a zero or non-primitive row leaves the K step to the facet pass
        assert any(g != 1 for g in dv.row_gcds())
        return
    assert q == tuple(group.projection[0])
    assert _charge_k_step(q, offset) == keeps_every_row(dv, offset)


@pytest.mark.parametrize(
    "rows, kept",
    [
        # q = (1, -1, -1): K = i drops row 0, K = -i keeps every row
        ([(1, 1), (1, 0), (0, 1)], (-1,)),
        # q = (1, -1): either sign drops a row
        ([(1,), (1,)], ()),
    ],
    ids=["second-sign", "no-sign"],
)
def test_charge_k_step_picks_the_sign_facets_picks(rows, kept):
    dv = IntMatrix.from_rows(rows)
    x = ToricData(dv.cols, tuple("D%d" % i for i in range(dv.rows)), dv)
    group = x.chow_group()
    assert _charge_row(dv, group) is not None
    for sign in (1, -1):
        k = canonical_class(group, [ComplexQ(0, sign)])
        assert keeps_every_row(dv, k.im_lift()) is (sign in kept)
        assert k_reconstruction_class(x, k) is (k if sign in kept else None)


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


@st.composite
def charge_k_cases(draw):
    """(q, offset): a vector q with entries in [-3, 3], up to two of them set
    to 0, and rational offsets; in three draws of four, one offset is solved
    for so that beta = q . offset is positive, negative or 0."""
    q = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    for i in draw(st.lists(st.integers(0, len(q) - 1), max_size=2)):
        q[i] = 0
    offset = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in q]
    sign = draw(st.sampled_from([1, -1, 0, None]))
    i = next((i for i, x in enumerate(q) if x), None)
    if sign is not None and i is not None:
        beta = sign * Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        rest = sum(x * y for k, (x, y) in enumerate(zip(q, offset)) if k != i)
        offset[i] = (beta - rest) / q[i]
    return tuple(q), tuple(offset)


@given(charge_k_cases())
# the charge vectors and offsets of test_charge_k_step_planted_failures
@example(((1, 1, 1), (-1, 0, 0)))
@example(((1, 1, -1), (0, 0, 1)))
@example(((1, -1), (Fraction(1, 2), Fraction(1, 2))))
@settings(max_examples=500, deadline=None)
def test_charge_k_step_matches_the_dictionary_oracle(case):
    # the one-pass K step against its earlier form, which replayed each
    # slack vector through a dictionary (tests/charge_k_oracle.py)
    q, offset = case
    assert _charge_k_step(q, offset) == charge_k_oracle._charge_k_step(q, offset)


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
    wrong = ChowGroup(group.free_rank, group.torsion, IntMatrix.from_rows([(1, 1, 1)]), group.source)
    with pytest.raises(AssertionError):
        _charge_row(dv, wrong)
    other = canonical_class(cokernel(bundle_over_p1([-3]).dv), [ComplexQ(0, 1)])
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
            k = lgmodel.default_k_class(x)  # bundle_model's K
            group = k.group
            assert (group.free_rank, group.torsion) == (1, ())
            assert group.projection.entries == ((1, 1, *degrees),)
            assert k.values() == (ComplexQ(0, 1),)
            assert k_reconstruction_class(x, k) is k


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
    # verdict carries no per-instance dict, nor does its witness, K class,
    # class group or any ComplexQ of the K lift
    degrees = (-1, -1)
    v = model_self_dual(degrees)
    assert v.degrees is degrees and not hasattr(v, "__dict__")
    k = v.witness.k_class
    for kept in (v.witness, k, k.group, *k.lift):
        assert not hasattr(kept, "__dict__")
    assert model_self_dual([-1, -1]).degrees == degrees
    coerced = model_self_dual((True, -1)).degrees
    assert coerced == (1, -1) and all(type(a) is int for a in coerced)


def test_sweeps_leave_no_reference_cycles():
    # a search holds its minor table and counts only while it runs: nothing
    # a verdict leaves behind waits for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        classify_cy(3, 3)
        sweep_line_bundles(6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_line_bundle_search_memory_stays_under_a_bound():
    # the table keeps one row of minors per head row, not one tuple-keyed
    # entry per minor: O(-400) peaks at about 3.9 MB under tracemalloc, where
    # an entry per minor peaked at 11.3 MB.  Growth is still about k^2
    tracemalloc.start()
    try:
        assert model_self_dual((-400,)).failure == "no-matrix-witness"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


@pytest.mark.parametrize("degrees", [(-1.5,), (True, -1.0), (Fraction(-2),), ("-2",)])
def test_verdict_rejects_non_integral_degrees(degrees):
    # truncating -1.5 would give the O(-1) verdict
    with pytest.raises(ValidationError, match="degrees must be integers"):
        model_self_dual(degrees)


def test_verdict_takes_numpy_integer_degrees():
    np = pytest.importorskip("numpy")
    v = model_self_dual((np.int64(-1), np.int32(-1)))
    assert v.degrees == (-1, -1) and all(type(a) is int for a in v.degrees)
    assert v.self_dual


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


@pytest.mark.parametrize(
    "change",
    [
        lambda w: {"basis_change": IntMatrix.from_rows(
            [(w.basis_change[0][0] + 1,) + w.basis_change[0][1:]] + list(w.basis_change[1:])
        )},
        lambda w: {"k_class": None},
        lambda w: {"k_class": canonical_class(w.k_class.group, [ComplexQ(0, -1)])},
        # the (-1, -1) witness's K lifts 4 divisors, (-2,)'s dv has 3 rows
        lambda w: {"k_class": model_self_dual((-1, -1)).witness.k_class},
    ],
    ids=["basis-change-entry", "no-k-class", "k-minus-i", "k-lift-length"],
)
def test_verify_rejects_witness_that_does_not_replay(change):
    """A well-formed witness is still rejected when U does not carry the
    chosen rows onto dv, when it has no K class or a K lift of the wrong
    length, or when its K class loses a facet: K = -i over (-2,) has the
    strict interior of {xi1 >= 0, -xi1 + 2 xi2 >= 1, xi2 >= 0} but drops
    the row xi2 >= 0."""
    dv, mon = bundle_over_p1([-2]).dv, bundle_model([-2]).mon()
    witness = model_self_dual((-2,)).witness
    assert witness.verify(dv, mon) is True
    w = dataclasses.replace(witness, **change(witness))
    assert w.verify(dv, mon) is False
    # the K replay is the only step skipped without check_k
    assert w.verify(dv, mon, check_k=False) is ("basis_change" not in change(witness))


# dv's rows all have a negative first coordinate, and the terms are those
# rows with the second coordinate negated, so dv @ diag(1, -1) is a matrix
# witness; but the model's default K, (i, i) on the two free generators,
# drops a row of dv
NO_K_MODEL = (
    "[variety]\ndv = -2 -1; -2 1; -1 -1; -1 0\n[potential]\n"
    "term = 1 : -2 1\nterm = 1 : -2 -1\nterm = 1 : -1 1\nterm = 1 : -1 0\n"
)


def test_self_dual_witness_reason_strings():
    assert self_dual_witness(bundle_model([2]))[1] == "not-enough-monomials"
    assert self_dual_witness(bundle_model([-5]))[1] == "no-matrix-witness"
    m = parse_model(NO_K_MODEL)
    assert _search_matrix_witness(m.variety.dv, m.mon()) == (
        (0, 1, 2, 3), (0, 1, 2, 3), IntMatrix.from_rows([(1, 0), (0, -1)])
    )
    assert m.k_class.values() == (ComplexQ(0, 1), ComplexQ(0, 1))
    assert k_reconstruction_class(m.variety, m.k_class) is None
    assert self_dual_witness(m) == (None, "no-K-reconstruction")


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


def test_classify_cy_validates_degree_bound():
    with pytest.raises(ValidationError):
        classify_cy(3, -1)
    assert [v.degrees for v in classify_cy(1, 0)] == []
    assert [v.degrees for v in classify_cy(2, 1)] == [(-1, -1)]


@pytest.mark.parametrize(
    "sweep, bound",
    [
        (lambda: classify_cy(2, 1.5), "degree_bound"),
        (lambda: classify_cy(2.0, 1), "max_rank"),
        (lambda: classify_cy("2", 1), "max_rank"),
        (lambda: sweep_line_bundles(1.5), "max_twist"),
        (lambda: sweep_rank_two(1.5), "max_twist"),
    ],
    ids=["cy-float-bound", "cy-float-rank", "cy-str-rank", "line-float", "rank-two-float"],
)
def test_sweep_bounds_must_be_integers(sweep, bound):
    with pytest.raises(ValidationError, match=bound):
        sweep()


def test_sweep_negative_bounds_give_no_verdicts():
    assert sweep_line_bundles(-1) == [] and sweep_rank_two(-3) == []
    assert [v.degrees for v in sweep_rank_two(-1)] == [(-1, -1)]


def test_classify_cy_validates_no_integers_it_made(monkeypatch):
    # with the shared base built, the sweep makes every matrix and every
    # superpotential from lgdual's own integers: only the degree tuples
    # (once per model, in generic_sections) pass through lgmodel._integers
    projective_line()
    calls = Counter()
    real_init, real_integers = IntMatrix.__init__, lgmodel._integers

    def counted_init(self, rows, cols, entries):
        calls["IntMatrix.__init__"] += 1
        real_init(self, rows, cols, entries)

    def counted_integers(values, what):
        calls[what] += 1
        return real_integers(values, what)

    monkeypatch.setattr(IntMatrix, "__init__", counted_init)
    monkeypatch.setattr(lgmodel, "_integers", counted_integers)
    verdicts = classify_cy(4, 4)
    assert {v.degrees for v in verdicts if v.self_dual and v.strong_cy} == {(-2,), (-1, -1)}
    assert calls == {"degrees": len(verdicts)}


# --- over P^n -----------------------------------------------------------------

def projective_bundle_model(n, degrees):
    """The generic model on Tot(O(a_1) + ... + O(a_c)) over P^n, built as
    bundle_model builds it over the line: rays e_1, ..., e_n and -(e_1 + ...
    + e_n), each D_j = -a_j on the last divisor, the sections x^m sigma_i for
    the lattice points m >= 0, |m| <= -a_i of each summand's simplex, and
    K = i on each free generator."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    base = ToricData(n, tuple("D%d" % k for k in range(n + 1)), IntMatrix.from_rows(rays))
    columns = IntMatrix.from_rows([(0,) * len(degrees)] * n + [tuple(-a for a in degrees)])
    variety = split_bundle_total_space(BundleSpec(base, columns))
    fiber = [tuple(int(t == i) for t in range(len(degrees))) for i in range(len(degrees))]
    terms = [
        (1, m + fiber[i])
        for i, a in enumerate(degrees)
        for m in itertools.product(range(-a + 1), repeat=n)
        if sum(m) <= -a
    ]
    group = variety.chow_group()
    k = canonical_class(group, [ComplexQ(0, 1)] * group.free_rank)
    return LGModel(variety, Superpotential(terms), k)


@pytest.mark.parametrize("degrees", [(-2,), (0, -2), (-1, -1), (3, -5)])
def test_projective_bundle_model_over_the_line_is_bundle_model(degrees):
    m, expected = projective_bundle_model(1, degrees), bundle_model(degrees)
    assert m.variety.dv == expected.variety.dv and m.mon() == expected.mon()


@pytest.mark.parametrize(
    "n, low, high, count, yes",
    [
        (2, -5, 2, 15, [(-3,), (0, -3), (-1, -2), (0, 0, -3), (0, -1, -2), (-1, -1, -1)]),
        (3, -6, 1, 13, [
            (-4,), (0, -4), (-1, -3), (-2, -2),
            (0, 0, -4), (0, -1, -3), (0, -2, -2), (-1, -1, -2),
        ]),
    ],
    ids=["P2", "P3"],
)
def test_projective_cy_table(n, low, high, count, yes):
    # every split bundle over P^n of rank <= 3 with sum -(n + 1) and degrees
    # in [low, high]: self-dual exactly when no degree is positive
    tuples = [
        d
        for c in range(1, 4)
        for d in itertools.combinations_with_replacement(range(high, low - 1, -1), c)
        if sum(d) == -(n + 1)
    ]
    verdicts = {}
    for d in tuples:
        m = projective_bundle_model(n, d)
        witness, failure = self_dual_witness(m)
        assert witness is None or witness.verify(m.variety.dv, m.mon())
        verdicts[d] = failure
    assert len(verdicts) == count
    assert [d for d, failure in verdicts.items() if failure is None] == yes
    assert all(verdicts[d] == "no-matrix-witness" for d in verdicts if d not in yes)


def test_p3_bundle_reads_minors_on_demand(monkeypatch):
    # mon has 37 rows and dv 6 columns: C(37, 6) = 2,324,784 minors, of which
    # the search works out the rows it reads, one row of minors per 5-row
    # head, each from one cofactor vector; dv's 7 minors are read off the
    # charge row of the class group the model holds
    m = projective_bundle_model(3, (0, 0, -4))
    dv, mon = m.variety.dv, m.mon()
    assert (mon.rows, dv.rows, dv.cols) == (37, 7, 6)
    calls = []
    original = selfdual._cofactors

    def counted(rows, cols):
        calls.append(len(rows))
        return original(rows, cols)

    monkeypatch.setattr(selfdual, "_cofactors", counted)
    witness, failure = self_dual_witness(m)
    assert failure is None and witness.verify(dv, mon)
    assert len(calls) == 1_206
    # every elimination is a head
    assert set(calls) == {dv.cols - 1}


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
