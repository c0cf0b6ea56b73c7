"""Exact integer linear algebra: normal forms and right-equivalence."""

import copy
import itertools
import math
import pickle
import types
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import elimination_oracle
from lgdual import linalg
from lgdual.complexq import ComplexQ
from lgdual.lgmodel import (
    LGModel,
    Superpotential,
    bundle_model,
    default_k_class,
    dualize,
    is_kopaseptic,
    linear_data,
)
from lgdual.errors import ShapeMismatchError, ValidationError
from lgdual.linalg import (
    IntMatrix,
    _bareiss_solve,
    _hnf_col_ops,
    cokernel,
    hnf_col_transform,
    right_equivalent,
    snf,
)
from lgdual.modelfile import parse_model
from lgdual.polyhedra import HalfspaceSystem, facets
from lgdual.selfdual import model_self_dual
from lgdual.toric import BundleSpec, ToricData, projective_line

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
    with pytest.raises(ValidationError):
        IntMatrix(1, 2, [(bad, 2)])


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


@st.composite
def product_pairs(draw):
    """(a, b) of shapes r x k and k x c, each of r, k and c in 0..4, with
    entries weighted toward 0 and +-1, which the product takes apart."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-5, 5))

    def matrix(rows, cols):
        return IntMatrix(rows, cols, [[draw(entry) for _ in range(cols)] for _ in range(rows)])

    return matrix(r, k), matrix(k, c)


@given(product_pairs())
@settings(max_examples=300, deadline=None)
def test_matmul_matches_a_triple_loop(case):
    a, b = case
    want = [
        [sum(a[i][t] * b[t][j] for t in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got == IntMatrix(a.rows, b.cols, want)
    assert all(type(row) is tuple for row in got.entries)


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
    assert IntMatrix(1, 0, [()]).row_gcd(0) == 0


def test_unimodular_detection():
    assert IntMatrix.from_rows([(2, 1), (1, 1)]).is_unimodular()
    assert not IntMatrix.from_rows([(2, 0), (0, 1)]).is_unimodular()
    assert not IntMatrix.from_rows([(1, 0)]).is_unimodular()


# a dense dimension-4 model in the form the model-files benchmark writes
DENSE_MODEL = """[variety]
dv = 2 -1 1 1; 3 0 -1 1; 1 -1 1 1; 3 0 1 -1; 3 0 1 0; 1 1 -1 0; 2 1 1 -1; 1 1 -1 1
[potential]
term = 1/8-2i : 2 -1 0 1
term = 7/7+2i : 1 0 -1 1
term = 3/6+1i : 1 -1 0 1
term = 6/2+0i : 1 -1 -1 -1
term = 9/2+3i : 2 1 0 -1
term = 3/9+3i : 2 1 0 0
"""


def line_model():
    """The affine line with potential 2 + t: a model small enough to print."""
    x = ToricData(1, ("D1",), IntMatrix.from_rows([(1,)]))
    return LGModel(x, Superpotential([(2, (0,)), (1, (1,))]), default_k_class(x))


# Each value type other than the two verdicts, with a small instance, its
# fields, whether it is slotted, and its repr as printed when these types
# were frozen dataclasses.
VALUE_TYPES = [
    pytest.param(
        lambda: ComplexQ(1, -2), ("re", "im"), True,
        "ComplexQ(re=Fraction(1, 1), im=Fraction(-2, 1))",
        id="ComplexQ",
    ),
    pytest.param(
        lambda: IntMatrix.from_rows([(1, -2), (0, 3)]), ("rows", "cols", "entries"), True,
        "IntMatrix(2, 2, [[1, -2], [0, 3]])",
        id="IntMatrix",
    ),
    pytest.param(
        lambda: snf(IntMatrix.from_rows([(2, 4)])), ("u", "s", "v"), False,
        "SmithDecomposition(u=IntMatrix(1, 1, [[1]]), s=IntMatrix(1, 2, [[2, 0]]), "
        "v=IntMatrix(2, 2, [[1, -2], [0, 1]]))",
        id="SmithDecomposition",
    ),
    pytest.param(
        lambda: cokernel(IntMatrix.from_rows([(2,), (0,)])),
        ("free_rank", "torsion", "projection", "source"), True,
        "ChowGroup(free_rank=1, torsion=(2,), projection=IntMatrix(2, 2, [[0, 1], [1, 0]]), "
        "source=IntMatrix(2, 1, [[2], [0]]))",
        id="ChowGroup",
    ),
    pytest.param(
        lambda: Superpotential([(1, (0, 1)), (ComplexQ(1, 2), (1, 0))]), ("terms",), False,
        "Superpotential(terms=(((1+0j), (0, 1)), ((1+2j), (1, 0))))",
        id="Superpotential",
    ),
    pytest.param(
        lambda: default_k_class(projective_line()), ("lift", "group"), True,
        "ChowClass(lift=(ComplexQ(re=Fraction(0, 1), im=Fraction(0, 1)), "
        "ComplexQ(re=Fraction(0, 1), im=Fraction(1, 1))), group=ChowGroup(free_rank=1, "
        "torsion=(), projection=IntMatrix(1, 2, [[1, 1]]), source=IntMatrix(2, 1, [[1], [-1]])))",
        id="ChowClass",
    ),
    pytest.param(
        line_model, ("variety", "potential", "k_class"), False,
        "LGModel(variety=ToricData(rank=1, divisors=('D1',), dv=IntMatrix(1, 1, [[1]])), "
        "potential=Superpotential(terms=(((2+0j), (0,)), ((1+0j), (1,)))), "
        "k_class=ChowClass(lift=(ComplexQ(re=Fraction(0, 1), im=Fraction(0, 1)),), "
        "group=ChowGroup(free_rank=0, torsion=(), projection=IntMatrix(0, 1, []), "
        "source=IntMatrix(1, 1, [[1]]))))",
        id="LGModel",
    ),
    pytest.param(
        lambda: linear_data(line_model()), ("a", "k", "b", "l"), False,
        "LinearData(a=IntMatrix(1, 1, [[1]]), k=ChowClass(lift=(ComplexQ(re=Fraction(0, 1), "
        "im=Fraction(0, 1)),), group=ChowGroup(free_rank=0, torsion=(), "
        "projection=IntMatrix(0, 1, []), source=IntMatrix(1, 1, [[1]]))), "
        "b=IntMatrix(2, 1, [[0], [1]]), l=ChowClass(lift=(ComplexQ(re=Fraction(0, 1), "
        "im=Fraction(1, 1)), ComplexQ(re=Fraction(0, 1), im=Fraction(0, 1))), "
        "group=ChowGroup(free_rank=1, torsion=(), projection=IntMatrix(1, 2, [[1, 0]]), "
        "source=IntMatrix(2, 1, [[0], [1]]))))",
        id="LinearData",
    ),
    pytest.param(
        lambda: is_kopaseptic(linear_data(line_model())),
        ("interior_nonempty", "kmap_exists", "order_nonneg", "facet_report", "negative_orders"),
        False,
        "KopasepticReport(interior_nonempty=True, kmap_exists=True, order_nonneg=True, "
        "facet_report=FacetReport(irredundant=(0,), primitive_normals=IntMatrix(1, 1, [[1]]), "
        "kmap=(0,)), negative_orders=())",
        id="KopasepticReport",
    ),
    pytest.param(
        lambda: HalfspaceSystem(IntMatrix.from_rows([(1,), (-1,)]), (0, 1)), ("c", "offset"), False,
        "HalfspaceSystem(c=IntMatrix(2, 1, [[1], [-1]]), offset=(Fraction(0, 1), Fraction(1, 1)))",
        id="HalfspaceSystem",
    ),
    pytest.param(
        lambda: facets(HalfspaceSystem(IntMatrix.from_rows([(2,), (-1,), (1,)]), (1, 1, 1))),
        ("irredundant", "primitive_normals", "kmap"), False,
        "FacetReport(irredundant=(0, 1), primitive_normals=IntMatrix(2, 1, [[1], [-1]]), "
        "kmap=(0, 1, None))",
        id="FacetReport",
    ),
    pytest.param(
        projective_line, ("rank", "divisors", "dv"), False,
        "ToricData(rank=1, divisors=('f0', 'fInf'), dv=IntMatrix(2, 1, [[1], [-1]]))",
        id="ToricData",
    ),
    pytest.param(
        lambda: BundleSpec(projective_line(), IntMatrix.from_rows([(0,), (2,)])),
        ("base", "divisor_columns"), False,
        "BundleSpec(base=ToricData(rank=1, divisors=('f0', 'fInf'), "
        "dv=IntMatrix(2, 1, [[1], [-1]])), divisor_columns=IntMatrix(2, 1, [[0], [2]]))",
        id="BundleSpec",
    ),
]


@pytest.mark.parametrize("make, fields, slotted, text", VALUE_TYPES)
def test_value_types_compare_print_and_stay_frozen(make, fields, slotted, text):
    value, same = make(), make()
    assert value == same and not value != same and hash(value) == hash(same)
    assert repr(value) == text
    assert hasattr(value, "__dict__") is not slotted
    if slotted:
        assert type(value).__slots__ == fields
    # equality holds only between instances of one class: not with a look-alike
    # holding the same fields, nor with any other value type
    twin = types.SimpleNamespace(**{f: getattr(value, f) for f in fields})
    assert value != twin and twin != value
    for other in VALUE_TYPES:
        if other.id != type(value).__name__:
            assert value != other.values[0]()
    for f in fields:
        with pytest.raises(FrozenInstanceError):
            setattr(value, f, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, f)
    assert value == same


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: cokernel(IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1)])),
                     id="cokernel-charges"),
        pytest.param(lambda: cokernel(IntMatrix.from_rows([(2, 3), (0, -3), (2, 3)])),
                     id="cokernel-smith"),
        pytest.param(lambda: bundle_model([-1, -1]), id="bundle-model"),
        pytest.param(lambda: parse_model(DENSE_MODEL), id="model-file"),
        pytest.param(lambda: dualize(linear_data(parse_model(DENSE_MODEL))), id="dual"),
        pytest.param(lambda: model_self_dual((-2,)), id="verdict"),
    ] + [pytest.param(p.values[0], id=p.id) for p in VALUE_TYPES],
)
def test_values_survive_pickle_and_deepcopy(make):
    value = make()
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and hash(copied) == hash(value)
        if isinstance(value, LGModel):
            # the exponent and order matrices kept by the constructor travel along
            assert copied.mon() == value.mon() and copied.order_matrix() == value.order_matrix()


def test_matrix_fields_cannot_be_assigned():
    m = IntMatrix.from_rows([(1, 2)])
    with pytest.raises(AttributeError):
        m.rows = 3
    assert m.rows == 1


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


def hnf(a):
    """The Hermite form of a alone, with neither transform tracked."""
    return hnf_col_transform(a, with_u=False, with_uinv=False)[0]


@given(matrices())
@settings(max_examples=150)
def test_hnf_is_column_equivalent_and_shaped(a):
    h = hnf(a)
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
    hnf_col_transform(a, with_u=False, with_uinv=False)
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
    h = hnf(a)
    for u in ((1, 1, 0, 1), (0, -1, 1, 0), (1, 0, 1, 1), (3, 2, 1, 1)):
        w = IntMatrix.from_rows([u[:2], u[2:]])
        assert hnf(a @ w) == h


def test_hnf_idempotent_on_examples():
    for rows in [
        [(1, 0), (-1, 2), (0, 1)],
        [(3, 1), (2, 5)],
        [(0, 0, 0), (1, 2, 3)],
    ]:
        h = hnf(IntMatrix.from_rows(rows))
        assert hnf(h) == h


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
    assert IntMatrix.from_rows([(0,) * 4] * 2).rank() == 0
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


@st.composite
def rank_read_matrices(draw):
    """(kind, a) for a up to 7 x 4 with entries in [-3, 3]: drawn as is; rank
    deficient, by a column repeated; with torsion when of full column rank, by
    a column of even entries (the Smith path); or (n+1) x n with coprime
    maximal minors, so its rows span Z^n (the cofactor path)."""
    kind = draw(st.sampled_from(["drawn", "rank-deficient", "torsion", "spanning"]))
    cols = draw(st.integers(1 if kind == "torsion" else 2 if kind == "rank-deficient" else 0, 4))
    rows = cols + 1 if kind == "spanning" else draw(st.integers(0, 7))
    m = [[draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    if kind == "rank-deficient":
        m = [row[:-1] + [row[0]] for row in m]
    elif kind == "torsion":
        m = [[2 * draw(st.integers(-1, 1))] + row[1:] for row in m]
    a = IntMatrix(rows, cols, m)
    if kind == "spanning":
        assume(math.gcd(*linalg._cofactors(list(zip(*m)), rows)) == 1)
    return kind, a


@given(rank_read_matrices())
@settings(max_examples=400, deadline=None)
def test_cokernel_free_rank_gives_the_rank(case):
    # the self-duality precheck reads rank(dv) as dv.rows - free_rank off the
    # class group, which both paths of cokernel must make equal
    kind, a = case
    g = cokernel(a)
    assert a.rows - g.free_rank == a.rank() == fraction_rank(a)
    if kind == "rank-deficient":
        assert a.rank() < a.cols
    elif kind == "torsion" and a.rank() == a.cols:
        assert g.torsion[-1] % 2 == 0
    elif kind == "spanning":
        assert (g.free_rank, g.torsion) == (1, ())


# (a, snf(a) as (u, s, v), hnf_col_transform(a) as (h, u, u^-1),
# cokernel(a).projection), recorded as exact entries: each transform's
# sequence of elementary operations fixes the printed generators and lifts,
# which the properties above would not notice moving.  The cases cover a
# Smith-form cokernel with free and torsion rows (3 x 2 and 4 x 3), the
# charge vector of a corank-1 matrix, and a wide matrix; in three of them the
# sign rule negates a free row.
PINNED_TRANSFORMS = [
    (
        ((2, 3), (0, -3), (2, 3)),
        (((1, 0, 0), (3, 1, 0), (-1, 0, 1)), ((1, 0), (0, 6), (0, 0)), ((-1, 3), (1, -2))),
        (((1, 0), (3, 6), (1, 0)), ((2, 3), (-1, -2)), ((2, 3), (-1, -2))),
        ((1, 0, -1), (3, 1, 0)),
    ),
    (
        ((-2, 1, 0), (3, 0, 2), (-1, -3, -1), (0, -3, 3)),
        (
            ((1, 0, 0, 0), (-3, 0, -1, 0), (-6, -5, -4, 2), (-30, -27, -21, 11)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),
            ((0, 0, 1), (1, 0, 2), (0, 1, -7)),
        ),
        (
            ((1, 0, 0), (0, 1, 0), (8, 5, 11), (18, 12, 21)),
            ((-2, -1, -2), (-3, -2, -4), (3, 2, 3)),
            ((-2, 1, 0), (3, 0, 2), (0, -1, -1)),
        ),
        ((30, 27, 21, -11),),
    ),
    (
        ((0, -3, -2, 1), (0, -3, -3, -3), (2, 0, 0, -3)),
        (
            ((1, 0, 0), (3, 0, 1), (-39, -1, -12)),
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0)),
            ((0, 5, 0, 3), (0, 1, -2, 6), (0, 0, 3, -8), (1, 3, 0, 2)),
        ),
        (
            ((1, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0)),
            ((0, 3, -1, 3), (-1, 8, -3, 6), (1, -11, 4, -8), (0, 2, -1, 2)),
            ((0, -3, -2, 1), (0, -1, -1, -1), (2, 0, 0, -3), (1, 1, 1, 0)),
        ),
        ((-39, -1, -12),),
    ),
    (
        ((0, -3, -3), (2, 0, 0), (-3, -2, 3), (-2, 2, -3)),
        (
            ((0, 2, 1, 0), (0, 1, 0, 1), (1, 9, 0, 9), (0, -5, -2, -2)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 15), (0, 0, 0)),
            ((1, 1, 0), (0, 2, -3), (0, 1, -2)),
        ),
        (
            ((3, 0, 0), (0, 2, 0), (2, 2, 5), (-2, -7, -5)),
            ((0, 1, 0), (-1, -1, -1), (0, 1, 1)),
            ((0, -1, -1), (1, 0, 0), (-1, 0, 1)),
        ),
        ((0, 5, 2, 2), (1, 9, 0, 9)),
    ),
]


@pytest.mark.parametrize("a,smith,hermite,projection", PINNED_TRANSFORMS)
def test_transforms_are_pinned(a, smith, hermite, projection):
    a = IntMatrix.from_rows(a)
    dec = snf(a)
    assert (dec.u.entries, dec.s.entries, dec.v.entries) == smith
    assert tuple(m.entries for m in hnf_col_transform(a)) == hermite
    assert cokernel(a).projection.entries == projection


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
