"""Simplex feasibility and redundancy removal, checked against the
Fourier-Motzkin oracle in ``fm_oracle`` and step for step against the
Fraction-era kernel in ``lp_oracle``, and the 2D boundary walk."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fm_oracle
import lp_oracle
from polygon_oracle import contains
from lgdual import polyhedra
from lgdual.errors import DimensionMismatchError, EmptyInteriorError
from lgdual.linalg import IntMatrix
from lgdual.polyhedra import (
    FacetReport,
    HalfspaceSystem,
    _boundary,
    _simplex,
    facets,
    infeasibility_certificate,
    strict_interior_nonempty,
    strict_interior_point,
)
from lgdual.svg import moment_polygon
from lgdual.toric import from_linear_data


def system(rows, offsets, cols=None):
    return HalfspaceSystem(IntMatrix.from_rows(rows, cols), offsets)


OM2 = system([(1, 0), (-1, 2), (0, 1)], (0, 1, 0))  # x>=0, -x+2y+1>=0, y>=0


@st.composite
def random_systems(draw, max_rows=5):
    r = draw(st.integers(1, max_rows))
    rows = draw(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            min_size=r,
            max_size=r,
        )
    )
    offsets = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
    return system(rows, offsets)


def test_contains():
    assert contains(OM2, (Fraction(1, 2), Fraction(1, 2)))
    assert contains(OM2, (0, 0)) and not contains(OM2, (0, 0), strict=True)
    assert not contains(OM2, (-1, 0))


def test_fraction_offsets_kept_as_they_are():
    half = Fraction(1, 2)
    h = system([(1, 0), (0, 1)], (half, 3))
    assert h.offset[0] is half
    assert h.offset == (half, 3) and type(h.offset[1]) is Fraction


def test_offset_length_checked():
    with pytest.raises(DimensionMismatchError):
        system([(1, 0)], (0, 1))


def test_interior_point_known():
    p = strict_interior_point(OM2)
    assert p is not None and contains(OM2, p, strict=True)


def test_interior_empty_line():
    # x >= 0 and -x >= 0 pin x = 0: closed-feasible, no strict interior
    h = system([(1, 0), (-1, 0)], (0, 0))
    assert not strict_interior_nonempty(h)
    assert infeasibility_certificate(h, strict=False) is None


def test_interior_empty_strictly_infeasible():
    h = system([(1,), (-1,)], (0, -1))  # x >= 0, x <= -1
    assert infeasibility_certificate(h, strict=False) is not None


@given(random_systems())
@settings(max_examples=200, deadline=None)
def test_feasibility_verdicts_sound(h):
    point = strict_interior_point(h)
    if point is not None:
        assert contains(h, point, strict=True)
    else:
        lam = infeasibility_certificate(h, strict=True)
        assert lam is not None
        assert all(x >= 0 for x in lam) and any(x > 0 for x in lam)
        combo = [
            sum(l * c for l, c in zip(lam, col))
            for col in zip(*h.c.entries)
        ]
        assert all(x == 0 for x in combo)
        assert sum(l * o for l, o in zip(lam, h.offset)) <= 0


@given(random_systems())
@settings(max_examples=120, deadline=None)
def test_grid_point_implies_feasible(h):
    # one-sided completeness: an exhibited strict grid point forces a
    # feasible verdict
    span = [Fraction(k, 2) for k in range(-6, 7)]
    hit = next(
        (
            (x, y)
            for x in span
            for y in span
            if contains(h, (x, y), strict=True)
        ),
        None,
    )
    if hit is not None:
        assert strict_interior_nonempty(h)


def test_nonstrict_certificate_is_strict_negative():
    h = system([(1, 1), (-1, -1)], (0, -2))  # x+y >= 0, x+y <= -2
    lam = infeasibility_certificate(h, strict=False)
    assert lam is not None and all(x >= 0 for x in lam)
    assert sum(l * o for l, o in zip(lam, h.offset)) < 0
    combo = [sum(l * c for l, c in zip(lam, col)) for col in zip(*h.c.entries)]
    assert combo == [0, 0]


# --- facets ------------------------------------------------------------------

def test_facets_all_tight_identity():
    rep = facets(OM2)
    assert rep.irredundant == (0, 1, 2)
    assert rep.is_identity()
    assert rep.kmap == (0, 1, 2)
    assert rep.primitive_normals == IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1)])


def test_facets_drop_weaker_copy():
    # x + 3 >= 0 is implied by x >= 0
    h = system([(1, 0), (-1, 2), (0, 1), (1, 0)], (0, 1, 0, 3))
    rep = facets(h)
    assert rep.irredundant == (0, 1, 2)
    assert rep.kmap == (0, 1, 2, None)


def test_facets_duplicates_keep_first():
    h = system([(1, 0), (1, 0), (0, 1), (-1, -1)], (0, 0, 0, 5))
    rep = facets(h)
    assert 0 in rep.irredundant and 1 not in rep.irredundant


def test_facets_scaled_duplicate_dropped():
    # (2, 0) offset 0 is the same halfplane as (1, 0) offset 0
    h = system([(1, 0), (2, 0), (0, 1), (-1, -1)], (0, 0, 0, 5))
    rep = facets(h)
    assert 1 not in rep.irredundant
    assert 0 in rep.irredundant


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 2, 3)], ids=["scaled-first", "primitive-first"])
def test_facets_equal_halfspaces_keep_the_primitive_row(order):
    # (2, 0) and (1, 0), both at offset 0, are one halfplane: whichever comes
    # first, the row of least gcd stays, so a k-map to generators exists in
    # either order (the scaled row first was kept, a k-map failure)
    rows, offsets = [(2, 0), (1, 0), (0, 1), (-1, -1)], [0, 0, 0, 5]
    h = system([rows[i] for i in order], [offsets[i] for i in order])
    rep = facets(h)
    assert [h.c[i] for i in rep.irredundant] == [(1, 0), (0, 1), (-1, -1)]
    _, report = from_linear_data(h.c, h.offset)
    assert report == rep


def test_facets_need_strict_interior():
    with pytest.raises(EmptyInteriorError):
        facets(system([(1, 0), (-1, 0)], (0, 0)))


def test_facets_idempotent():
    h = system([(1, 0), (-1, 2), (0, 1), (1, 0), (1, 1)], (0, 1, 0, 3, 7))
    rep = facets(h)
    sub = system(
        [h.c[i] for i in rep.irredundant],
        [h.offset[i] for i in rep.irredundant],
    )
    again = facets(sub)
    assert again.is_identity()
    assert again.irredundant == tuple(range(len(rep.irredundant)))


@given(random_systems())
@example(system([(0, 0)], (1,)))  # the only row is redundant: sub has no rows
@settings(max_examples=80, deadline=None)
def test_facets_preserve_the_set(h):
    # dropping reported-redundant rows keeps membership unchanged on a grid
    try:
        rep = facets(h)
    except EmptyInteriorError:
        return
    sub = system(
        [h.c[i] for i in rep.irredundant],
        [h.offset[i] for i in rep.irredundant],
        h.c.cols,
    )
    span = [Fraction(k, 2) for k in range(-5, 6)]
    for x in span:
        for y in span:
            assert contains(h, (x, y)) == contains(sub, (x, y))


# --- the integer kernel against the Fraction-era one in lp_oracle -------------

def recorded_lps(module, fn, *args):
    """(fn(*args), or EmptyInteriorError if it raised that, and every
    (arguments, result) pair of the ``_simplex`` calls it made)."""
    calls = []
    original = module._simplex

    def recorded(*lp):
        out = original(*lp)
        calls.append((lp, out))
        return out

    module._simplex = recorded
    try:
        result = fn(*args)
    except EmptyInteriorError:
        result = EmptyInteriorError
    finally:
        module._simplex = original
    return result, calls


def assert_matches_lp_oracle(h):
    # the same LPs in the same order, with the same (lam, y, d) triples,
    # the same facet report and the same public interior outputs
    assert recorded_lps(polyhedra, facets, h) == recorded_lps(lp_oracle, lp_oracle.facets, h)
    assert strict_interior_nonempty(h) == lp_oracle.strict_interior_nonempty(h)
    assert strict_interior_point(h) == lp_oracle.strict_interior_point(h)
    for strict in (True, False):
        assert infeasibility_certificate(h, strict) == lp_oracle.infeasibility_certificate(h, strict)


@st.composite
def dense_model_systems(draw):
    """Dense 8-9 x 4 systems with 0/-1 offsets, shaped like the ray and
    monomial systems of dimension-4 model files, with at times a zero row,
    an exact or scaled duplicate, or a first column that empties the
    interior."""
    r = draw(st.integers(8, 9))
    lead = st.integers(-1, 3) if draw(st.booleans()) else st.integers(1, 3)
    rows = [(draw(lead),) + draw(st.tuples(*[st.integers(-1, 1)] * 3)) for _ in range(r)]
    offsets = [draw(st.sampled_from((0, -1))) for _ in range(r)]
    kind = draw(st.sampled_from(("none", "zero", "exact", "scaled")))
    i = draw(st.integers(0, r - 1))
    if kind == "zero":
        rows.append((0,) * 4)
        offsets.append(draw(st.sampled_from((0, 1))))
    elif kind != "none":
        k = 1 if kind == "exact" else draw(st.integers(2, 3))
        rows.append(tuple(k * x for x in rows[i]))
        offsets.append(k * offsets[i])
    return system(rows, offsets, 4)


@given(dense_model_systems())
@settings(max_examples=120, deadline=None)
def test_dense_model_systems_match_the_lp_oracle(h):
    assert_matches_lp_oracle(h)


@given(
    st.integers(0, 4).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), max_size=6),
            st.lists(st.integers(-4, 4), min_size=m, max_size=m),
        )
    ),
    st.booleans(),
    st.data(),
)
@settings(max_examples=200, deadline=None)
# no columns, no rows, or neither: the unpriced programs draw no costs
@example(([], [0]), False, None)
@example(([[]], []), False, None)
@example(([], []), False, None)
def test_simplex_matches_the_lp_oracle(lp, priced, data):
    # nonnegative costs keep the program bounded; zero costs skip phase 2
    cols, b = lp
    cols = [tuple(col) for col in cols]
    cost = [data.draw(st.integers(0, 3)) if priced else 0 for _ in cols]
    assert _simplex(cols, tuple(b), cost) == lp_oracle._simplex(cols, tuple(b), cost)


# --- simplex against Fourier-Motzkin -------------------------------------------

@st.composite
def oracle_systems(draw):
    """Systems in dimensions 0-4 with Fraction offsets, zero rows, exact and
    scaled duplicate rows, and negated rows that empty the interior."""
    n = draw(st.integers(0, 4))
    r = draw(st.integers(0, 6 - n // 2))
    rows = [draw(st.tuples(*[st.integers(-2, 2)] * n)) for _ in range(r)]
    offsets = [
        draw(st.fractions(min_value=-2, max_value=3, max_denominator=3))
        for _ in range(r)
    ]
    for _ in range(draw(st.integers(0, 2)) if r else 0):
        i = draw(st.integers(0, r - 1))
        kind = draw(st.sampled_from(("exact", "scaled", "negated")))
        k = draw(st.integers(2, 3))
        if kind == "exact":
            rows.append(rows[i])
            offsets.append(offsets[i])
        elif kind == "scaled":
            rows.append(tuple(k * x for x in rows[i]))
            offsets.append(k * offsets[i])
        else:
            rows.append(tuple(-x for x in rows[i]))
            offsets.append(-offsets[i] + draw(st.integers(-1, 1)))
    return system(rows, offsets, n)


def row_values(h, point):
    return [
        sum(a * x for a, x in zip(h.c[i], point)) + h.offset[i]
        for i in range(h.c.rows)
    ]


def check_emptiness_certificate(h, lam, strict):
    assert len(lam) == h.c.rows and all(x >= 0 for x in lam) and any(lam)
    for k in range(h.c.cols):
        assert sum(l * h.c[i][k] for i, l in enumerate(lam)) == 0
    value = sum(l * o for l, o in zip(lam, h.offset))
    assert value <= 0 if strict else value < 0


@given(oracle_systems())
@example(system([], [], 3))
@example(system([(), ()], [1, Fraction(1, 2)], 0))
@example(system([(), ()], [1, 0], 0))
@example(system([(0, 0), (1, 1)], [Fraction(1, 3), 0], 2))
@example(system([(1, 2, 0), (-1, -2, 0), (0, 1, 1)], [Fraction(1, 2), Fraction(-1, 2), 1], 3))
@example(system([(2, 0), (1, 0), (0, 1), (-1, -1)], [1, Fraction(1, 2), 0, 5], 2))
@settings(max_examples=150, deadline=None)
def test_simplex_agrees_with_fourier_motzkin(h):
    assert_matches_lp_oracle(h)
    nonempty = strict_interior_nonempty(h)
    assert nonempty == fm_oracle.strict_interior_nonempty(h)
    point = strict_interior_point(h)
    assert (point is not None) == nonempty
    if nonempty:
        assert len(point) == h.c.cols and all(v > 0 for v in row_values(h, point))
    for strict in (True, False):
        lam = infeasibility_certificate(h, strict)
        assert (lam is None) == (fm_oracle.infeasibility_certificate(h, strict) is None)
        if lam is not None:
            check_emptiness_certificate(h, lam, strict)
    if nonempty:
        assert facets(h) == fm_oracle.facets(h)
    else:
        with pytest.raises(EmptyInteriorError):
            facets(h)


def dense_system(seed, n, kept, implied):
    """Tangent rows of a sphere, each a facet, then rows they imply.

    The kept rows c all have the same squared norm N and read c . x + N >= 0,
    so -(1 + eps) c violates row c alone; each implied row is a nonnegative
    integer combination of two to four of them with its offset loosened.
    The system is then translated by an integer point and shrunk by a
    rational factor.  Returns (system, separating points, multipliers).
    """
    rng = random.Random(seed)
    normals = set()
    while len(normals) < kept:
        c = [rng.choice((-1, 1)) for _ in range(n)]
        for k in rng.sample(range(n), 2):
            c[k] *= 2
        normals.add(tuple(c))
    normals = sorted(normals, key=lambda c: rng.random())
    norm = sum(x * x for x in normals[0])
    rows, offsets, multipliers = list(normals), [norm] * kept, []
    for _ in range(implied):
        lam = [0] * kept
        for i in rng.sample(range(kept), rng.randint(2, 4)):
            lam[i] = rng.randint(1, 3)
        rows.append(tuple(sum(l * c[k] for l, c in zip(lam, normals)) for k in range(n)))
        offsets.append(sum(lam) * norm + rng.randint(0, 2))
        multipliers.append(lam)
    shift = [rng.randint(-3, 3) for _ in range(n)]
    shrink = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    offsets = [
        (o + sum(a * u for a, u in zip(row, shift))) / shrink
        for row, o in zip(rows, offsets)
    ]
    eps = Fraction(1, 4 * norm)
    points = [
        tuple((-(1 + eps) * a - u) / shrink for a, u in zip(c, shift))
        for c in normals
    ]
    return system(rows, offsets, n), points, multipliers


@pytest.mark.parametrize("seed, n, kept, implied", [(5, 5, 8, 4), (6, 6, 12, 8), (7, 6, 14, 6)])
def test_facets_of_dense_systems(seed, n, kept, implied):
    h, points, multipliers = dense_system(seed, n, kept, implied)
    assert_matches_lp_oracle(h)
    rep = facets(h)
    assert rep.irredundant == tuple(range(kept))
    for j, p in enumerate(points):
        values = row_values(h, p)
        assert values[j] < 0
        assert all(v >= 0 for i, v in enumerate(values) if i != j)
    for j, lam in enumerate(multipliers, start=kept):
        for k in range(n):
            assert sum(l * h.c[i][k] for i, l in enumerate(lam)) == h.c[j][k]
        assert sum(l * h.offset[i] for i, l in enumerate(lam)) <= h.offset[j]


@pytest.fixture
def simplex_calls(monkeypatch):
    calls = []
    original = polyhedra._simplex

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polyhedra, "_simplex", counted)
    return calls


@pytest.mark.parametrize(
    "seed, n, kept, implied, polar",
    [(5, 5, 8, 4, 5), (6, 6, 12, 8, 6), (7, 6, 14, 6, 8)],
)
def test_dense_systems_certify_kept_rows_from_the_polar(
    seed, n, kept, implied, polar, simplex_calls
):
    # one interior LP, one LP per implied row, and one per kept row that the
    # polar functional leaves open.  The interior LP stops at margin 1, where
    # n of the tangent rows have slack 1, so the polar about that point is
    # skewed and rays from it leave through those rows first: not every
    # kept row is certified without an LP here.
    h, _, _ = dense_system(seed, n, kept, implied)
    assert facets(h).irredundant == tuple(range(kept))
    assert len(simplex_calls) == 1 + implied + kept - polar


@pytest.mark.parametrize("n, half", [(3, 2), (5, 4), (6, 1)])
def test_box_facets_need_no_row_lp(n, half, simplex_calls):
    # the 2n sides of the box |x_k| <= half, then rows they imply: a
    # loosened copy of each side and the sum of two opposite corners' rows
    rows, offsets = [], []
    for k in range(n):
        for sign in (1, -1):
            rows.append(tuple(sign * int(i == k) for i in range(n)))
            offsets.append(half)
    implied = [(tuple(2 * x for x in row), 2 * o + 1) for row, o in zip(rows, offsets)]
    implied.append((tuple([1] * n), n * half))
    implied.append((tuple([-1] * n), n * half + Fraction(1, 2)))
    h = system(rows + [r for r, _ in implied], offsets + [o for _, o in implied], n)
    assert facets(h).irredundant == tuple(range(2 * n))
    assert len(simplex_calls) == 1 + len(implied)


def per_row_facets(h):
    """Redundancy removal with one LP per row: the interior LP, then every
    row that is not an exact duplicate halfspace against the others and the
    slack, as the Farkas lemma in ``facets`` states it."""
    if not strict_interior_nonempty(h):
        raise EmptyInteriorError("no strict interior")
    seen, base = set(), []
    for i in range(h.c.rows):
        g = h.c.row_gcd(i)
        key = None if g == 0 else (tuple(x // g for x in h.c[i]), h.offset[i] / g)
        if key is None or key not in seen:
            seen.add(key)
            base.append(i)
    scale = lcm(*(h.offset[i].denominator for i in base))
    cols = [h.c[i] + (int(h.offset[i] * scale),) for i in base]
    slack = (0,) * h.c.cols + (1,)
    kept = []
    for pos, i in enumerate(base):
        lam, _, _ = _simplex(cols[:pos] + cols[pos + 1:] + [slack], cols[pos], [0] * len(cols))
        if lam is None:
            kept.append(i)
    normals = [tuple(x // h.c.row_gcd(i) for x in h.c[i]) for i in kept]
    kmap = tuple(kept.index(i) if i in kept else None for i in range(h.c.rows))
    return FacetReport(tuple(kept), IntMatrix(len(kept), h.c.cols, normals), kmap)


@st.composite
def polar_systems(draw):
    """Systems in dimensions 3-6 with 6-14 rows: rows with positive offsets
    around the origin, then exact, scaled and zero duplicates and implied
    rows (nonnegative combinations of two or three rows, offsets loosened),
    translated by an integer point and shrunk by a rational factor."""
    n = draw(st.integers(3, 6))
    r = draw(st.integers(6, 14))
    base = draw(st.integers(max(1, r // 2), r))
    entry = st.integers(-3, 3)
    rows = [draw(st.tuples(*[entry] * n)) for _ in range(base)]
    offsets = [Fraction(draw(st.integers(1, 6))) for _ in range(base)]
    while len(rows) < r:
        kind = draw(st.sampled_from(("exact", "scaled", "zero", "implied")))
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "exact":
            rows.append(rows[i])
            offsets.append(offsets[i])
        elif kind == "scaled":
            k = draw(st.integers(2, 3))
            rows.append(tuple(k * x for x in rows[i]))
            offsets.append(k * offsets[i])
        elif kind == "zero":
            rows.append((0,) * n)
            offsets.append(Fraction(draw(st.integers(0, 2))))
        else:
            picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=3))
            lam = [draw(st.integers(1, 3)) for _ in picks]
            rows.append(tuple(sum(l * rows[j][k] for l, j in zip(lam, picks)) for k in range(n)))
            offsets.append(sum(l * offsets[j] for l, j in zip(lam, picks)) + draw(st.integers(0, 2)))
    shift = [draw(st.integers(-3, 3)) for _ in range(n)]
    shrink = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    offsets = [
        (o + sum(a * u for a, u in zip(row, shift))) / shrink
        for row, o in zip(rows, offsets)
    ]
    return system(rows, offsets, n)


@given(polar_systems())
@settings(max_examples=100, deadline=None)
def test_polar_certificates_match_per_row_lps(h):
    try:
        expected = per_row_facets(h)
    except EmptyInteriorError:
        with pytest.raises(EmptyInteriorError):
            facets(h)
        return
    assert facets(h) == expected


# --- 2D boundary walk ---------------------------------------------------------

def test_vertices_and_rays_cotangent_total_space():
    # unbounded: the walk starts after the gap, so the region's rays are the
    # first edge reversed, (0, 1), and the last, (2, 1)
    edges, corners = _boundary(OM2)
    assert edges == [(0, (0, -1)), (2, (1, 0)), (1, (2, 1))]
    assert corners == [(0, 0), (1, 0)]


def test_vertices_unit_square_ccw_from_lexmin():
    h = system([(1, 0), (0, 1), (-1, 0), (0, -1)], (0, 0, 1, 1))
    points, edge_rows = moment_polygon(h.c, h.offset)
    assert points == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert edge_rows == [1, 2, 3, 0]


def test_row_scaling_does_not_change_geometry():
    a = system([(1, 0), (-1, 2), (0, 1)], (0, 1, 0))
    b = system([(3, 0), (-2, 4), (0, 5)], (0, 2, 0))
    assert _boundary(a) == _boundary(b)


@given(st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40)
def test_translation_moves_vertices(ux, uy):
    # replacing offset by offset + C @ u translates P by -u
    c = OM2.c
    shifted = [
        OM2.offset[i] + c[i][0] * ux + c[i][1] * uy for i in range(c.rows)
    ]
    edges, corners = _boundary(HalfspaceSystem(c, shifted))
    base_edges, base_corners = _boundary(OM2)
    assert edges == base_edges
    assert corners == [(x - ux, y - uy) for x, y in base_corners]
