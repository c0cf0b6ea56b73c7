"""Moment polytope extraction and SVG rendering for rank-2 models, and the
facet walk checked against the pairwise-intersection oracle in
``polygon_oracle``."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from call_log import log_calls
import polygon_oracle
from lgdual import polyhedra
from lgdual.errors import DimensionMismatchError, EmptyInteriorError, ValidationError
from lgdual.lgmodel import LGModel, bundle_model, canonical_class
from lgdual.linalg import IntMatrix
from lgdual.svg import moment_polygon, render_svg
from lgdual.toric import ToricData, bundle_over_p1


def test_polygon_for_twist_two_bundle():
    dv = bundle_over_p1([-2]).dv
    points, edge_rows = moment_polygon(dv, (0, 1, 0))
    assert points == [(0, 1), (0, 0), (1, 0), (3, 1)]
    assert edge_rows == [0, 2, 1, None]


def test_polygon_for_twist_one_bundle():
    dv = bundle_over_p1([-1]).dv
    points, edge_rows = moment_polygon(dv, (0, 1, 0))
    assert points == [(0, 1), (0, 0), (1, 0), (2, 1)]
    assert edge_rows == [0, 2, 1, None]


def test_polygon_for_trivial_bundle_is_a_strip():
    dv = bundle_over_p1([0]).dv
    points, edge_rows = moment_polygon(dv, (0, 1, 0))
    assert points == [(0, 1), (0, 0), (1, 0), (1, 1)]
    assert edge_rows == [0, 2, 1, None]


def test_polygon_truncation_height_moves_cut_points():
    dv = bundle_over_p1([-2]).dv
    points, _ = moment_polygon(dv, (0, 1, 0), truncate=2)
    assert points == [(0, 2), (0, 0), (1, 0), (5, 2)]
    points, _ = moment_polygon(dv, (0, 1, 0), truncate=Fraction(1, 2))
    assert points == [(0, Fraction(1, 2)), (0, 0), (1, 0), (2, Fraction(1, 2))]


def test_polygon_negative_class_drops_redundant_facet():
    # with Im K = (0, -1, 0) the third halfplane is implied by the others
    dv = bundle_over_p1([-2]).dv
    points, edge_rows = moment_polygon(dv, (0, -1, 0))
    assert points == [(0, 1), (0, Fraction(1, 2)), (1, 1)]
    assert edge_rows == [0, 1, None]


def test_polygon_bounded_square():
    dv = IntMatrix.from_rows([(1, 0), (-1, 0), (0, 1), (0, -1)])
    points, edge_rows = moment_polygon(dv, (0, 1, 0, 1))
    assert points == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert edge_rows == [2, 1, 3, 0]


def test_polygon_ray_below_cut_height_takes_unit_step():
    dv = IntMatrix.from_rows([(0, 1), (-1, 0)])
    points, edge_rows = moment_polygon(dv, (0, 0))
    assert points == [(-1, 0), (0, 0), (0, 1)]
    assert edge_rows == [0, 1, None]


def test_polygon_edges_that_never_rise_take_a_unit_step_at_any_height():
    # x >= 0, y <= 0: both unbounded edges fall or run level, so no height cuts them
    dv = IntMatrix.from_rows([(1, 0), (0, -1)])
    for height in (-1, 0, 5):
        points, edge_rows = moment_polygon(dv, (0, 0), truncate=height)
        assert points == [(1, 0), (0, 0), (0, -1)]
        assert edge_rows == [1, 0, None]


@pytest.mark.parametrize(
    "k, offset, height",
    [
        (2, (0, 1, 0), 0),  # the vertices lie on the cut
        (2, (0, 1, 0), -1),
        (1, (0, -1, 0), 1),  # K = -i: the vertex (0, 1) lies on the default cut
        (2, (0, -1, 0), Fraction(1, 3)),  # below the vertex (0, 1/2)
    ],
)
def test_polygon_rejects_a_height_that_cuts_no_rising_edge(k, offset, height):
    # a height at or below the vertex of a rising edge cuts nothing off it
    with pytest.raises(ValidationError) as e:
        moment_polygon(bundle_over_p1([-k]).dv, offset, truncate=height)
    assert str(e.value) == (
        "truncation height %s is not above the vertex of a rising unbounded edge" % height
    )


def test_polygon_rejects_wrong_width():
    with pytest.raises(DimensionMismatchError):
        moment_polygon(IntMatrix.from_rows([(1, 0, 0)]), (0,))


def test_polygon_rejects_empty_region():
    dv = IntMatrix.from_rows([(1, 0), (-1, 0)])
    with pytest.raises(EmptyInteriorError):
        moment_polygon(dv, (0, -1))


def test_polygon_rejects_vertexless_region():
    with pytest.raises(ValidationError):
        moment_polygon(IntMatrix.from_rows([(0, 1)]), (0,))


# --- rendering ----------------------------------------------------------------

def test_render_known_polygon_points():
    svg = render_svg(bundle_model([-2]))
    assert svg.startswith('<?xml version="1.0"')
    assert '<polygon points="0,-1 0,0 1,0 3,-1"' in svg


def test_render_honors_truncation():
    svg = render_svg(bundle_model([-2]), truncate=Fraction(1, 2))
    assert '<polygon points="0,-0.5 0,0 1,0 2,-0.5"' in svg


def test_render_one_label_per_facet():
    svg = render_svg(bundle_model([-2]))
    assert svg.count("<text") == 3
    for name in (">f0<", ">f∞<", ">ℓ<"):
        assert name in svg


def test_render_uses_raw_labels_off_the_bundle_chart():
    v = bundle_over_p1([-2])
    m = bundle_model([-2])
    relabeled = LGModel(
        ToricData(v.rank, ("A", "B", "C"), v.dv), m.potential, m.k_class
    )
    svg = render_svg(relabeled)
    assert ">A<" in svg and ">B<" in svg and ">C<" in svg
    assert "f∞" not in svg


def test_render_requires_rank_two():
    with pytest.raises(DimensionMismatchError):
        render_svg(bundle_model([-1, -1]))


def test_render_is_deterministic():
    assert render_svg(bundle_model([-1])) == render_svg(bundle_model([-1]))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 6])
def test_render_point_count_is_vertices_plus_cuts(k):
    m = bundle_model([-k])
    points, edge_rows = moment_polygon(m.variety.dv, m.k_class.im_lift())
    svg = render_svg(m)
    polygon = svg.split('points="')[1].split('"')[0]
    assert len(polygon.split()) == len(points)
    assert svg.count("<text") == sum(1 for r in edge_rows if r is not None)
    labeled = sorted(r for r in edge_rows if r is not None)
    assert labeled == list(range(m.variety.dv.rows))


# --- the facet walk against the pairwise-intersection oracle -----------------

def outcome(f, *args):
    """repr of the result, so Fraction and int entries must agree too, or
    the error's type and message."""
    try:
        return repr(f(*args))
    except Exception as e:
        return type(e), str(e)


@st.composite
def plane_systems(draw):
    """(dv, offset, truncate): rows in [-3, 3]^n, zero rows included, some
    scaled by a gcd > 1, and strips and half-planes drawn on purpose."""
    n = draw(st.sampled_from([1, 2, 2, 2, 2]))
    entries = st.tuples(*[st.integers(-3, 3)] * n)
    rows = draw(st.lists(entries, min_size=1, max_size=7))
    if draw(st.booleans()):
        # the opposite of the first row: a strip, a line or nothing
        rows.append(tuple(-x for x in rows[0]))
    rows = [tuple(draw(st.sampled_from([1, 1, 2, 3])) * x for x in row) for row in rows]
    offsets = draw(
        st.lists(
            st.fractions(-4, 4, max_denominator=3), min_size=len(rows), max_size=len(rows)
        )
    )
    truncate = draw(st.sampled_from([1, 2, Fraction(1, 2), 0, -1]))
    return IntMatrix.from_rows(rows, n), offsets, truncate


@given(plane_systems())
@example((IntMatrix.from_rows([(1, 0), (-1, 0)]), [0, 1], 1))  # strip
@example((IntMatrix.from_rows([(1, 0), (-1, 0), (0, 1)]), [0, 1, 0], 0))  # half-strip
@example((IntMatrix.from_rows([(0, 2)]), [1], 1))  # half-plane, scaled row
@example((IntMatrix.from_rows([(0, 0), (1, 0), (0, 1)]), [1, 0, 0], -1))  # zero row
@example((IntMatrix.from_rows([(2, 0), (0, 3), (-1, -1)]), [0, 0, 1], 1))  # gcd > 1
@example((IntMatrix.from_rows([(1, 0), (-1, 0)]), [0, 0], 1))  # empty interior
@example((IntMatrix.from_rows([(1,), (-1,)]), [0, 1], 1))  # 1D
@example((IntMatrix.from_rows([(2,), (-3,)]), [1, 2], 1))  # 1D bounded interval, scaled rows
@example((IntMatrix.from_rows([(1,)]), [-1], 1))  # 1D half-line
@example((IntMatrix.from_rows([(1,), (1,), (-1,), (0,)]), [0, 1, 2, 1], 1))  # 1D, redundant rows
@example((IntMatrix.from_rows([], 2), [], 1))  # the whole plane
@settings(max_examples=400, deadline=None)
def test_facet_walk_matches_oracle(case):
    dv, offset, truncate = case
    assert outcome(moment_polygon, dv, offset, truncate) == outcome(
        polygon_oracle.moment_polygon, dv, offset, truncate
    )


@pytest.mark.parametrize(
    "dv, offset",
    [
        (bundle_over_p1([-2]).dv, (0, 1, 0)),  # unbounded
        (IntMatrix.from_rows([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]), (0, 1, 0, 1, 5)),
    ],
)
def test_polygon_takes_one_facet_pass(dv, offset, monkeypatch):
    calls = log_calls(monkeypatch, polyhedra, "facets", [], lambda h: h)
    moment_polygon(dv, offset)
    assert len(calls) == 1
