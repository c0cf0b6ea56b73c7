"""Variety constructors and reconstruction from halfspace data."""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgdual.errors import (
    EmptyInteriorError,
    NotKopasepticError,
    ShapeMismatchError,
    ValidationError,
)
from lgdual.linalg import IntMatrix
from lgdual.toric import (
    ToricData,
    bundle_over_p1,
    from_linear_data,
    product,
    projective_line,
    split_bundle_total_space,
)


def test_projective_line():
    p1 = projective_line()
    assert p1.rank == 1
    assert p1.divisors == ("f0", "fInf")
    assert p1.dv == IntMatrix.from_rows([(1,), (-1,)])


def test_projective_line_chow():
    g = projective_line().chow_group()
    assert g.free_rank == 1 and g.torsion == ()
    assert tuple(g.free_projection()[0]) == (1, 1)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 9])
def test_line_bundle_rays(k):
    x = bundle_over_p1([-k])
    assert x.rank == 2
    assert x.divisors == ("f0", "fInf", "X1")
    assert x.dv == IntMatrix.from_rows([(1, 0), (-1, k), (0, 1)])


@pytest.mark.parametrize("k", [-1, 0, 1, 2, 4, 8])
def test_rank_two_family_rays(k):
    x = bundle_over_p1([k, -k - 2])
    assert x.divisors == ("f0", "fInf", "X1", "X2")
    assert x.dv == IntMatrix.from_rows(
        [(1, 0, 0), (-1, -k, k + 2), (0, 1, 0), (0, 0, 1)]
    )


def test_general_degrees_shape():
    x = bundle_over_p1([3, -1, 0])
    assert x.rank == 4
    assert x.dv[0] == (1, 0, 0, 0)
    assert x.dv[1] == (-1, -3, 1, 0)
    assert x.dv[2:] == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_degrees_must_be_nonempty():
    with pytest.raises(ValueError):
        bundle_over_p1([])


@pytest.mark.parametrize("degrees", [[-1.5], [-2.0], [Fraction(-2)], ["-2"]])
def test_degrees_must_be_integers(degrees):
    # truncating -1.5 would build O(-1)
    with pytest.raises(ValidationError, match="degrees must be integers"):
        bundle_over_p1(degrees)


def test_degrees_take_index_integers():
    np = pytest.importorskip("numpy")
    assert bundle_over_p1([np.int64(-1), True]).dv == bundle_over_p1([-1, 1]).dv


def test_chow_group_cotangent_case():
    g = bundle_over_p1([-2]).chow_group()
    assert g.free_rank == 1 and g.torsion == ()
    assert tuple(g.free_projection()[0]) == (1, 1, -2)


def test_chow_group_resolved_conifold():
    g = bundle_over_p1([-1, -1]).chow_group()
    assert g.free_rank == 1 and g.torsion == ()
    assert tuple(g.free_projection()[0]) == (1, 1, -1, -1)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=3))
@settings(max_examples=60)
def test_chow_free_rank_is_one_for_bundles(degrees):
    # r divisor rows, rank r-1 lattice, surjective with primitive rows
    g = bundle_over_p1(degrees).chow_group()
    assert g.free_rank == 1
    assert g.torsion == ()


def test_labels_match_row_count():
    with pytest.raises(ShapeMismatchError):
        ToricData(1, ("a", "b"), IntMatrix.from_rows([(1,)]))


def test_rank_matches_columns():
    with pytest.raises(ShapeMismatchError):
        ToricData(2, ("a",), IntMatrix.from_rows([(1,)]))


def test_projective_line_is_one_immutable_base():
    # every bundle over the line shares this base, so it must not change
    p1 = projective_line()
    assert p1 is projective_line()
    assert bundle_over_p1([-2]).dv.entries[:2] == ((1, 0), (-1, 2))
    with pytest.raises(FrozenInstanceError):
        p1.rank = 2
    with pytest.raises(FrozenInstanceError):
        p1.dv.entries = ((1,), (1,))
    assert p1.dv.entries == ((1,), (-1,))


def test_bundle_spec_row_check():
    base = projective_line()
    with pytest.raises(ShapeMismatchError) as raised:
        split_bundle_total_space(base, IntMatrix.from_rows([(1,)]))
    assert str(raised.value) == "divisor columns have 1 rows, base has 2 divisors"


def test_split_bundle_rejects_imprimitive_rays():
    base = ToricData(1, ("d",), IntMatrix.from_rows([(2,)]))
    with pytest.raises(NotKopasepticError) as raised:
        split_bundle_total_space(base, IntMatrix.from_rows([(0,)]))
    assert str(raised.value) == "ray row 0 is non-primitive (gcd 2)"
    assert raised.value.condition == "k-map"


def test_product_blocks():
    x = bundle_over_p1([-2])
    y = projective_line()
    z = product(x, y)
    assert z.rank == 3
    assert z.divisors == ("f0.1", "fInf.1", "X1.1", "f0.2", "fInf.2")
    assert z.dv == IntMatrix.from_rows(
        [(1, 0, 0), (-1, 2, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)]
    )


def test_product_with_torus_adds_its_rank():
    torus = ToricData(2, (), IntMatrix(0, 2, []))
    for z in (product(projective_line(), torus), product(torus, projective_line())):
        assert z.rank == 3 and z.dv.rows == 2 and z.dv.cols == 3
    assert product(projective_line(), torus).dv == IntMatrix.from_rows([(1, 0, 0), (-1, 0, 0)])
    assert product(torus, torus).rank == 4


def test_point_is_product_identity():
    x = bundle_over_p1([-1])
    point = ToricData(0, (), IntMatrix(0, 0, []))
    assert product(x, point) == x
    assert product(point, x) == x


# --- reconstruction ----------------------------------------------------------

def test_reconstruction_identity():
    dv = IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1)])
    variety, report = from_linear_data(dv, (0, 1, 0))
    assert report.is_identity()
    assert variety.dv == dv


def test_reconstruction_default_labels():
    dv = IntMatrix.from_rows([(1,), (-1,)])
    variety, _ = from_linear_data(dv, (0, 1))
    assert variety.divisors == ("D1", "D2")


def test_reconstruction_drops_redundant_row():
    rows = IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1), (1, 1)])
    variety, report = from_linear_data(rows, (0, 1, 0, 9))
    assert report.irredundant == (0, 1, 2)
    assert report.kmap == (0, 1, 2, None)
    assert variety.dv == IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1)])


def test_reconstruction_rejects_imprimitive_facet():
    rows = IntMatrix.from_rows([(2, 0), (0, 1), (-1, -1)])
    with pytest.raises(NotKopasepticError) as e:
        from_linear_data(rows, (0, 0, 5))
    assert e.value.condition == "k-map"
    # row 0 is dropped as redundant, so the kept row (2, 0) is input row 1
    rows = IntMatrix.from_rows([(1, 0), (2, 0), (0, 1), (-1, -1)])
    with pytest.raises(NotKopasepticError, match=r"^irredundant row 1 is non-primitive"):
        from_linear_data(rows, (10, 0, 0, 5))


def test_reconstruction_requires_interior():
    rows = IntMatrix.from_rows([(1, 0), (-1, 0)])
    with pytest.raises(EmptyInteriorError):
        from_linear_data(rows, (0, 0))


def test_reconstruction_accepts_fractional_offsets():
    dv = IntMatrix.from_rows([(1, 0), (-1, 2), (0, 1)])
    variety, report = from_linear_data(dv, (0, Fraction(1, 2), 0))
    assert report.is_identity()
    assert variety.dv == dv
