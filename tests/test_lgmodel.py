"""Models: superpotentials, class decorations, duals, and kopaseptic checks."""

import cmath
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgdual.complexq import ComplexQ
from lgdual.errors import (
    GroupMismatchError,
    NotKopasepticError,
    RegularityError,
    ShapeMismatchError,
    ValidationError,
)
from lgdual.lgmodel import (
    ChowClass,
    LGModel,
    LinearData,
    Superpotential,
    bundle_model,
    canonical_class,
    default_k_class,
    default_l_class,
    dualize,
    generic_sections,
    is_kopaseptic,
    is_regular,
    linear_data,
    mon_matrix,
    monomial_name,
    order_matrix,
    sum_models,
)
from call_log import log_calls
from lgdual import lgmodel, linalg, toric
from lgdual.linalg import IntMatrix, cokernel
from lgdual.toric import bundle_over_p1, projective_line

E2PI = cmath.exp(-2 * cmath.pi)  # |exp(2 pi i z)| for Im z = 1


# --- superpotential ----------------------------------------------------------

def test_superpotential_basic():
    w = Superpotential([(1, (0, 1)), (2.5, (1, 1))])
    assert len(w) == 2
    assert w.exponents() == ((0, 1), (1, 1))


def test_superpotential_rejects_zero_coefficient():
    with pytest.raises(ValidationError):
        Superpotential([(0, (1, 0))])


@pytest.mark.parametrize("exponent", [0.5, 1.0, Fraction(1), "1"])
def test_superpotential_rejects_non_integral_exponents(exponent):
    # an exponent is not truncated: 0.5 would become the monomial t2
    with pytest.raises(ValidationError, match="exponents must be integers"):
        Superpotential([(1, (exponent, 1))])


def test_superpotential_takes_index_integers():
    np = pytest.importorskip("numpy")
    w = Superpotential([(1, (True, np.int64(-2)))])
    assert w.exponents() == ((1, -2),)
    assert all(type(e) is int for e in w.exponents()[0])


@pytest.mark.parametrize("degrees", [(-1.5,), (-2.0,), (Fraction(-2),), ("-2",)])
def test_generic_sections_rejects_non_integral_degrees(degrees):
    with pytest.raises(ValidationError, match="degrees must be integers"):
        generic_sections(degrees)


def test_superpotential_rejects_duplicate_monomial():
    with pytest.raises(ValidationError):
        Superpotential([(1, (1, 0)), (2, (1, 0))])


def test_mon_matrix_empty_needs_rank():
    w = Superpotential(())
    m = mon_matrix(w, rank=3)
    assert (m.rows, m.cols) == (0, 3)


def test_generic_sections_line_bundle():
    w = generic_sections([-2])
    assert w.exponents() == ((0, 1), (1, 1), (2, 1))
    assert all(c == 1 for c, _ in w.terms)


def test_generic_sections_rank_two():
    w = generic_sections([-1, -1])
    assert w.exponents() == ((0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1))


def test_generic_sections_positive_degree_is_zero():
    assert generic_sections([1]).exponents() == ()
    assert generic_sections([0]).exponents() == ((0, 1),)


@pytest.mark.parametrize("rank", range(7))
def test_generic_sections_equal_the_validated_superpotential(rank):
    # Superpotential._trusted skips coercion and the duplicate check; over a
    # box of positive, zero and negative degrees its terms must equal what
    # the validating constructor makes of the same exponents
    for degrees in itertools.product((-4, -1, 0, 2), repeat=rank):
        w = generic_sections(degrees)
        exps = w.exponents()
        validated = Superpotential([(1, e) for e in exps])
        assert w == validated and hash(w) == hash(validated)
        assert all(type(c) is complex for c, _ in w.terms)
        assert all(type(x) is int for e in exps for x in e)
        assert len(set(exps)) == len(exps) == sum(max(1 - a, 0) for a in degrees)


def test_monomial_name():
    assert monomial_name((0, 0)) == "1"
    assert monomial_name((1, 0)) == "t1"
    assert monomial_name((2, 1)) == "t1^2*t2"
    assert monomial_name((-1, 2)) == "t1^-1*t2^2"


# --- regularity --------------------------------------------------------------

def test_order_matrix_cotangent_case():
    x = bundle_over_p1([-2])
    w = generic_sections([-2])
    om = order_matrix(x, w)
    assert om == IntMatrix.from_rows([(0, 1, 2), (2, 1, 0), (1, 1, 1)])


def test_is_regular():
    x = bundle_over_p1([-2])
    assert is_regular(x, generic_sections([-2]))
    assert not is_regular(x, Superpotential([(1, (-1, 1))]))


def test_regularity_error_reports_pairs():
    x = bundle_over_p1([-2])
    w = Superpotential([(1, (-1, 1))])
    with pytest.raises(RegularityError) as e:
        LGModel(x, w, default_k_class(x))
    assert e.value.pairs == ((0, 0, -1),)
    assert e.value.orders == IntMatrix.from_rows([(-1,), (3,), (1,)])
    assert "f0" in str(e.value)


@given(st.lists(st.integers(-4, 0), min_size=1, max_size=3))
@settings(max_examples=50)
def test_generic_sections_always_regular(degrees):
    # independently recompute each pairing <xi_i, v_k>
    x = bundle_over_p1(degrees)
    w = generic_sections(degrees)
    om = order_matrix(x, w)
    for k in range(x.dv.rows):
        for i, exps in enumerate(w.exponents()):
            pairing = sum(a * b for a, b in zip(x.dv[k], exps))
            assert om[k][i] == pairing
            assert pairing >= 0


@st.composite
def varieties_and_potentials(draw):
    """(variety, potential): rank 0-3, 0-4 rays with entries in [-2, 2]
    (zero and non-primitive rows included), and 0-4 distinct terms."""
    rank = draw(st.integers(0, 3))
    vectors = st.tuples(*[st.integers(-2, 2)] * rank)
    rows = draw(st.lists(vectors, max_size=4))
    exps = draw(st.lists(vectors, max_size=4, unique=True))
    labels = tuple("D%d" % (k + 1) for k in range(len(rows)))
    x = toric.ToricData(rank, labels, IntMatrix(len(rows), rank, rows))
    return x, Superpotential([(1, e) for e in exps])


@given(varieties_and_potentials())
@settings(max_examples=150, deadline=None)
def test_every_regularity_reader_sees_the_same_poles(case):
    # the poles are the negative entries of dv @ mon^T in row-major order;
    # LGModel, is_regular and the kopaseptic report must all read them so
    x, w = case
    om = order_matrix(x, w)
    mon = mon_matrix(w, rank=x.rank)
    assert (om.rows, om.cols) == (x.dv.rows, len(w))
    for k, ray in enumerate(x.dv):
        assert om[k] == tuple(sum(a * b for a, b in zip(ray, e)) for e in w.exponents())
    poles = tuple((k, i, v) for k, row in enumerate(om) for i, v in enumerate(row) if v < 0)
    assert is_regular(x, w) == (not poles)
    group = x.chow_group()
    k_class = ChowClass((ComplexQ(0, 1),) * x.dv.rows, group)
    try:
        LGModel(x, w, k_class)
        assert not poles
    except RegularityError as e:
        assert poles
        assert e.pairs == poles
        assert e.orders == om
    l_class = ChowClass((ComplexQ(0, 1),) * len(w), cokernel(mon))
    report = is_kopaseptic(LinearData(x.dv, k_class, mon, l_class))
    assert report.negative_orders == poles
    assert report.order_nonneg == (not poles)


# --- classes -----------------------------------------------------------------

def test_chow_class_values():
    x = bundle_over_p1([-2])
    k = default_k_class(x)
    assert k.values() == (ComplexQ(0, 1),)
    assert k.lift == (ComplexQ(0, 0), ComplexQ(0, 1), ComplexQ(0, 0))
    assert k.im_lift() == (0, 1, 0)


def test_canonical_lift_prefers_last_positive_entry():
    # projection (1, 1, -k): mass goes on index 1 for every k
    for k in (0, 1, 2, 5):
        g = bundle_over_p1([-k]).chow_group()
        c = canonical_class(g, [ComplexQ(0, 1)])
        assert c.im_lift() == (0, 1, 0)


def test_canonical_lift_falls_back_to_negative_entry():
    # projection of the exponent lattice of O(-2) sections is (1, -2, 1)
    g = cokernel(IntMatrix.from_rows([(0, 1), (1, 1), (2, 1)]))
    assert tuple(g.free_projection()[0]) == (1, -2, 1)
    c = canonical_class(g, [ComplexQ(0, 1)])
    assert c.im_lift() == (0, 0, 1)


def test_canonical_lift_resolved_conifold():
    g = bundle_over_p1([-1, -1]).chow_group()
    assert tuple(g.free_projection()[0]) == (1, 1, -1, -1)
    c = canonical_class(g, [ComplexQ(0, 1)])
    assert c.im_lift() == (0, 1, 0, 0)


def test_canonical_lift_rational_fallback():
    # no unit entries: functional (3, -2) forces a rational solve
    g = cokernel(IntMatrix.from_rows([(2,), (3,)]))
    assert tuple(g.free_projection()[0]) == (3, -2)
    c = canonical_class(g, [ComplexQ(1, 1)])
    assert c.values() == (ComplexQ(1, 1),)
    assert c.lift == (ComplexQ(Fraction(1, 3), Fraction(1, 3)), ComplexQ(0, 0))


def test_canonical_lift_free_rank_three_places_each_value():
    # every generator has a coordinate where only its row is +-1
    g = cokernel(IntMatrix.from_rows([(2, 1), (1, 1), (-1, -1), (0, 1), (1, 0)]))
    assert g.free_projection().entries == (
        (0, 1, 1, 0, 0), (1, -2, 0, 1, 0), (1, -1, 0, 0, -1)
    )
    values = (ComplexQ(Fraction(1, 2), 1), ComplexQ(Fraction(-1, 3)), ComplexQ(0, 2))
    c = canonical_class(g, values)
    assert c.lift == (
        ComplexQ(0), ComplexQ(0), values[0], values[1], ComplexQ(0, -2)
    )
    assert c.values() == values


def test_canonical_lift_solves_when_one_generator_has_no_unit_entry():
    # (1, 1, -1) could be placed, (3, -2, 0) cannot: both values are solved
    g = cokernel(IntMatrix.from_rows([(2,), (3,), (5,)]))
    assert g.free_projection().entries == ((3, -2, 0), (1, 1, -1))
    values = (ComplexQ(0, 1), ComplexQ(Fraction(1, 2), -3))
    c = canonical_class(g, values)
    assert c.lift == (
        ComplexQ(Fraction(1, 5), -1), ComplexQ(Fraction(3, 10), -2), ComplexQ(0)
    )
    assert c.values() == values


@given(st.integers(0, 6), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=60)
def test_canonical_class_roundtrips_values(k, re, im):
    g = bundle_over_p1([-k]).chow_group()
    c = canonical_class(g, [ComplexQ(re, im)])
    assert c.values() == (ComplexQ(re, im),)


def test_class_equivalence_mod_integers():
    x = bundle_over_p1([-2])
    g = x.chow_group()
    a = canonical_class(g, [ComplexQ(0, 1)])
    # shift the lift by an integer vector: same class
    b = ChowClass(
        tuple(z + w for z, w in zip(a.lift, (ComplexQ(3), ComplexQ(-1), ComplexQ(2)))),
        g,
    )
    assert a.equivalent(b) and b.equivalent(a)
    c = canonical_class(g, [ComplexQ(Fraction(1, 2), 1)])
    assert not a.equivalent(c)


def test_class_equivalence_needs_same_group():
    a = default_k_class(bundle_over_p1([-2]))
    b = default_k_class(bundle_over_p1([-3]))
    with pytest.raises(GroupMismatchError):
        a.equivalent(b)


def reference_apply(mat, vec):
    """mat @ vec as one ComplexQ x Fraction product per nonzero entry."""
    out = []
    for row in mat:
        acc = ComplexQ(0, 0)
        for a, z in zip(row, vec):
            if a:
                acc = acc + z * Fraction(a)
        out.append(acc)
    return tuple(out)


@st.composite
def classes_on_groups(draw):
    """A class group from a small integer matrix (free rank 0 included) and
    two lifts with mixed denominators and zero entries; the second lift is
    the first moved by an integer vector and a complex combination of the
    matrix columns, then perturbed or not."""
    r = draw(st.integers(0, 5))
    n = draw(st.integers(0, 3))
    a = IntMatrix.from_rows([draw(st.tuples(*[st.integers(-3, 3)] * n)) for _ in range(r)], n)
    group = cokernel(a)
    part = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=12))
    cq = st.builds(ComplexQ, part, part)
    lift = draw(st.one_of(st.lists(cq, min_size=r, max_size=r), st.just([ComplexQ(0, 0)] * r)))
    shift = [ComplexQ(draw(st.integers(-2, 2))) for _ in range(r)]
    coeffs = [draw(cq) for _ in range(n)]
    moved = [
        z + s + sum((c * Fraction(x) for c, x in zip(coeffs, a[i])), ComplexQ(0, 0))
        for i, (z, s) in enumerate(zip(lift, shift))
    ]
    if r and draw(st.booleans()):
        i = draw(st.integers(0, r - 1))
        moved[i] = moved[i] + draw(cq)
    return group, ChowClass(tuple(lift), group), ChowClass(tuple(moved), group)


@given(classes_on_groups())
@settings(max_examples=150, deadline=None)
def test_class_arithmetic_matches_complexq_products(case):
    group, x, y = case
    proj = group.free_projection()
    assert x.values() == reference_apply(proj, x.lift)
    assert y.values() == reference_apply(proj, y.lift)
    diff = tuple(p - q for p, q in zip(x.lift, y.lift))
    assert x.equivalent(y) == all(v.is_integer() for v in reference_apply(proj, diff))
    # canonical_class places each value with a +-1 entry, or solves for it
    assert canonical_class(group, x.values()).values() == x.values()


def test_model_rejects_exponent_of_wrong_length():
    x = bundle_over_p1([-2])
    with pytest.raises(ShapeMismatchError, match="does not have length 2"):
        LGModel(x, Superpotential([(1, (0, 0, 1))]), default_k_class(x))


def test_class_lift_and_values_must_fit_the_group():
    group = bundle_over_p1([-2]).chow_group()
    with pytest.raises(GroupMismatchError, match="lift length 2"):
        ChowClass((0, ComplexQ(0, 1)), group)
    with pytest.raises(GroupMismatchError, match="2 class values for free rank 1"):
        canonical_class(group, [ComplexQ(0, 1)] * 2)


def test_group_mismatch_on_model_build():
    x = bundle_over_p1([-2])
    wrong = default_k_class(bundle_over_p1([-3]))
    with pytest.raises(GroupMismatchError):
        LGModel(x, generic_sections([-2]), wrong)


@pytest.fixture
def class_group_calls(monkeypatch):
    """The matrices passed to cokernel and to snf, in every namespace that
    binds cokernel."""
    calls = {"cokernel": [], "snf": []}
    log_calls(monkeypatch, (linalg, lgmodel, toric), "cokernel", calls["cokernel"], lambda a: a)
    log_calls(monkeypatch, linalg, "snf", calls["snf"], lambda a: a)
    return calls


@pytest.mark.parametrize("degrees", [(-2,), (-1, -1), (0, 0, 0, -2), (1, -3)])
def test_bundle_model_computes_one_class_group(monkeypatch, class_group_calls, degrees):
    # the default K is built from the class group already computed, and a
    # bundle's (c+2) x (c+1) dv with spanning rows takes no Smith form
    m = bundle_model(degrees)
    assert class_group_calls == {"cokernel": [m.variety.dv], "snf": []}
    monkeypatch.undo()
    assert m.k_class == default_k_class(m.variety)


@pytest.mark.parametrize(
    "rows, free_rank, torsion",
    [
        ([(2,), (4,)], 1, (2,)),  # minors gcd 2: Z + Z/2
        ([(1, 2), (2, 4), (0, 0)], 2, ()),  # rank 1 below n = 2: every minor is 0
    ],
    ids=["torsion", "rank-below"],
)
def test_corank_one_fallback_takes_one_smith_form(class_group_calls, rows, free_rank, torsion):
    a = IntMatrix.from_rows(rows)
    g = linalg.cokernel(a)
    assert (g.free_rank, g.torsion) == (free_rank, torsion)
    assert class_group_calls == {"cokernel": [a], "snf": [a]}


def test_default_l_class_lives_on_exponent_cokernel():
    mon = bundle_model([-2]).mon()
    l = default_l_class(mon)
    assert l.group.source == mon
    assert l.values() == (ComplexQ(0, 1),)
    assert l.im_lift() == (0, 0, 1)


def test_default_lifts_share_their_values():
    # ComplexQ is frozen, so every default lift holds the same 0 and i:
    # a kept YES verdict carries its K without values of its own
    first, again, other = bundle_model((-2,)), bundle_model((-2,)), bundle_model((0, 0, 0, 0, 0, -2))
    assert first.k_class.lift == (ComplexQ(0, 0), ComplexQ(0, 1), ComplexQ(0, 0))
    assert all(a is b for a, b in zip(first.k_class.lift, again.k_class.lift))
    assert all(a is b for a, b in zip(first.k_class.lift, other.k_class.lift))
    lifts = first.k_class.lift + other.k_class.lift + default_l_class(other.mon()).lift
    assert len({id(z) for z in lifts}) == 2


# --- linear data and kopaseptic report ---------------------------------------

def test_linear_data_packages_pairs():
    m = bundle_model([-2])
    d = linear_data(m)
    assert d.a == m.variety.dv
    assert d.b == m.mon()
    assert d.k is m.k_class
    swapped = d.swapped()
    assert swapped.a == d.b and swapped.l is d.k


def test_linear_data_checks_l_group():
    m = bundle_model([-2])
    with pytest.raises(GroupMismatchError):
        linear_data(m, l=m.k_class)


def test_linear_data_shape_check():
    m = bundle_model([-2])
    with pytest.raises(ShapeMismatchError):
        LinearData(m.variety.dv, m.k_class, projective_line().dv, m.k_class)


def test_kopaseptic_both_ways_for_cotangent_case():
    d = linear_data(bundle_model([-2]))
    assert is_kopaseptic(d).passed
    assert is_kopaseptic(d.swapped()).passed


def test_kopaseptic_report_order_failure():
    p1 = projective_line()
    k = default_k_class(p1)
    b = IntMatrix.from_rows([(-1,)])
    l = default_l_class(b)
    report = is_kopaseptic(LinearData(p1.dv, k, b, l))
    assert report.interior_nonempty and report.kmap_exists
    assert not report.order_nonneg
    assert report.first_failure() == "order-matrix"
    assert report.negative_orders == ((0, 0, -1),)


def test_kopaseptic_report_interior_failure():
    rows = IntMatrix.from_rows([(1,), (-1,)])
    k = ChowClass((ComplexQ(0, 0), ComplexQ(0, 0)), cokernel(rows))
    d = LinearData(rows, k, rows, k)
    report = is_kopaseptic(d)
    assert not report.interior_nonempty
    assert report.first_failure() == "interior"


# --- dualize ------------------------------------------------------------------

def test_dual_of_cotangent_total_space():
    m = bundle_model([-2])
    dual = dualize(linear_data(m))
    assert dual.variety.dv == IntMatrix.from_rows([(0, 1), (1, 1), (2, 1)])
    assert dual.variety.divisors == ("m1", "m2", "m3")
    assert dual.k_class.im_lift() == (0, 0, 1)
    assert dual.potential.exponents() == ((1, 0), (-1, 2), (0, 1))
    coeffs = [c for c, _ in dual.potential.terms]
    assert coeffs[0] == pytest.approx(1)
    assert coeffs[1] == pytest.approx(E2PI)
    assert coeffs[2] == pytest.approx(1)


def test_dual_of_resolved_conifold():
    m = bundle_model([-1, -1])
    dual = dualize(linear_data(m))
    assert dual.variety.dv == IntMatrix.from_rows(
        [(0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)]
    )
    assert dual.potential.exponents() == m.variety.dv.entries


def test_dual_drops_redundant_exponent_row():
    m = bundle_model([-3])
    dual = dualize(linear_data(m))
    # row (2,1) of mon is redundant at the default offsets
    assert dual.variety.divisors == ("m1", "m2", "m4")
    assert dual.variety.dv == IntMatrix.from_rows([(0, 1), (1, 1), (3, 1)])


def test_dualize_requires_kopaseptic_swap():
    from lgdual.toric import ToricData

    # W = t1^2 + t2 on the plane: exponent row (2, 0) is non-primitive but
    # irredundant, so the swapped data cannot rebuild a variety
    x = ToricData(2, ("D1", "D2"), IntMatrix.identity(2))
    w = Superpotential([(1, (2, 0)), (1, (0, 1))])
    m = LGModel(x, w, default_k_class(x))
    with pytest.raises(NotKopasepticError) as e:
        dualize(linear_data(m))
    assert e.value.condition == "k-map"


def test_double_dual_restores_cotangent_model():
    m = bundle_model([-2])
    dual = dualize(linear_data(m))
    back = ChowClass(m.k_class.lift, cokernel(dual.mon()))
    ddual = dualize(linear_data(dual, l=back))
    assert ddual.variety.dv == m.variety.dv
    assert ddual.mon() == m.mon()
    assert ddual.k_class.equivalent(m.k_class)


# --- sums ---------------------------------------------------------------------

def test_sum_models_pads_exponents():
    m1 = bundle_model([-2])
    m2 = bundle_model([-1])
    s = sum_models(m1, m2)
    assert s.variety.rank == 4
    exps = s.potential.exponents()
    assert exps[0] == (0, 1, 0, 0)
    assert exps[3] == (0, 0, 0, 1)
    assert len(exps) == len(m1.potential.terms) + len(m2.potential.terms)
    assert s.k_class.lift == m1.k_class.lift + m2.k_class.lift


def test_sum_with_torus_model_keeps_both_factors():
    # a torus has rays in no direction, but only the point is the identity
    torus = toric.ToricData(2, (), IntMatrix(0, 2, []))
    t = LGModel(torus, Superpotential([(1, (1, 0)), (2, (-1, 3))]), ChowClass((), torus.chow_group()))
    m = bundle_model([-2])
    s = sum_models(m, t)
    assert s.variety.rank == 4
    assert s.variety.divisors == ("f0.1", "fInf.1", "X1.1")
    assert s.potential.exponents()[3:] == ((0, 0, 1, 0), (0, 0, -1, 3))
    assert sum_models(t, m).variety.rank == 4


def test_sum_with_empty_model_is_identity():
    m = bundle_model([-2])
    point = toric.ToricData(0, (), IntMatrix(0, 0, []))
    empty = LGModel(point, Superpotential(()), ChowClass((), point.chow_group()))
    s = sum_models(m, empty)
    assert s.variety == m.variety
    assert s.potential.exponents() == m.potential.exponents()
