"""Landau-Ginzburg models and their linear data.

A model is a triple (variety, superpotential, K): the superpotential is a
finite combination of torus characters that must be regular on the variety,
and K is a complexified Kahler-type class living in the divisor class group
with C/Z coefficients.  The pair of matrices (dv, mon) plus the classes
(K, L) form the model's linear data; Clarke's dual is obtained by swapping
the two halves, which is implemented here as ``dualize``.
"""

import cmath
from fractions import Fraction

from .complexq import ComplexQ, _Frozen, _quoted
from .errors import (
    EmptyInteriorError,
    GroupMismatchError,
    NotKopasepticError,
    RegularityError,
    ShapeMismatchError,
    ValidationError,
)
from .linalg import IntMatrix, _bareiss_solve, _integers, _scaled, cokernel
from .toric import ToricData, bundle_over_p1, from_linear_data, product

__all__ = [
    "Superpotential",
    "ChowClass",
    "LGModel",
    "LinearData",
    "KopasepticReport",
    "mon_matrix",
    "order_matrix",
    "is_regular",
    "generic_sections",
    "canonical_class",
    "default_k_class",
    "default_l_class",
    "bundle_model",
    "linear_data",
    "is_kopaseptic",
    "dualize",
    "sum_models",
    "monomial_name",
]


class Superpotential(_Frozen):
    """Ordered terms (coefficient, exponent vector); exponents are distinct."""

    _fields = ("terms",)

    def __init__(self, terms):
        cooked = []
        for coeff, exps in terms:
            try:
                z = complex(coeff)
            except OverflowError:
                raise ValidationError("coefficient %s is too large for a float" % _quoted(coeff)) from None
            small = not z and coeff  # 0.0 as a float, yet nonzero
            if isinstance(coeff, ComplexQ):  # either part may underflow on its own
                small = not z.real and coeff.re or not z.imag and coeff.im
            if small:
                raise ValidationError("coefficient %s is too small for a float" % _quoted(coeff))
            if z == 0:
                raise ValidationError("superpotential coefficients must be nonzero")
            cooked.append((z, _integers(exps, "exponents")))
        seen = set()
        for _, exps in cooked:
            if exps in seen:
                raise ValidationError("duplicate monomial %r in superpotential" % (exps,))
            seen.add(exps)
        object.__setattr__(self, "terms", tuple(cooked))

    @classmethod
    def _trusted(cls, exponents):
        """Unit-coefficient terms on exponent tuples of ints that lgdual made
        itself, distinct by construction: no coercion and no duplicate check."""
        w = object.__new__(cls)
        object.__setattr__(w, "terms", tuple([(1 + 0j, e) for e in exponents]))
        return w

    def __len__(self):
        return len(self.terms)

    def exponents(self):
        return tuple([exps for _, exps in self.terms])  # see IntMatrix.__init__


def mon_matrix(w, rank):
    """Exponent matrix: one row per term, in term order, each of length
    rank.  Superpotential has made every exponent an int, so only the
    lengths are checked."""
    exps = w.exponents()
    for e in exps:
        if len(e) != rank:
            raise ShapeMismatchError("exponent %r does not have length %d" % (e, rank))
    return IntMatrix._trusted(len(exps), rank, exps)


def _orders(a, b):
    """a @ b^T and its negative entries (k, i, order) in row-major order: for
    (dv, mon) the order matrix and the poles; no terms give rows x 0, no poles."""
    om = a @ b.transpose()
    return om, tuple([(k, i, v) for k, row in enumerate(om) for i, v in enumerate(row) if v < 0])


def order_matrix(x, w):
    """dv @ mon^T: entry (k, i) is the vanishing order of term i along divisor k."""
    return _orders(x.dv, mon_matrix(w, rank=x.rank))[0]


def is_regular(x, w):
    """True iff every term extends over every invariant divisor (all orders >= 0)."""
    return not _orders(x.dv, mon_matrix(w, rank=x.rank))[1]


MAX_GENERIC_TERMS = 10_000  # the most terms, sum of max(0, 1 - a), a generic potential may have


def generic_sections(degrees):
    """Generic superpotential of a split bundle over the projective line.

    Each summand of degree a <= 0 contributes the sections t1^j * sigma_i
    for 0 <= j <= -a (unit coefficients); positive-degree summands have no
    sections and contribute nothing.  More than MAX_GENERIC_TERMS are refused.
    """
    degrees = _integers(degrees, "degrees")
    count = sum([1 - a for a in degrees if a < 1])
    if count > MAX_GENERIC_TERMS:
        raise ValidationError(
            "generic potential has %s terms, over the limit of %d" % (_quoted(count), MAX_GENERIC_TERMS)
        )
    c = len(degrees)
    units = [tuple([1 if t == i else 0 for t in range(c)]) for i in range(c)]
    return Superpotential._trusted(
        [(j,) + unit for a, unit in zip(degrees, units) for j in range(-a + 1)]
    )


# ---------------------------------------------------------------------------
# Classes with C/Z coefficients; ComplexQ is frozen, so default lifts share 0 and i

_ZERO, _I = ComplexQ(0, 0), ComplexQ(0, 1)


def _numerators(vec):
    """(d, re, im): the ComplexQ entries of vec as integer numerators over
    one common denominator d."""
    d, nums = _scaled([q for z in vec for q in (z.re, z.im)])
    return d, nums[0::2], nums[1::2]


def _mat_apply(mat, vec):
    """mat @ vec for an integer mat and ComplexQ vec, taken on integer
    numerators: one ComplexQ per output entry."""
    d, re, im = _numerators(vec)
    return tuple(
        ComplexQ(
            Fraction(sum(a * x for a, x in zip(row, re)), d),
            Fraction(sum(a * x for a, x in zip(row, im)), d),
        )
        for row in mat
    )


class ChowClass(_Frozen):
    """A class in (cokernel) tensor C/Z, stored through an explicit lift.

    Two classes are equivalent iff their lifts differ by an integer vector
    plus a complex combination of the defining map's columns; since torsion
    dies after tensoring with C/Z, that is exactly integrality of the free
    projection of the difference.
    """

    __slots__ = _fields = ("lift", "group")

    def __init__(self, lift, group):
        lift = tuple(z if isinstance(z, ComplexQ) else ComplexQ(z) for z in lift)
        if len(lift) != group.projection.cols:
            raise GroupMismatchError(
                "lift length %d does not match group on %d generators"
                % (len(lift), group.projection.cols)
            )
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "group", group)

    def values(self):
        """Per-free-generator class values (the free projection of the lift)."""
        return _mat_apply(self.group.free_projection(), self.lift)

    def im_lift(self):
        return tuple(z.im for z in self.lift)

    def equivalent(self, other):
        if self.group.source != other.group.source:
            raise GroupMismatchError("classes live on different group presentations")
        diff = tuple(a - b for a, b in zip(self.lift, other.lift))
        return all(v.is_integer() for v in _mat_apply(self.group.free_projection(), diff))


def canonical_class(group, values):
    """Lift per-generator class values to an explicit vector.

    Puts each value's mass on the last coordinate where that generator's
    projection row has a +1 entry (failing that, a -1 entry) and the other
    rows vanish; falls back to the reduced row echelon solution, solved
    fraction-free over one common denominator, when no such coordinate
    exists.  Different lifts of one class translate the halfspace
    polyhedron without changing its facet structure, so this choice only
    normalizes reported offsets and drawn coordinates.
    """
    values = [v if isinstance(v, ComplexQ) else ComplexQ(v) for v in values]
    f = group.free_rank
    if len(values) != f:
        raise GroupMismatchError("%d class values for free rank %d" % (len(values), f))
    r = group.projection.cols
    proj = group.free_projection()
    lift = [_ZERO] * r
    # a coordinate placed for one generator is nonzero in its row, so no
    # other generator can pick it
    for g, row in enumerate(proj):
        j = next(
            (j for want in (1, -1) for j in range(r - 1, -1, -1)
             if row[j] == want and all(proj[h][j] == 0 for h in range(f) if h != g)),
            None,
        )
        if j is None:
            break
        lift[j] = values[g] if row[j] == 1 else -values[g]
    else:
        return ChowClass(tuple(lift), group)
    scale, re, im = _numerators(values)
    d, (re, im) = _bareiss_solve(proj, [re, im])
    d *= scale
    lift = tuple(ComplexQ(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, im))
    return ChowClass(lift, group)


def _default_class(group):
    """The class with value i on every free generator of group."""
    return canonical_class(group, [_I] * group.free_rank)


def default_k_class(variety):
    """K with class value i on every free generator (positive imaginary part)."""
    return _default_class(variety.chow_group())


def default_l_class(mon):
    return _default_class(cokernel(mon))


# ---------------------------------------------------------------------------
# Models

class LGModel(_Frozen):
    """A model (variety, potential, K).  The exponent matrix and the order
    matrix dv @ mon^T that the regularity check forms are kept, so mon()
    and order_matrix() return them."""

    _fields = ("variety", "potential", "k_class")

    def __init__(self, variety, potential, k_class):
        if k_class.group.source != variety.dv:
            raise GroupMismatchError("K class group is not the variety's divisor class group")
        mon = mon_matrix(potential, rank=variety.rank)
        om, poles = _orders(variety.dv, mon)
        if poles:
            k, i, v = poles[0]
            raise RegularityError(
                "superpotential term %d has a pole of order %s along divisor %s"
                % (i, _quoted(-v), variety.divisors[k]),
                pairs=poles,
                orders=om,
            )
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "potential", potential)
        object.__setattr__(self, "k_class", k_class)
        object.__setattr__(self, "_mon", mon)
        object.__setattr__(self, "_order_matrix", om)

    def mon(self):
        return self._mon

    def order_matrix(self):
        return self._order_matrix


def bundle_model(degrees):
    """Model on Tot(⊕O(a_i)) with its generic superpotential and K = i on
    each free generator of the class group."""
    variety = bundle_over_p1(degrees)
    return LGModel(variety, generic_sections(degrees), default_k_class(variety))


class LinearData(_Frozen):
    """The two matrix/class pairs (a, k) and (b, l) of a model."""

    _fields = ("a", "k", "b", "l")

    def __init__(self, a, k, b, l):
        if a.cols != b.cols:
            raise ShapeMismatchError(
                "paired matrices must share their domain: %d vs %d columns" % (a.cols, b.cols)
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "l", l)

    def swapped(self):
        return LinearData(self.b, self.l, self.a, self.k)


def linear_data(m, l=None):
    """Package a model's (dv, K) and (mon, L); L defaults to class value i."""
    mon = m.mon()
    if l is None:
        l = default_l_class(mon)
    elif l.group.source != mon:
        raise GroupMismatchError("L class group is not the cokernel of the exponent matrix")
    return LinearData(m.variety.dv, m.k_class, mon, l)


class KopasepticReport(_Frozen):
    """The three kopaseptic conditions for linear data (a, k), (b, l):
    nonempty strict interior of {a xi + Im k >= 0}, existence of a
    generator-to-generator-or-zero reconstruction map, and nonnegativity
    of a @ b^T.  ``passed`` is their conjunction."""

    _fields = (
        "interior_nonempty", "kmap_exists", "order_nonneg", "facet_report", "negative_orders"
    )

    def __init__(self, interior_nonempty, kmap_exists, order_nonneg, facet_report, negative_orders):
        object.__setattr__(self, "interior_nonempty", interior_nonempty)
        object.__setattr__(self, "kmap_exists", kmap_exists)
        object.__setattr__(self, "order_nonneg", order_nonneg)
        object.__setattr__(self, "facet_report", facet_report)
        object.__setattr__(self, "negative_orders", negative_orders)

    @property
    def passed(self):
        return self.interior_nonempty and self.kmap_exists and self.order_nonneg

    @property
    def kmap_identity(self):
        return self.kmap_exists and self.facet_report.is_identity()

    def first_failure(self):
        if not self.interior_nonempty:
            return "interior"
        if not self.kmap_exists:
            return "k-map"
        if not self.order_nonneg:
            return "order-matrix"
        return None


def is_kopaseptic(d):
    """Check the kopaseptic conditions of linear data in its given orientation."""
    facet_report = None
    try:
        _, facet_report = from_linear_data(d.a, d.k.im_lift())
        interior = kmap_exists = True
    except EmptyInteriorError:
        interior = kmap_exists = False
    except NotKopasepticError:
        interior, kmap_exists = True, False
    negative = _orders(d.a, d.b)[1]
    return KopasepticReport(interior, kmap_exists, not negative, facet_report, negative)


def dualize(d):
    """Clarke's dual of kopaseptic linear data, as a model.

    The variety is rebuilt from (b, Im l); the dual potential's terms are
    the rows of a with coefficients exp(2 pi i k_j); the dual K class is l
    pushed through the reconstruction map (dropped rows disappear).
    """
    report = is_kopaseptic(d.swapped())
    if not report.passed:
        cond = report.first_failure()
        raise NotKopasepticError("swapped linear data fails the %s condition" % cond, condition=cond)
    kept = report.facet_report.irredundant
    labels = tuple("m%d" % (i + 1) for i in kept)
    variety = ToricData(d.b.cols, labels, report.facet_report.primitive_normals)
    # with every row kept the variety's rays are b, whose class group l holds
    group = d.l.group if d.l.group.source == variety.dv else variety.chow_group()
    terms = []
    for j in range(d.a.rows):
        try:
            coeff = cmath.exp(2j * cmath.pi * complex(d.k.lift[j]))
        except OverflowError:
            coeff = 0
        if coeff == 0:  # exp never vanishes, so the float range was left
            raise ValidationError(
                "K lift entry %s gives a dual coefficient exp(2 pi i k) outside the float range"
                % _quoted(d.k.lift[j])
            )
        terms.append((coeff, tuple(d.a[j])))
    potential = Superpotential(terms)
    k_class = ChowClass(tuple(d.l.lift[i] for i in kept), group)
    return LGModel(variety, potential, k_class)


def sum_models(m1, m2):
    """Product variety, sum of potentials (exponents padded), classes stacked."""
    variety = product(m1.variety, m2.variety)
    n1, n2 = m1.variety.rank, m2.variety.rank
    terms = [(c, e + (0,) * n2) for c, e in m1.potential.terms]
    terms += [(c, (0,) * n1 + e) for c, e in m2.potential.terms]
    k_class = ChowClass(m1.k_class.lift + m2.k_class.lift, variety.chow_group())
    return LGModel(variety, Superpotential(terms), k_class)


def monomial_name(exps):
    """Display form of an exponent vector as a Laurent monomial in t1, t2, ..."""
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        parts.append("t%d" % (i + 1) if e == 1 else "t%d^%d" % (i + 1, e))
    return "*".join(parts) if parts else "1"
