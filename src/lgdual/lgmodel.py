"""Landau-Ginzburg models and their linear data.

A model is a triple (variety, superpotential, K): the superpotential is a
finite combination of torus characters that must be regular on the variety,
and K is a complexified Kahler-type class living in the divisor class group
with C/Z coefficients.  The pair of matrices (dv, mon) plus the classes
(K, L) form the model's linear data; Clarke's dual is obtained by swapping
the two halves, which is implemented here as ``dualize``.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .complexq import ComplexQ
from .errors import (
    EmptyInteriorError,
    GroupMismatchError,
    NotKopasepticError,
    RegularityError,
    ShapeMismatchError,
    ValidationError,
)
from .linalg import IntMatrix, _bareiss_solve, _integers, cokernel
from .toric import ToricData, bundle_over_p1, from_linear_data, point, product

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
    "empty_model",
    "linear_data",
    "is_kopaseptic",
    "dualize",
    "sum_models",
    "monomial_name",
]


@dataclass(frozen=True)
class Superpotential:
    """Ordered terms (coefficient, exponent vector); exponents are distinct."""

    terms: tuple

    def __init__(self, terms):
        cooked = []
        for coeff, exps in terms:
            coeff = complex(coeff)
            if coeff == 0:
                raise ValidationError("superpotential coefficients must be nonzero")
            cooked.append((coeff, _integers(exps, "exponents")))
        seen = set()
        for _, exps in cooked:
            if exps in seen:
                raise ValidationError("duplicate monomial %r in superpotential" % (exps,))
            seen.add(exps)
        object.__setattr__(self, "terms", tuple(cooked))

    def __len__(self):
        return len(self.terms)

    def exponents(self):
        return tuple([exps for _, exps in self.terms])  # see IntMatrix.__init__


def mon_matrix(w, rank=None):
    """Exponent matrix: one row per term, in term order."""
    exps = w.exponents()
    if rank is None:
        if not exps:
            raise ValueError("rank is required for an empty superpotential")
        rank = len(exps[0])
    for e in exps:
        if len(e) != rank:
            raise ShapeMismatchError("exponent %r does not have length %d" % (e, rank))
    return IntMatrix(len(exps), rank, exps)


def order_matrix(x, w):
    """dv @ mon^T: entry (k, i) is the vanishing order of term i along divisor k."""
    return x.dv @ mon_matrix(w, rank=x.rank).transpose()


def is_regular(x, w):
    """True iff every term extends over every invariant divisor (all orders >= 0)."""
    if not w.terms:
        return True
    om = order_matrix(x, w)
    return all(v >= 0 for row in om for v in row)


def generic_sections(degrees):
    """Generic superpotential of a split bundle over the projective line.

    Each summand of degree a <= 0 contributes the sections t1^j * sigma_i
    for 0 <= j <= -a (unit coefficients); positive-degree summands have no
    sections and contribute nothing.
    """
    degrees = _integers(degrees, "degrees")
    c = len(degrees)
    terms = []
    for i, a in enumerate(degrees):
        if a > 0:
            continue
        for j in range(-a + 1):
            exps = (j,) + tuple(1 if t == i else 0 for t in range(c))
            terms.append((1, exps))
    return Superpotential(terms)


# ---------------------------------------------------------------------------
# Classes with C/Z coefficients

def _numerators(vec):
    """(d, re, im): the ComplexQ entries of vec as integer numerators over
    one common denominator d."""
    d = lcm(*(q.denominator for z in vec for q in (z.re, z.im)))
    re = [z.re.numerator * (d // z.re.denominator) for z in vec]
    im = [z.im.numerator * (d // z.im.denominator) for z in vec]
    return d, re, im


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


@dataclass(frozen=True)
class ChowClass:
    """A class in (cokernel) tensor C/Z, stored through an explicit lift.

    Two classes are equivalent iff their lifts differ by an integer vector
    plus a complex combination of the defining map's columns; since torsion
    dies after tensoring with C/Z, that is exactly integrality of the free
    projection of the difference.
    """

    lift: tuple
    group: object

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
    lift = [ComplexQ(0, 0)] * r
    placed = {}
    for g in range(f):
        row = proj[g]
        pick = None
        for want in (1, -1):
            for j in range(r - 1, -1, -1):
                if row[j] == want and j not in placed.values() and all(
                    proj[g2][j] == 0 for g2 in range(f) if g2 != g
                ):
                    pick = j
                    break
            if pick is not None:
                break
        if pick is None:
            placed = None
            break
        placed[g] = pick
    if placed is not None:
        for g, j in placed.items():
            lift[j] = values[g] if proj[g][j] == 1 else -values[g]
        return ChowClass(tuple(lift), group)
    scale, re, im = _numerators(values)
    d, (re, im) = _bareiss_solve(proj, [re, im])
    d *= scale
    lift = tuple(ComplexQ(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, im))
    return ChowClass(lift, group)


def default_k_class(variety):
    """K with class value i on every free generator (positive imaginary part)."""
    group = variety.chow_group()
    return canonical_class(group, [ComplexQ(0, 1)] * group.free_rank)


def default_l_class(mon):
    group = cokernel(mon)
    return canonical_class(group, [ComplexQ(0, 1)] * group.free_rank)


# ---------------------------------------------------------------------------
# Models

@dataclass(frozen=True)
class LGModel:
    variety: ToricData
    potential: Superpotential
    k_class: ChowClass

    def __post_init__(self):
        if self.k_class.group.source != self.variety.dv:
            raise GroupMismatchError("K class group is not the variety's divisor class group")
        if self.potential.terms:
            om = order_matrix(self.variety, self.potential)
            bad = [
                (k, i, om[k][i])
                for k in range(om.rows)
                for i in range(om.cols)
                if om[k][i] < 0
            ]
            if bad:
                k, i, v = bad[0]
                raise RegularityError(
                    "superpotential term %d has a pole of order %d along divisor %s"
                    % (i, -v, self.variety.divisors[k]),
                    pairs=bad,
                    orders=om,
                )

    def mon(self):
        return mon_matrix(self.potential, rank=self.variety.rank)


def bundle_model(degrees):
    """Model on Tot(⊕O(a_i)) with its generic superpotential and K = i on
    each free generator of the class group."""
    variety = bundle_over_p1(degrees)
    return LGModel(variety, generic_sections(degrees), default_k_class(variety))


def empty_model():
    """The zero-dimensional model with W = 0 (identity for sums)."""
    v = point()
    return LGModel(v, Superpotential(()), ChowClass((), v.chow_group()))


@dataclass(frozen=True)
class LinearData:
    """The two matrix/class pairs (a, k) and (b, l) of a model."""

    a: IntMatrix
    k: ChowClass
    b: IntMatrix
    l: ChowClass

    def __post_init__(self):
        if self.a.cols != self.b.cols:
            raise ShapeMismatchError(
                "paired matrices must share their domain: %d vs %d columns"
                % (self.a.cols, self.b.cols)
            )

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


@dataclass(frozen=True)
class KopasepticReport:
    """The three kopaseptic conditions for linear data (a, k), (b, l):
    nonempty strict interior of {a xi + Im k >= 0}, existence of a
    generator-to-generator-or-zero reconstruction map, and nonnegativity
    of a @ b^T.  ``passed`` is their conjunction."""

    interior_nonempty: bool
    kmap_exists: bool
    order_nonneg: bool
    facet_report: object
    negative_orders: tuple

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
    om = d.a @ d.b.transpose()
    negative = tuple(
        (i, j, om[i][j]) for i in range(om.rows) for j in range(om.cols) if om[i][j] < 0
    )
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
    terms = []
    for j in range(d.a.rows):
        z = complex(d.k.lift[j])
        coeff = cmath.exp(2j * cmath.pi * z)
        terms.append((coeff, tuple(d.a[j])))
    potential = Superpotential(terms)
    k_class = ChowClass(tuple(d.l.lift[i] for i in kept), variety.chow_group())
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
