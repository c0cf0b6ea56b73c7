"""Toric varieties presented by divisor/ray data.

A variety is stored as its lattice rank, ordered divisor labels, and the
integer matrix whose rows are the primitive ray generators (one row per
torus-invariant divisor).  Constructors cover the projective line, the
total space of a split bundle over any base, given as the base and one
divisor column per summand (bundle_over_p1 over the line), finite products,
and reconstruction from halfspace linear data.
"""

from functools import cache

from .complexq import _Frozen, _quoted
from .errors import NotKopasepticError, ShapeMismatchError
from .linalg import IntMatrix, _integers, block_diag, cokernel
from .polyhedra import HalfspaceSystem, facets

__all__ = [
    "ToricData",
    "projective_line",
    "split_bundle_total_space",
    "bundle_over_p1",
    "product",
    "from_linear_data",
]


class ToricData(_Frozen):
    _fields = ("rank", "divisors", "dv")

    def __init__(self, rank, divisors, dv):
        if dv.cols != rank:
            raise ShapeMismatchError("ray matrix has %d columns, expected rank %d" % (dv.cols, rank))
        if len(divisors) != dv.rows:
            raise ShapeMismatchError("%d divisor labels for %d rows" % (len(divisors), dv.rows))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "divisors", tuple(divisors))
        object.__setattr__(self, "dv", dv)

    def chow_group(self):
        return cokernel(self.dv)


def _imprimitive_row(dv):
    """(i, how) for the first row i of dv that is not a primitive ray
    generator, how being "zero" or "non-primitive (gcd g)"; None when every
    row is primitive."""
    for i in range(dv.rows):
        g = dv.row_gcd(i)
        if g != 1:
            return i, "zero" if g == 0 else "non-primitive (gcd %s)" % _quoted(g)
    return None


@cache
def projective_line():
    """The projective line: two divisors f0 = {t1 = 0} and fInf = {t1 = inf}.
    Built once and shared; ToricData and IntMatrix are immutable."""
    return ToricData(1, ("f0", "fInf"), IntMatrix.from_rows([(1,), (-1,)]))


def split_bundle_total_space(base, divisor_columns):
    """Total space X = Tot(O(-D_1) + ... + O(-D_c)) of a split bundle over
    base as a block ray matrix, divisor_columns holding one column per
    summand: the divisor D_j as coefficients over the base divisors.

    The rays of the total space over base rays v_k are (v_k, D_1[k], ...,
    D_c[k]) together with one new fiber ray e_j per summand.
    """
    if divisor_columns.rows != base.dv.rows:
        raise ShapeMismatchError(
            "divisor columns have %d rows, base has %d divisors"
            % (divisor_columns.rows, base.dv.rows)
        )
    c = divisor_columns.cols
    n = base.rank + c
    rows = [v + d for v, d in zip(base.dv.entries, divisor_columns.entries)]
    for j in range(c):
        rows.append((0,) * base.rank + tuple(1 if i == j else 0 for i in range(c)))
    labels = base.divisors + tuple("X%d" % (j + 1) for j in range(c))
    data = ToricData(n, labels, IntMatrix._trusted(len(rows), n, rows))
    bad = _imprimitive_row(data.dv)
    if bad:
        raise NotKopasepticError("ray row %d is %s" % bad, condition="k-map")
    return data


def bundle_over_p1(degrees):
    """Tot(O(a_1) + ... + O(a_c)) over the projective line.

    Takes the user-facing degrees a_i; the corresponding bundle divisors
    are D_j = -a_j [fInf], so O(-k) enters as the column (0, k).
    """
    degrees = _integers(degrees, "degrees")
    if not degrees:
        raise ValueError("at least one summand degree is required")
    base = projective_line()
    columns = IntMatrix._trusted(2, len(degrees), [(0,) * len(degrees), [-a for a in degrees]])
    return split_bundle_total_space(base, columns)


def product(x, y):
    """Product variety: block-diagonal ray matrix, labels tagged by factor.
    Only the point is an identity: a torus (rank > 0, no rays) adds its rank."""
    if y.rank == y.dv.rows == 0:
        return x
    if x.rank == x.dv.rows == 0:
        return y
    labels = tuple("%s.1" % l for l in x.divisors) + tuple("%s.2" % l for l in y.divisors)
    return ToricData(x.rank + y.rank, labels, block_diag(x.dv, y.dv))


def from_linear_data(c, offset):
    """Reconstruct a variety from constraint rows and a rational offset.

    Runs facet extraction on { xi : c @ xi + offset >= 0 } and keeps the
    irredundant rows, which must already be primitive (a surjection that
    sends standard generators to standard generators or zero cannot
    rescale).  Returns the variety together with the facet report, whose
    kmap records where every input row went.
    """
    report = facets(HalfspaceSystem(c, offset))
    # facets drops zero rows, so a kept row can only fail by its gcd
    bad = _imprimitive_row(c.take_rows(report.irredundant))
    if bad:
        raise NotKopasepticError(
            "irredundant row %d is non-primitive; generators may only map "
            "to generators or to zero" % report.irredundant[bad[0]],
            condition="k-map",
        )
    kept_labels = tuple("D%d" % (i + 1) for i in report.irredundant)
    variety = ToricData(c.cols, kept_labels, report.primitive_normals)
    return variety, report
