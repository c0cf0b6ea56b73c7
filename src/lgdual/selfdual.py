"""Self-duality decisions for models on split bundles over the projective line.

A model is self-dual when its dual has the same divisor matrix up to a choice
of character basis and an ordering of the support: concretely, some subset of
the exponent rows, a permutation, and a unimodular change of basis carry mon
onto dv, and some K class reproduces the variety from its own halfspace data.

One search decides every shape of dv.  It walks the subsets of mon rows
depth first in lexicographic order, reading maximal minors from one table of
mon's n x n minors (its Plücker coordinates; one elimination for n + 1 rows)
built per search.  Each row appended to a prefix completes the minors that
contain it; each |minor| is taken off the multiset of dv's |maximal minors|,
and a prefix with a minor outside what is left is cut with all its
extensions, so only subsets with exactly dv's |minors| are reached.
When dv is corank 1, (n+1) x n with rows spanning Z^n as for every split
bundle over the line, those minors are the charge vector (the signed maximal
minors, which generate the charge lattice of the class-group sequence), the
row order is read off it, and only a subset whose charges match +-those of
dv reaches one Hermite-form solve for u.  For other shapes each surviving
subset goes through a depth-first search over row orders.

The K step asks for a class K = +-i per free generator whose halfspaces
dv xi + Im K >= 0 keep every row as a facet.  When dv is corank 1 with
primitive rows, the slack map carries that polyhedron onto
{s >= 0 : q . s = beta}, q the charge vector (the free row of the class
group, the Gale dual of the rays) and beta = q . Im K, so the answer is read
off the signs of q and beta; other shapes go through the facet pass.  Over
the line, q = (1, 1, a_1, ..., a_c) and K = i gives beta = 1: the two
charges equal to 1 keep the interior and every row (row i is kept by
q_i < 0, or by a charge 1 on another row, since beta + q_i >= 1 when
q_i >= 0).  So the K step holds for every degree tuple at the first sign,
and a YES verdict over the line rests on the matrix witness alone.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .complexq import ComplexQ
from .errors import (
    EmptyInteriorError,
    GroupMismatchError,
    NotKopasepticError,
    ShapeMismatchError,
    ValidationError,
)
from .lgmodel import bundle_model, canonical_class, dualize, linear_data, sum_models
from .linalg import IntMatrix, _bareiss, hnf_col_transform, right_equivalent
from .toric import from_linear_data

__all__ = [
    "SelfDualityWitness",
    "BundleVerdict",
    "matrix_self_dual",
    "k_reconstruction_class",
    "self_dual_witness",
    "model_self_dual",
    "classify_cy",
    "sweep_line_bundles",
    "sweep_rank_two",
    "product_self_dual",
]


def matrix_self_dual(a, b):
    """Search for (perm, u) with b[perm] @ u == a and u unimodular.

    The reported perm is the lexicographically first that works.  This is
    the subset search of _search_matrix_witness with b as its own single
    subset: corank-1 inputs, where a is (n+1) x n and its rows span Z^n, are
    decided from the charge vectors, every other input by the depth-first
    search over row orders.  Returns None when no pair exists.
    """
    if a.rows != b.rows:
        raise ShapeMismatchError("row counts differ: %d vs %d" % (a.rows, b.rows))
    if a.cols != b.cols:
        raise ShapeMismatchError("column counts differ: %d vs %d" % (a.cols, b.cols))
    found = _search_matrix_witness(a, b)
    return None if found is None else found[1:]


def _minor_table(rows, n):
    """Plücker table of a row configuration: det of every n-row subset T of
    rows, keyed by T in lexicographic order.

    n + 1 rows take one fraction-free elimination of their n x (n + 1)
    transpose A: at rank n, c_i = (-1)^i det(A without column i) spans its
    kernel, and c_f = (-1)^f sign d at the free column f (the pivot columns
    have det sign * d), so back substitution gives c.  Other row counts
    take one elimination per T."""
    m = len(rows)
    subsets = itertools.combinations(range(m), n)
    if m != n + 1:
        table = {}
        for t in subsets:
            pivots, sign, pivot, _ = _bareiss([rows[i] for i in t], n)
            table[t] = sign * pivot if len(pivots) == n else 0
        return table
    pivots, sign, d, echelon = _bareiss(list(zip(*rows)), m)
    c = [0] * m
    if len(pivots) == n:
        f = sum(range(m)) - sum(pivots)
        c[f] = (-1) ** f * sign * d
        for row, p in reversed(list(zip(echelon, pivots))):
            c[p] = -sum(row[j] * c[j] for j in range(p + 1, m)) // row[p]
    # combinations list the subset without row i at position n - i
    return {t: (-1) ** i * c[i] for t, i in zip(subsets, reversed(range(m)))}


def _minor_walk(table, m, r, n, counts):
    """The r-subsets of range(m) whose n x n minors, read from table, have
    exactly the |values| counted by counts, in lexicographic order.  counts
    holds C(r, n) values, as the |maximal minors| of an r-row dv do.

    Depth first over increasing indices: appending i to a prefix completes
    one minor per (n-1)-subset of the prefix, and each |minor| is taken off
    counts.  A value that counts no longer holds cuts i with every extension
    of that prefix.  A complete subset has taken off all C(r, n) of its
    minors, so its |minors| are the multiset counts started with.  counts is
    restored before the walk returns."""
    if n == 0:
        # the one minor of every subset is the empty determinant
        if counts.get(abs(table[()])):
            yield from itertools.combinations(range(m), r)
        return
    prefix = []

    def extend(start):
        k = len(prefix)
        if k == r:
            yield tuple(prefix)
            return
        heads = list(itertools.combinations(prefix, n - 1))
        for i in range(start, m - r + k + 1):
            taken = []
            for t in heads:
                v = abs(table[t + (i,)])
                if not counts.get(v):
                    break
                counts[v] -= 1
                taken.append(v)
            else:
                prefix.append(i)
                yield from extend(i + 1)
                prefix.pop()
            for v in taken:
                counts[v] += 1

    yield from extend(0)


def _first_assignment(qb, target):
    """Lexicographically first perm with qb[perm[i]] == target[i], or None.

    Rows with equal charge are interchangeable, so taking the smallest
    unused index at every position is optimal."""
    pools = {}
    for j in reversed(range(len(qb))):
        pools.setdefault(qb[j], []).append(j)
    perm = []
    for t in target:
        pool = pools.get(t)
        if not pool:
            return None
        perm.append(pool.pop())
    return tuple(perm)


def _basis_change(a, b, drop):
    """The u with b @ u == a, for b whose charges match a's row by row,
    solved on the rows of b other than drop, whose minor is nonzero: their
    Hermite form b_T @ ub = h is lower triangular, so u = ub @ x for
    h @ x == a_T by forward substitution.  u is replayed on every row."""
    keep = [i for i in range(b.rows) if i != drop]
    h, ub, _ = hnf_col_transform(b.take_rows(keep), with_uinv=False)
    x = []
    for hi, k in zip(h.entries, keep):
        row = a.entries[k]
        for c, xt in zip(hi, x):
            if c:
                row = [v - c * w for v, w in zip(row, xt)]
        x.append([v // hi[len(x)] for v in row])
    u = ub @ IntMatrix(b.cols, b.cols, x)
    if b @ u != a or not u.is_unimodular():
        raise AssertionError("basis change failed verification")
    return u


def _row_order_search(a, b):
    """Row orders of b in lexicographic order, depth first, pruned by the
    row-gcd invariant (unimodular right multiplication preserves each row's
    gcd), each leaf tested by Hermite forms.  Returns (perm, u) or None."""
    ga, gb = a.row_gcds(), b.row_gcds()
    if Counter(ga) != Counter(gb):
        return None
    if a.rank() != b.rank():
        return None
    candidates = [tuple(j for j in range(b.rows) if gb[j] == g) for g in ga]
    used = [False] * b.rows
    sel = []

    def extend(i):
        if i == a.rows:
            return right_equivalent(a, b.take_rows(tuple(sel)))
        for j in candidates[i]:
            if used[j]:
                continue
            used[j] = True
            sel.append(j)
            u = extend(i + 1)
            if u is not None:
                return u
            sel.pop()
            used[j] = False
        return None

    u = extend(0)
    # right_equivalent has replayed u
    return None if u is None else (tuple(sel), u)


def _charge_row(dv, group):
    """The charge vector q of dv, the free projection row of its class group,
    when the K step can be read off it: free rank 1 and dv (n+1) x n with
    primitive rows; None otherwise.  q . dv = 0 and one nonzero n x n minor
    are replayed, so dv has rank n and q spans its left kernel."""
    n = dv.cols
    if group.free_rank != 1 or dv.rows != n + 1:
        return None
    if any(dv.row_gcd(i) != 1 for i in range(dv.rows)):
        return None
    q = group.projection[0]
    i = next(i for i, x in enumerate(q) if x)
    if any(sum(x * row[j] for x, row in zip(q, dv.entries)) for j in range(n)) or not (
        dv.take_rows([k for k in range(dv.rows) if k != i]).det()
    ):
        raise AssertionError("class group row is not the charge vector of dv")
    return q


def _slack_holds(q, beta, s, den, cut=None):
    """s / den is the slack vector C xi + b of a point of the affine hyperplane
    q . s = beta (den > 0): strictly inside every row, or, for a row cut,
    past that row and inside every other."""
    if den <= 0 or sum(x * y for x, y in zip(q, s)) != den * beta:
        return False
    if cut is None:
        return min(s) > 0
    return s[cut] < 0 and all(x >= 0 for k, x in enumerate(s) if k != cut)


def _charge_k_step(q, offset):
    """True when from_linear_data(dv, offset) keeps every row, for dv with
    the charge vector q of _charge_row; False also when the strict interior
    is empty.

    C = dv is injective with image {s : q . s = 0}, so xi -> C xi + b carries
    P = {xi : C xi + b >= 0} onto {s >= 0 : q . s = beta}, with beta = q . b
    (b cleared to integers, which scales s and beta alike).  The interior is
    nonempty iff some q_j beta > 0, or, when beta = 0, q has both signs.
    Row i cuts a facet iff some s with s_i < 0 <= s_j (j != i) has
    q . s = beta: iff q_i beta < 0 (s = beta q_i e_i), or some j != i has
    q_j != 0 and (beta + q_i) q_j >= 0 (s_i = -q_j^2, s_j = (beta + q_i) q_j).
    Equal (row, offset) pairs, which facets keeps once, need no test of
    their own: equal primitive rows force q = +-(e_i - e_j), so equal
    offsets give beta = 0 and the row rule drops both.  Each slack vector
    is replayed before its row is taken.
    """
    den = lcm(*(x.denominator for x in offset))
    beta = sum(x * (y.numerator * (den // y.denominator)) for x, y in zip(q, offset))
    r = len(q)
    if beta:
        j = next((j for j in range(r) if q[j] * beta > 0), None)
        if j is None:
            return False
        rest = sum(q) - q[j]
        d = abs(q[j]) * (abs(rest) + 1)
        s = [abs(q[j])] * r
        s[j] = (abs(rest) + 1) * abs(beta) - (rest if q[j] > 0 else -rest)
    else:
        pos = sum(x for x in q if x > 0)
        neg = -sum(x for x in q if x < 0)
        if not (pos and neg):
            return False
        d, s = 1, [neg if x > 0 else pos if x < 0 else 1 for x in q]
    assert _slack_holds(q, beta, s, d)
    for i in range(r):
        if q[i] * beta < 0:
            d, s = q[i] ** 2, [0] * r
            s[i] = beta * q[i]
        else:
            j = next((j for j in range(r) if j != i and q[j] and (beta + q[i]) * q[j] >= 0), None)
            if j is None:
                return False
            d, s = q[j] ** 2, [0] * r
            s[i], s[j] = -d, (beta + q[i]) * q[j]
        assert _slack_holds(q, beta, s, d, cut=i)
    return True


def k_reconstruction_class(variety, group=None):
    """A K class with value +-i per free generator whose halfspace data
    reproduces the variety with the identity reconstruction map, or None.

    group is the variety's class group when the caller holds it, so it is
    not computed again.  When dv is corank 1 with primitive rows each sign
    is decided from the charge vector (_charge_k_step); otherwise by the
    facet pass of from_linear_data.
    """
    if group is None:
        group = variety.chow_group()
    elif group.source != variety.dv:
        raise GroupMismatchError("class group is not the variety's divisor class group")
    q = _charge_row(variety.dv, group)
    for signs in itertools.product((Fraction(1), Fraction(-1)), repeat=group.free_rank):
        k = canonical_class(group, [ComplexQ(0, s) for s in signs])
        if q is not None:
            if _charge_k_step(q, k.im_lift()):
                return k
            continue
        try:
            _, report = from_linear_data(variety.dv, k.im_lift(), labels=variety.divisors)
        except (NotKopasepticError, EmptyInteriorError):
            continue
        if report.is_identity():
            return k
    return None


@dataclass(frozen=True)
class SelfDualityWitness:
    """Data certifying P . mon_S . U = dv together with a working K class."""

    monomial_subset: tuple
    row_permutation: tuple
    basis_change: IntMatrix
    k_class: object = None

    def selected_rows(self):
        """Indices into the full exponent matrix, in output-row order."""
        return tuple(self.monomial_subset[p] for p in self.row_permutation)

    def verify(self, dv, mon, check_k=True):
        """True when the witness replays against (dv, mon); False also for a
        malformed witness: a subset that is not strictly increasing within
        mon's rows, a permutation of the wrong indices, or a basis change
        of the wrong shape."""
        subset, perm, u = self.monomial_subset, self.row_permutation, self.basis_change
        if list(subset) != sorted(set(subset)) or not all(0 <= i < mon.rows for i in subset):
            return False
        if sorted(perm) != list(range(len(subset))) or u.rows != mon.cols:
            return False
        if mon.take_rows(subset).take_rows(perm) @ u != dv:
            return False
        if not u.is_unimodular():
            return False
        if check_k:
            if self.k_class is None:
                return False
            try:
                _, report = from_linear_data(dv, self.k_class.im_lift())
            except (NotKopasepticError, EmptyInteriorError):
                return False
            if not report.is_identity():
                return False
        return True


@dataclass(frozen=True, slots=True)
class BundleVerdict:
    """Classification of Tot(O(a_1) + ... + O(a_c)) with its generic sections.

    Only the search's outcome is stored; the degree flags are read off the
    degrees, so a sweep that keeps every verdict keeps no more than that."""

    degrees: tuple
    self_dual: bool
    witness: object = None
    failure: object = None

    @property
    def sum_degree(self):
        return sum(self.degrees)

    @property
    def canonical_trivial(self):
        return sum(self.degrees) == -2

    @property
    def polystable(self):
        return len(set(self.degrees)) == 1

    @property
    def strong_cy(self):
        return self.canonical_trivial and self.polystable


def _search_matrix_witness(dv, mon):
    """First subset of mon rows that is right-equivalent to dv after a
    permutation, as (subset, perm, u), or None.  Subsets in lexicographic
    order, so the reported witness is deterministic.

    Unimodular right multiplication and row order leave the multiset of
    |maximal minors| unchanged, so a subset S whose n x n minors, read from
    one table of mon's minors, differ from dv's in absolute value cannot
    match.  _minor_walk reaches only the other subsets, cutting a prefix at
    the first minor it completes that is not left in dv's multiset.  When
    dv is (n+1) x n with coprime minors (rows spanning Z^n) the minors of a
    reached S, read again in subset order, are its charges
    q_i = (-1)^i det(S without s_i), which span its left kernel.
    Surjections Z^(n+1) -> Z^n with equal kernels differ by a unique element
    of GL(n, Z), so S matches exactly when its charges in some row order are
    +-those of dv, and one Hermite-form solve gives u.  Every other dv goes
    through the row-order search on each reached S.
    """
    n = dv.cols
    corank_one = dv.rows == mon.rows == n + 1
    # a subset's rank is at most mon's, but it may be below mon's and match;
    # two (n + 1)-row tables hold the ranks, as rank n is a nonzero minor
    if mon.rows < dv.rows or not corank_one and mon.rank() < dv.rank():
        return None
    minors = list(_minor_table(dv.entries, n).values())
    # with fewer rows than n a subset has no n-row minor to read
    table = _minor_table(mon.entries, n) if dv.rows >= n else {}
    if corank_one and any(minors) and not any(table.values()):
        return None
    counts = Counter(map(abs, minors))
    targets = None
    if dv.rows == n + 1 and gcd(*minors) == 1:
        # combinations list the minor without row i at position n - i
        qa = tuple((-1) ** i * x for i, x in enumerate(reversed(minors)))
        targets = (qa, tuple(-x for x in qa))
    for s in _minor_walk(table, mon.rows, dv.rows, n, counts):
        if targets is None:
            res = _row_order_search(dv, mon.take_rows(s))
            if res is not None:
                return (s,) + res
            continue
        minors = [table[t] for t in itertools.combinations(s, n)]
        qb = tuple((-1) ** i * x for i, x in enumerate(reversed(minors)))
        perms = [_first_assignment(qb, t) for t in targets]
        perm = min((p for p in perms if p is not None), default=None)
        if perm is None:
            continue
        # b's row i is s[perm[i]], whose minor without it sits at n - perm[i]
        drop = min((abs(minors[n - p]), i) for i, p in enumerate(perm) if minors[n - p])[1]
        return s, perm, _basis_change(dv, mon.take_rows([s[p] for p in perm]), drop)
    return None


def self_dual_witness(m):
    """Self-duality search for an arbitrary model.

    Returns (witness, None) on success or (None, reason) where reason is the
    first failing requirement: "not-enough-monomials", "no-matrix-witness",
    or "no-K-reconstruction".
    """
    dv = m.variety.dv
    mon = m.mon()
    if mon.rows < dv.rows:
        return None, "not-enough-monomials"
    found = _search_matrix_witness(dv, mon)
    if found is None:
        return None, "no-matrix-witness"
    k = k_reconstruction_class(m.variety, m.k_class.group)
    if k is None:
        return None, "no-K-reconstruction"
    subset, perm, u = found
    return SelfDualityWitness(subset, perm, u, k), None


def model_self_dual(degrees):
    """Decide self-duality of the generic model on Tot(+O(a_i))."""
    degrees = tuple(degrees)  # a tuple of ints is kept as is: sweeps hold many verdicts
    if not all(type(a) is int for a in degrees):
        degrees = tuple(int(a) for a in degrees)
    if not degrees:
        raise ValidationError("degrees must be nonempty")
    witness, failure = self_dual_witness(bundle_model(degrees))
    return BundleVerdict(
        degrees=degrees, self_dual=witness is not None, witness=witness, failure=failure
    )


def classify_cy(max_rank, degree_bound):
    """Verdicts for every nonincreasing degree tuple with sum -2, rank up to
    max_rank, and entries in [-degree_bound, degree_bound]."""
    if max_rank < 1:
        raise ValidationError("max_rank must be at least 1")
    out = []
    values = range(degree_bound, -degree_bound - 1, -1)
    for rank in range(1, max_rank + 1):
        tuples = sorted(
            tup
            for tup in itertools.combinations_with_replacement(values, rank)
            if sum(tup) == -2
        )
        for tup in tuples:
            out.append(model_self_dual(tup))
    return out


def sweep_line_bundles(max_twist):
    """Verdicts for O(-k), k = 0 .. max_twist."""
    return [model_self_dual((-k,)) for k in range(0, max_twist + 1)]


def sweep_rank_two(max_twist):
    """Verdicts for O(k) + O(-k-2), k = -1 .. max_twist."""
    return [model_self_dual((k, -k - 2)) for k in range(-1, max_twist + 1)]


def product_self_dual(m, l=None):
    """Block-swap self-duality witness for the sum of m with its dual.

    The sum's exponent matrix is block diagonal (mon(X) | 0 ; 0 | dv(X)) and
    its divisor matrix is dv(X) (+) dv(X-dual), so exchanging the two blocks
    with the antidiagonal basis change carries one onto the other.  The
    witness is verified by exact replay before returning.
    """
    d = linear_data(m, l)
    dual = dualize(d)
    total = sum_models(m, dual)
    _, facet_report = from_linear_data(d.b, d.l.im_lift())
    kept = facet_report.irredundant

    s1 = len(m.potential.terms)
    r1 = m.variety.dv.rows
    r2 = len(kept)
    n = m.variety.rank
    subset = tuple(kept) + tuple(range(s1, s1 + r1))
    perm = tuple(range(r2, r2 + r1)) + tuple(range(r2))
    swap = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        swap[i][n + i] = 1
        swap[n + i][i] = 1
    u = IntMatrix(2 * n, 2 * n, swap)

    witness = SelfDualityWitness(subset, perm, u, total.k_class)
    assert witness.verify(total.variety.dv, total.mon(), check_k=False)
    return total, witness
