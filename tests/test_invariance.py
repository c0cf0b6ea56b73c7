"""Metamorphic relations: answers that must not change when the input is
written differently.  Each relation is a fact about the mathematics, not
about lgdual's code, so a fast path that breaks one is wrong whatever its
other tests say.

- Permuting a halfspace system's rows permutes the kept facets: the same
  set of primitive (row, offset) keys survives.
- A cokernel's free rank and torsion survive permuting the rows of the
  matrix and a -> a V for V in GL(n, Z).
- Whether mon has a subset right-equivalent to dv after a row permutation
  survives permuting mon's rows and (dv, mon) -> (dv V, mon V^-T).  A found
  witness (S, P, U) replays, and so does (S, P, V^T U V) on the transformed
  pair, as P mon_S V^-T (V^T U V) = P mon_S U V = dv V.
- The order matrix dv mon^T is unchanged by (dv, mon) -> (dv V, mon V^-T).
- Permuting dv's rows, with the labels and K's lift carried along, leaves
  the reason self_dual_witness gives and the first failing kopaseptic
  condition unchanged.  K is carried as a lift: a class value, and the
  default class, are relative to the class-group basis that cokernel
  builds from the order of dv's rows, so they do not move with the rays.
- Permuting mon's rows (the terms), with L's lift carried along, leaves the
  reason self_dual_witness gives and the first failing kopaseptic condition
  of the swapped data (mon, L; dv, K) unchanged, and every YES witness of
  the permuted model replays.
"""

import itertools
from fractions import Fraction
from math import gcd
from operator import mul

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lgdual.complexq import ComplexQ
from lgdual.lgmodel import (
    ChowClass,
    LGModel,
    Superpotential,
    bundle_model,
    default_k_class,
    default_l_class,
    is_kopaseptic,
    linear_data,
    order_matrix,
)
from lgdual.linalg import IntMatrix, cokernel
from lgdual.modelfile import parse_model
from lgdual.polyhedra import HalfspaceSystem, facets
from lgdual.selfdual import SelfDualityWitness, _search_matrix_witness, self_dual_witness
from lgdual.toric import ToricData


def _rows(n, count, lo=-3, hi=3):
    return st.lists(st.tuples(*[st.integers(lo, hi)] * n), min_size=count, max_size=count)


@st.composite
def unimodular(draw, n):
    """(V, V^-1) for V in GL(n, Z): a few elementary column operations on the
    identity, each undone by the matching row operation on the inverse."""
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    w = [row[:] for row in v]
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["swap", "negate", "add"] if i != j else ["negate"]))
        if op == "swap":
            for row in v:
                row[i], row[j] = row[j], row[i]
            w[i], w[j] = w[j], w[i]
        elif op == "negate":
            for row in v:
                row[i] = -row[i]
            w[i] = [-x for x in w[i]]
        else:
            # column j of V gains k times column i; row i of V^-1 loses k times row j
            k = draw(st.sampled_from([-2, -1, 1, 2]))
            for row in v:
                row[j] += k * row[i]
            w[i] = [a - k * b for a, b in zip(w[i], w[j])]
    v, w = IntMatrix.from_rows(v, n), IntMatrix.from_rows(w, n)
    assert v @ w == IntMatrix.identity(n)
    return v, w


def _permuted(m, perm):
    return m.take_rows(list(perm))


# --- facets -----------------------------------------------------------------

@st.composite
def interior_systems(draw):
    """Systems with 0 in their strict interior (every offset positive), with
    some rows repeated as positive multiples, so duplicates and parallel rows
    both occur."""
    n = draw(st.integers(1, 3))
    rows = draw(_rows(n, draw(st.integers(1, 6))))
    offsets = [Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 3))) for _ in rows]
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        k = draw(st.integers(1, 3))
        rows.append(tuple(k * x for x in rows[i]))
        offsets.append(k * offsets[i] * draw(st.sampled_from([1, 1, 2])))
    return HalfspaceSystem(IntMatrix.from_rows(rows, n), offsets)


def _facet_keys(h):
    keys = []
    for i in facets(h).irredundant:
        g = h.c.row_gcd(i)
        keys.append((tuple(x // g for x in h.c[i]), h.offset[i] / g))
    return sorted(keys)


@given(interior_systems(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_permuting_rows_permutes_the_kept_facets(h, rnd):
    perm = list(range(h.c.rows))
    rnd.shuffle(perm)
    permuted = HalfspaceSystem(_permuted(h.c, perm), [h.offset[i] for i in perm])
    assert _facet_keys(permuted) == _facet_keys(h)


# --- cokernel ---------------------------------------------------------------

@st.composite
def matrices_and_moves(draw):
    """An r x n matrix with r in n .. n + 2 (n + 1 reaches the cofactor path),
    a permutation of its rows and a V in GL(n, Z)."""
    n = draw(st.integers(1, 3))
    a = IntMatrix.from_rows(draw(_rows(n, draw(st.integers(n, n + 2)), -4, 4)), n)
    perm = draw(st.permutations(range(a.rows)))
    return a, perm, draw(unimodular(n))


@given(matrices_and_moves())
@settings(max_examples=150, deadline=None)
def test_cokernel_survives_row_order_and_a_change_of_basis(case):
    a, perm, (v, _) = case
    group = cokernel(a)
    for moved in (_permuted(a, perm), a @ v):
        other = cokernel(moved)
        assert (other.free_rank, other.torsion) == (group.free_rank, group.torsion)


# --- the matrix witness search and the order matrix ---------------------------

@st.composite
def pairs(draw):
    """(dv, mon, perm, V, V^-1): dv is r x n; in half the draws mon holds the
    rows of dv U^-1 in some order, for a U in GL(n, Z), among extra rows, so
    that a witness exists; perm permutes mon's rows."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(n, n + 1))
    dv = IntMatrix.from_rows(draw(_rows(n, r, -2, 2)), n)
    extra = draw(_rows(n, draw(st.integers(0, 2)), -2, 2))
    if draw(st.booleans()):
        _, u_inv = draw(unimodular(n))
        rows = list((dv @ u_inv).entries) + extra
        rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    else:
        rows = draw(_rows(n, r, -2, 2)) + extra
    mon = IntMatrix.from_rows(rows, n)
    return dv, mon, draw(st.permutations(range(mon.rows))), *draw(unimodular(n))


def _search(dv, mon, with_group):
    found = _search_matrix_witness(dv, mon, cokernel(dv) if with_group else None)
    if found is not None:
        assert SelfDualityWitness(*found).verify(dv, mon, check_k=False)
    return found


@given(pairs(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_a_witness_survives_term_order_and_a_change_of_basis(case, with_group):
    # with_group passes dv's class group, as model_self_dual does, which
    # reads dv's rank and minors off it
    dv, mon, perm, v, v_inv = case
    found = _search(dv, mon, with_group)
    assert (_search(dv, _permuted(mon, perm), with_group) is None) == (found is None)
    dv_v, mon_v = dv @ v, mon @ v_inv.transpose()
    assert (_search(dv_v, mon_v, with_group) is None) == (found is None)
    if found is not None:
        subset, row_perm, u = found
        mapped = SelfDualityWitness(subset, row_perm, v.transpose() @ u @ v)
        assert mapped.verify(dv_v, mon_v, check_k=False)


@given(pairs())
@settings(max_examples=100, deadline=None)
def test_the_order_matrix_survives_a_change_of_basis(case):
    dv, mon, _, v, v_inv = case
    exponents = list(dict.fromkeys(mon.entries))  # a potential's exponents are distinct
    mon = IntMatrix.from_rows(exponents, dv.cols)

    def orders(dv, mon):
        x = ToricData(dv.cols, tuple("D%d" % i for i in range(dv.rows)), dv)
        return order_matrix(x, Superpotential([(1, e) for e in mon.entries]))

    assert orders(dv @ v, mon @ v_inv.transpose()) == orders(dv, mon)


# --- self-duality and the kopaseptic verdict under the order of dv's rows -----

def _regular(rays, term):
    return all(sum(map(mul, ray, term)) >= 0 for ray in rays)


@st.composite
def regular_models(draw):
    """(model, perm): a regular model with n = 2 or 3 and n + 1 to 6 distinct
    primitive rays, and a permutation of its rays.  In half the draws each
    ray v is kept only if the term v V, for a V in GL(n, Z), stays regular
    with the rays and terms kept so far, so that a matrix witness exists and
    the K step is reached; the other draws keep the rays as drawn.  A few
    random regular terms are added.  K is the default class or a random
    rational lift."""
    n = draw(st.integers(2, 3))
    r = draw(st.integers(n + 1, 6))
    v, _ = draw(unimodular(n))
    planted = draw(st.booleans())
    rays, terms = [], []
    for ray in draw(_rows(n, 12, -2, 2)):
        if len(rays) == r or gcd(*ray) != 1 or ray in rays:
            continue
        if planted:
            term = (IntMatrix.from_rows([ray], n) @ v).entries[0]
            if not (_regular(rays + [ray], term) and all(_regular([ray], t) for t in terms)):
                continue
            terms.append(term)
        rays.append(ray)
    dv = IntMatrix.from_rows(rays, n)
    assume(len(rays) > n and dv.rank() == n)
    terms += [t for t in draw(_rows(n, draw(st.integers(0, 4)), -2, 2)) if _regular(rays, t)]
    x = ToricData(n, tuple("D%d" % i for i in range(dv.rows)), dv)
    if draw(st.booleans()):
        k = default_k_class(x)
    else:
        im = [Fraction(draw(st.integers(-2, 3)), draw(st.integers(1, 2))) for _ in rays]
        k = ChowClass([ComplexQ(0, b) for b in im], x.chow_group())
    m = LGModel(x, Superpotential([(1, t) for t in dict.fromkeys(terms)]), k)
    return m, draw(st.permutations(range(dv.rows)))


def _rays_permuted(m, perm):
    """m with dv's rows in the order perm, each label and entry of K's lift
    moving with its ray, and K on the permuted dv's class group."""
    x = m.variety
    moved = ToricData(x.rank, tuple(x.divisors[i] for i in perm), _permuted(x.dv, perm))
    k = ChowClass(tuple(m.k_class.lift[i] for i in perm), moved.chow_group())
    return LGModel(moved, m.potential, k)


# dv @ diag(1, -1) is a matrix witness, and the model's default K keeps
# every row in none of dv's 24 orders; a K step that searched K = +-i on
# the class-group basis built from the row order said YES in 5 of them
PINNED = parse_model(
    "[variety]\ndv = -2 -1; -2 1; -1 -1; -1 0\n[potential]\n"
    "term = 1 : -2 1\nterm = 1 : -2 -1\nterm = 1 : -1 1\nterm = 1 : -1 0\n"
)


@given(regular_models())
@example((PINNED, (0, 1, 3, 2)))
@settings(max_examples=150, deadline=None)
def test_the_self_duality_reason_survives_dv_row_order(case):
    m, perm = case
    moved = _rays_permuted(m, perm)
    witness, reason = self_dual_witness(moved)
    assert reason == self_dual_witness(m)[1]
    if witness is not None:
        assert witness.verify(moved.variety.dv, moved.mon())


def test_the_pinned_model_reads_no_in_every_row_order():
    for perm in itertools.permutations(range(4)):
        assert self_dual_witness(_rays_permuted(PINNED, perm)) == (None, "no-K-reconstruction")


@given(regular_models())
@settings(max_examples=150, deadline=None)
def test_the_kopaseptic_verdict_survives_dv_row_order(case):
    m, perm = case
    report = is_kopaseptic(linear_data(_rays_permuted(m, perm)))
    assert report.first_failure() == is_kopaseptic(linear_data(m)).first_failure()


# --- self-duality and the swapped kopaseptic verdict under the order of terms --

# bundles over the line whose mon is (n+1) x n like dv, so the search reads
# its one subset directly: YES for the first three and (0, -1, -1), (0, 0, -2)
SQUARE_BUNDLES = [(-2,), (-1, -1), (0, -2), (0, -1, -1), (0, 0, -2), (1, -3), (2, -3), (1, -1, -2)]


@st.composite
def models_and_term_orders(draw):
    """(model, L, perm): a model of regular_models, sometimes with a multiple
    of one of its terms added (a parallel row that is not primitive), or a
    bundle model whose mon is square with dv; L the default class or a
    random rational lift on mon's class group; a permutation of the terms."""
    if draw(st.booleans()):
        m = bundle_model(draw(st.sampled_from(SQUARE_BUNDLES)))
    else:
        m, _ = draw(regular_models())
        terms = m.potential.terms
        if terms and draw(st.booleans()):
            (_, e), k = draw(st.sampled_from(terms)), draw(st.integers(2, 3))
            multiple = tuple(k * x for x in e)
            if multiple not in [t for _, t in terms]:
                m = LGModel(m.variety, Superpotential(terms + ((1, multiple),)), m.k_class)
    mon = m.mon()
    if draw(st.booleans()):
        l = default_l_class(mon)
    else:
        im = [Fraction(draw(st.integers(-2, 3)), draw(st.integers(1, 2))) for _ in range(mon.rows)]
        l = ChowClass([ComplexQ(0, b) for b in im], cokernel(mon))
    return m, l, draw(st.permutations(range(mon.rows)))


def _terms_permuted(m, l, perm):
    """m with its terms in the order perm, and L with each entry of its lift
    moving with its term, on the permuted mon's class group."""
    moved = LGModel(m.variety, Superpotential([m.potential.terms[i] for i in perm]), m.k_class)
    return moved, ChowClass(tuple(l.lift[i] for i in perm), cokernel(moved.mon()))


@given(models_and_term_orders())
@settings(max_examples=150, deadline=None)
def test_the_self_duality_reason_survives_term_order(case):
    m, l, perm = case
    moved, _ = _terms_permuted(m, l, perm)
    witness, reason = self_dual_witness(moved)
    assert reason == self_dual_witness(m)[1]
    if witness is not None:
        assert witness.verify(moved.variety.dv, moved.mon())


@given(models_and_term_orders())
@settings(max_examples=150, deadline=None)
def test_the_swapped_kopaseptic_verdict_survives_term_order(case):
    m, l, perm = case
    moved, moved_l = _terms_permuted(m, l, perm)
    report = is_kopaseptic(linear_data(moved, moved_l).swapped())
    assert report.first_failure() == is_kopaseptic(linear_data(m, l).swapped()).first_failure()
