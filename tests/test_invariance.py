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

The relations that reach the K step or the default class wait for that
step to answer a question that does not depend on the order of dv's rows.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lgdual.lgmodel import Superpotential, order_matrix
from lgdual.linalg import IntMatrix, cokernel
from lgdual.polyhedra import HalfspaceSystem, facets
from lgdual.selfdual import SelfDualityWitness, _search_matrix_witness
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
