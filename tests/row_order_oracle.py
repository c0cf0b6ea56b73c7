"""Row-order search by Hermite forms: the reference for ``lgdual.selfdual``.

This is the depth-first search over row orders that decided every subset
whose ``dv`` is not spanning corank 1 before one row-order search with
minor checks and a single Hermite solve replaced it, kept unchanged as an
independent oracle for every shape of ``dv``, a rank-deficient one too.  It
tests every row order whose row gcds match with two Hermite forms
(``right_equivalent``), so it is slow on inputs with many rows of equal
gcd, and the tests only call it on small matrices.  Where ``dv`` has no
nonzero maximal minor the basis change is not unique, so there the tests
compare only the row order with it and replay the search's own.
"""

from collections import Counter

from lgdual.linalg import right_equivalent


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
