"""Square read by an eager minor table: the reference for ``lgdual.selfdual``.

This is how ``_search_matrix_witness`` decided two (n+1) x n matrices
before it read their two charge vectors directly, kept unchanged as an
independent oracle.  mon's table of maximal minors is filled at once from
one elimination of its transpose; ``_square_walk`` takes the one subset,
all of mon, when its n + 1 |minors| are dv's; the row-order search and the
basis change then decide it, keyed by mon's charges when dv's rows span
Z^n and by row gcds otherwise, or through column Hermite forms when dv has
no nonzero maximal minor.  The row-order search, the basis change and the
charge rule are copies of that version's; only the search of a rank-deficient
dv at full column rank calls back into ``lgdual.selfdual``.
"""

import itertools
from collections import Counter
from math import gcd

from lgdual.linalg import IntMatrix, _cofactors, block_diag, hnf_col_transform
from lgdual.selfdual import matrix_self_dual


class _EagerMinors(dict):
    """The minors of n + 1 rows of length n, one row of minors per head H,
    an (n-1)-subset of the first n rows: table[H][i] = det(H + (i,)), filled
    from the cofactors c of the rows' transpose, det(without row j) =
    (-1)^j c_j, which are also the rows' charges."""

    def __init__(self, rows, n):
        self.n = n
        self.charges = _cofactors(list(zip(*rows)), n + 1) if n else None
        if n:
            c = self.charges
            heads = itertools.combinations(range(n), n - 1)
            filled = {h: [0] * n + [(-1) ** j * c[j]] for j, h in zip(reversed(range(n)), heads)}
            filled[tuple(range(n - 1))][n - 1] = (-1) ** n * c[n]
            self.update(filled)

    def minors(self, s):
        """det of every n-subset of s in lexicographic order; [1] for n = 0."""
        return [self[t[:-1]][t[-1]] for t in itertools.combinations(s, self.n)] if self.n else [1]


def _square_walk(table, m, counts):
    """All m rows, as the one subset, when their |minors| are counts."""
    s = tuple(range(m))
    return [s] if Counter(map(abs, table.minors(s))) == counts else []


def _basis_change(a, b, keep):
    """The unimodular u with b @ u == a, or None, for rows keep of b whose
    minor is nonzero: their Hermite form b_T @ ub = h is lower triangular,
    so u = ub @ x for h @ x == a_T by forward substitution.  u is replayed
    on every row, which also fails when a division in x is not exact."""
    h, ub, _ = hnf_col_transform(b.take_rows(keep), with_uinv=False)
    x = []
    for hi, k in zip(h.entries, keep):
        row = a.entries[k]
        for c, xt in zip(hi, x):
            if c:
                row = [v - c * w for v, w in zip(row, xt)]
        x.append([v // hi[len(x)] for v in row])
    u = ub @ IntMatrix._trusted(b.cols, b.cols, x)
    return u if b @ u == a and u.is_unimodular() else None


def _row_orders(keys, target, checks, table, s):
    """Orders perm of the rows s of mon with keys[perm[i]] == target[i] and
    matching |maximal minors|, in lexicographic order, depth first, for keys
    equal to target as multisets.  checks[k] lists each maximal minor whose
    last position is k as its other positions and dv's |minor| there, read
    off mon's table once k is placed.  A loop over one candidate iterator
    per position: nested generators cost a YES verdict more.  With no check
    (charge keys, or n = 0) the first order decides, so it alone is listed:
    nothing cuts it, and it takes each key's rows in increasing order."""
    pools = {}
    for j, x in enumerate(keys):
        pools.setdefault(x, []).append(j)
    if not any(checks):
        firsts = {x: iter(p) for x, p in pools.items()}
        yield tuple(next(firsts[t]) for t in target)
        return
    perm, levels = [], [iter(pools[target[0]])]

    def fits(j, head, v):
        *rest, i = sorted([s[perm[h]] for h in head] + [s[j]])
        return abs(table[tuple(rest)][i]) == v

    while levels:
        k = len(levels) - 1
        del perm[k:]  # perm holds the rows placed before position k
        check = checks[k]
        for j in levels[k]:
            if j not in perm and (not check or all(fits(j, h, v) for h, v in check)):
                perm.append(j)
                if k + 1 < len(target):
                    levels.append(iter(pools[target[k + 1]]))
                else:
                    yield tuple(perm)
                break
        else:
            levels.pop()


def _charges(minors):
    """q_i = (-1)^i det(without row i) from the n-row minors of n + 1 rows in
    lexicographic order, which list the minor without row i at position n - i;
    from q it gives the minors back times (-1)^n."""
    return tuple((-1) ** i * x for i, x in enumerate(reversed(minors)))


def square_search(dv, mon, group=None):
    """(subset, perm, u) or None for dv and mon both (n+1) x n, group dv's
    class group or None."""
    n = dv.cols
    assert dv.rows == mon.rows == n + 1
    subsets = list(itertools.combinations(range(n + 1), n))
    charged = group is not None and group.free_rank == 1 and not group.torsion
    minors = _charges(group.projection[0]) if charged else _EagerMinors(dv.entries, n).minors(range(n + 1))
    table = _EagerMinors(mon.entries, n)
    walk = _square_walk(table, n + 1, Counter(map(abs, minors)))
    if not any(minors):
        h, _, v_inv = hnf_col_transform(dv, with_u=False)
        r = sum(map(any, zip(*h.entries)))
        h = IntMatrix._trusted(dv.rows, r, [x[:r] for x in h])
        for s in walk:
            hs, vs, _ = hnf_col_transform(mon.take_rows(s), with_uinv=False)
            if any(map(any, (x[r:] for x in hs))):
                continue
            found = matrix_self_dual(h, IntMatrix._trusted(dv.rows, r, [x[:r] for x in hs]))
            if found is not None:
                return s, found[0], vs @ block_diag(found[1], IntMatrix.identity(n - r)) @ v_inv
        return None
    for s in walk:
        spanning = gcd(*minors) == 1
        if spanning:
            qa = _charges(minors)
            targets = (qa, tuple(-x for x in qa))
        else:
            targets, gcds = (dv.row_gcds(),), mon.row_gcds()
        checks = [[] for _ in range(dv.rows)]
        for t, x in zip(subsets, minors):
            if t and not spanning:
                checks[t[-1]].append((t[:-1], abs(x)))
        nonzero = {t: abs(x) for t, x in zip(subsets, minors) if x}
        keep = min(reversed(nonzero), key=nonzero.get)
        keys = (table.charges or _charges(table.minors(s))) if spanning else [gcds[i] for i in s]
        ks = sorted(keys)
        runs = [_row_orders(keys, t, checks, table, s) for t in targets if sorted(t) == ks]
        if spanning:
            runs = [sorted(p for p in (next(r, None) for r in runs) if p is not None)[:1]]
        for perm in itertools.chain(*runs):
            u = _basis_change(dv, mon.take_rows([s[p] for p in perm]), keep)
            if u is not None:
                return s, perm, u
            if spanning:
                raise AssertionError("charges match but the basis change failed")
    return None
