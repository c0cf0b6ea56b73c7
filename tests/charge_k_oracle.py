"""K step by per-row slack dictionaries: the reference for ``lgdual.selfdual``.

This is ``_charge_k_step`` as it was before its certificates were built and
replayed in one pass over lists, kept unchanged with its replay
``_slack_holds`` as an independent oracle.  It reads the facet rule for a
charge vector q and an offset off q and beta = q . offset, and replays every
slack vector through a dictionary of its nonzero entries.
"""

from operator import mul

from lgdual.linalg import _scaled


def _slack_holds(q, beta, s, den, cut=None):
    """s / den is the slack vector C xi + b of a point of q . s = beta
    (den > 0), s as {row: entry}, 0 on every row it omits: strictly inside
    every row, or, for a row cut, past that row and inside every other."""
    if den <= 0 or sum(q[k] * x for k, x in s.items()) != den * beta:
        return False
    if cut is None:
        return len(s) == len(q) and min(s.values()) > 0
    return s.get(cut, 0) < 0 and all(x >= 0 for k, x in s.items() if k != cut)


def _charge_k_step(q, offset):
    """_keeps_every_row(dv, offset) for dv with the charge vector q of
    _charge_row, read off q: True when every row is kept, False also when
    the strict interior is empty.

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
    beta = sum(map(mul, q, _scaled(offset)[1]))
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
    assert _slack_holds(q, beta, dict(enumerate(s)), d)
    for i in range(r):
        if q[i] * beta < 0:
            d, s = q[i] ** 2, {i: beta * q[i]}
        else:
            j = next((j for j in range(r) if j != i and q[j] and (beta + q[i]) * q[j] >= 0), None)
            if j is None:
                return False
            d, s = q[j] ** 2, {i: -q[j] ** 2, j: (beta + q[i]) * q[j]}
        assert _slack_holds(q, beta, s, d, cut=i)
    return True
