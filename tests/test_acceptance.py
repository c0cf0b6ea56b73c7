"""End-to-end acceptance gate: eleven checks, one pass/fail line each.

Every check prints ``criterion NN (title): PASS|FAIL`` before asserting, so a
plain pytest run reads as a checklist.  Runtime ceilings are part of the
contract and are asserted, not just measured.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from lgdual.cli import SWEEP_HEADER, main as cli_main
from lgdual.complexq import ComplexQ
from lgdual.lgmodel import bundle_model, canonical_class
from lgdual.linalg import IntMatrix, hnf_col_transform, snf
from lgdual.polyhedra import HalfspaceSystem, facets
from lgdual.selfdual import (
    classify_cy,
    matrix_self_dual,
    model_self_dual,
    product_self_dual,
    sweep_line_bundles,
    sweep_rank_two,
)
from lgdual.toric import bundle_over_p1


def _line(n, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = ("  [%s]" % detail) if detail else ""
    print("criterion %02d (%s): %s%s" % (n, title, status, suffix))
    assert ok, "criterion %02d failed%s" % (n, suffix)


def _sweep_table(argv, capsys):
    start = time.perf_counter()
    rc = cli_main(argv)
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SWEEP_HEADER
    rows = [line.split("\t") for line in lines[1:]]
    return rc, rows, elapsed


# independent integer matrix helpers: the replays below must not trust the
# library's own multiplication

def _matmul(a_rows, b_rows):
    return [
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b_rows))
        for row in a_rows
    ]


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def test_criterion_01_rank1_sweep(capsys):
    rc, rows, elapsed = _sweep_table(["sweep", "--rank1", "10"], capsys)
    self_dual = [r[0] for r in rows if r[5] == "true"]
    ok = rc == 0 and len(rows) == 11 and self_dual == ["-2"] and elapsed < 5.0
    _line(1, "rank-1 sweep classification", ok, "%.2fs, self-dual %s" % (elapsed, self_dual))


def test_criterion_02_rank2_sweep(capsys):
    rc, rows, elapsed = _sweep_table(["sweep", "--rank2", "8"], capsys)
    self_dual = [r[0] for r in rows if r[5] == "true"]
    ok = (
        rc == 0
        and len(rows) == 10
        and self_dual == ["-1,-1", "0,-2"]
        and elapsed < 30.0
    )
    _line(2, "rank-2 sweep classification", ok, "%.2fs, self-dual %s" % (elapsed, self_dual))


def test_criterion_03_cy_sweep(capsys):
    rc, rows, elapsed = _sweep_table(["sweep", "--cy", "5", "6"], capsys)
    strong = [r[0] for r in rows if r[4] == "true" and r[5] == "true"]
    ok = (
        rc == 0
        and all(r[1] == "-2" for r in rows)
        and strong == ["-2", "-1,-1"]
        and elapsed < 120.0
    )
    _line(3, "CY classification sweep", ok, "%.2fs, %d rows, strong %s" % (elapsed, len(rows), strong))


def test_criterion_04_padded_degree_boundary_cases():
    ok = True
    for degrees in ((-2, 0), (-1, -1, 0), (-2, 0, 0)):
        v = model_self_dual(degrees)
        ok = ok and v.self_dual and v.canonical_trivial and not v.polystable and not v.strong_cy
    v = model_self_dual((-3, 1))
    ok = ok and not v.polystable and not v.self_dual
    _line(4, "padded-degree boundary cases", ok)


def test_criterion_05_witness_replay():
    verdicts = (
        list(sweep_line_bundles(10)) + list(sweep_rank_two(8)) + list(classify_cy(5, 6))
    )
    yes = [v for v in verdicts if v.self_dual]
    checked = 0
    ok = len(yes) > 0
    for v in yes:
        m = bundle_model(v.degrees)
        dv = [tuple(r) for r in m.variety.dv]
        mon = [tuple(r) for r in m.mon()]
        w = v.witness
        selected = [mon[i] for i in w.monomial_subset]
        permuted = [selected[p] for p in w.row_permutation]
        u_rows = [tuple(r) for r in w.basis_change]
        ok = ok and _matmul(permuted, u_rows) == dv
        ok = ok and abs(_det(u_rows)) == 1
        checked += 1
    _line(5, "witness replay by independent multiplication", ok, "%d witnesses" % checked)


def test_criterion_06_split_bundle_ray_matrices():
    ok = True
    for k in range(10):
        x = bundle_over_p1([-k])
        ok = ok and x.dv.entries == ((1, 0), (-1, k), (0, 1))
        ok = ok and x.divisors == ("f0", "fInf", "X1")
    for k in range(-1, 9):
        x = bundle_over_p1([k, -k - 2])
        ok = ok and x.dv.entries == ((1, 0, 0), (-1, -k, k + 2), (0, 1, 0), (0, 0, 1))
        ok = ok and x.divisors == ("f0", "fInf", "X1", "X2")
    _line(6, "split-bundle ray matrices byte-exact", ok)


def test_criterion_07_divisor_class_groups():
    g1 = bundle_over_p1([-2]).chow_group()
    p1 = g1.free_projection()[0]
    ok = g1.free_rank == 1 and g1.torsion == () and p1 in ((1, 1, -2), (-1, -1, 2))
    g2 = bundle_over_p1([-1, -1]).chow_group()
    p2 = g2.free_projection()[0]
    ok = ok and g2.free_rank == 1 and g2.torsion == ()
    ok = ok and p2 in ((1, 1, -1, -1), (-1, -1, 1, 1))
    _line(7, "divisor class groups of the two self-dual cases", ok, "proj %s / %s" % (p1, p2))


def test_criterion_08_regularity_pairing_recompute():
    samples = [
        (a,) for a in range(-4, 3)
    ] + [
        t for t in itertools.product(range(-4, 3), repeat=2)
    ] + [(-2, -1, 0), (-3, 1, -1), (0, 0, -2), (2, 2, 2), (-4, -4, 0)]
    ok = True
    checked = 0
    for degrees in samples:
        m = bundle_model(degrees)
        dv = m.variety.dv
        mon = m.mon()
        om = dv @ mon.transpose()
        for i in range(dv.rows):
            for k in range(mon.rows):
                pairing = sum(a * b for a, b in zip(dv[i], mon[k]))
                ok = ok and om[i][k] == pairing and pairing >= 0
                checked += 1
    _line(8, "regularity pairing recompute", ok, "%d models, %d entries" % (len(samples), checked))


def _minor_gcd(a, k):
    g = 0
    for rows_ in itertools.combinations(range(a.rows), k):
        for cols_ in itertools.combinations(range(a.cols), k):
            sub = [[a[i][j] for j in cols_] for i in rows_]
            g = math.gcd(g, _det([tuple(r) for r in sub]))
    return g


def test_criterion_09_randomized_oracle_suites():
    rng = random.Random(12345)
    start = time.perf_counter()
    instances = 0
    ok = True

    def rand_matrix(rows, cols, bound=3):
        return IntMatrix.from_rows(
            [tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)]
        )

    # smith form vs gcds of k-minors
    for _ in range(500):
        a = rand_matrix(rng.randint(1, 3), rng.randint(1, 3))
        dec = snf(a)
        ok = ok and dec.u @ a @ dec.v == dec.s
        ok = ok and dec.u.is_unimodular() and dec.v.is_unimodular()
        diag = dec.diagonal()
        prod = 1
        for k in range(1, min(a.rows, a.cols) + 1):
            prod *= diag[k - 1]
            ok = ok and abs(prod) == _minor_gcd(a, k)
        instances += 1

    # hermite form: equivalence witness, canonical shape, class invariance
    shears = [
        IntMatrix.from_rows([(1, 1), (0, 1)]),
        IntMatrix.from_rows([(1, 0), (1, 1)]),
        IntMatrix.from_rows([(0, 1), (1, 0)]),
        IntMatrix.from_rows([(-1, 0), (0, 1)]),
    ]
    for _ in range(300):
        a = rand_matrix(rng.randint(1, 4), 2)
        h, u, uinv = hnf_col_transform(a)
        ok = ok and a @ u == h and u.is_unimodular()
        ok = ok and u @ uinv == IntMatrix.identity(2)
        last = -1
        for j in range(h.cols):
            nz = [i for i in range(h.rows) if h[i][j] != 0]
            if not nz:
                continue
            piv = min(nz)
            ok = ok and piv > last and h[piv][j] > 0
            ok = ok and all(0 <= h[piv][j2] < h[piv][j] for j2 in range(j))
            last = piv
        w = shears[rng.randrange(len(shears))] @ shears[rng.randrange(len(shears))]
        ok = ok and hnf_col_transform(a @ w, with_u=False, with_uinv=False)[0] == h
        instances += 1

    # permutation + basis-change search vs bounded brute force
    brute_u = [
        IntMatrix.from_rows([(p, q), (r, s)])
        for p, q, r, s in itertools.product(range(-3, 4), repeat=4)
        if p * s - q * r in (1, -1)
    ]
    perms = list(itertools.permutations(range(3)))
    for trial in range(250):
        a = rand_matrix(3, 2)
        if trial % 2 == 0:
            b = (a @ brute_u[rng.randrange(len(brute_u))]).take_rows(
                tuple(rng.sample(range(3), 3))
            )
        else:
            b = rand_matrix(3, 2)
        res = matrix_self_dual(a, b)
        brute_found = any(
            b.take_rows(p) @ w == a for p in perms for w in brute_u
        )
        if res is None:
            ok = ok and not brute_found
        else:
            p, u = res
            ok = ok and b.take_rows(p) @ u == a and u.is_unimodular()
        instances += 1

    elapsed = time.perf_counter() - start
    ok = ok and instances >= 1000 and elapsed < 120.0
    _line(9, "randomized normal-form and search oracles", ok, "%d instances, %.1fs" % (instances, elapsed))


def test_criterion_10_product_with_dual_block_swap():
    ok = True
    for degrees in ([-2], [-1, -1], [-3], [-2, 0], [-4]):
        total, w = product_self_dual(bundle_model(degrees))
        ok = ok and w.verify(total.variety.dv, total.mon(), check_k=False)
        dv = [tuple(r) for r in total.variety.dv]
        mon = [tuple(r) for r in total.mon()]
        selected = [mon[i] for i in w.monomial_subset]
        permuted = [selected[p] for p in w.row_permutation]
        u_rows = [tuple(r) for r in w.basis_change]
        ok = ok and _matmul(permuted, u_rows) == dv and abs(_det(u_rows)) == 1
    _line(10, "product against dual passes the block-swap search", ok)


def _affine(row, offset, point):
    return sum(Fraction(a) * x for a, x in zip(row, point)) + offset


def _drop_certificate_holds(rows, offsets, i, kept, lam):
    # row i is implied by the kept rows: c_i = sum lam_j c_j with lam >= 0,
    # and offset_i >= sum lam_j offset_j
    combo = [sum(l * rows[j][k] for l, j in zip(lam, kept)) for k in range(len(rows[i]))]
    return (
        len(lam) == len(kept)
        and all(l >= 0 for l in lam)
        and combo == list(rows[i])
        and offsets[i] >= sum(l * offsets[j] for l, j in zip(lam, kept))
    )


def _keep_certificate_holds(rows, offsets, i, point):
    # a point violating row i and strictly satisfying every other row
    return _affine(rows[i], offsets[i], point) < 0 and all(
        _affine(rows[j], offsets[j], point) > 0 for j in range(len(rows)) if j != i
    )


def test_criterion_11_redundant_facet_drop_pattern():
    # Offsets are (0, t, 0[, 0]) with t < 0.  Rank 1 drops (0,1) =
    # 1/2 (1,0) + 1/2 (-1,2), whose offset 0 is at least t/2.  Rank 2 drops
    # nothing: (0,1,0) is no nonnegative combination of (1,0,0), (-1,1,1) and
    # (0,0,1), since the y-coordinate forces weight 1 on (-1,1,1) and the
    # z-coordinate then forces weight -1 on (0,0,1); (0,0,1) likewise.  Every
    # verdict is replayed from its own certificate, computed without facets:
    # multipliers over the kept rows for each dropped row, and a separating
    # point for each kept row.
    scales = (Fraction(-1), Fraction(-1, 2), Fraction(-3))
    half = Fraction(1, 2)
    cases = (
        (
            "rank-1",
            bundle_over_p1([-2]),
            {2: (half, half)},
            {0: lambda t: (-1, 1 - t), 1: lambda t: (2 - t, 1)},
        ),
        (
            "rank-2",
            bundle_over_p1([-1, -1]),
            {},
            {
                0: lambda t: (-1, 1, 1 - t),
                1: lambda t: (3, 1, 1),
                2: lambda t: (1, -1, 3 - t),
                3: lambda t: (1, 3 - t, -1),
            },
        ),
    )
    ok = True
    details = []
    for name, variety, drop_certs, keep_certs in cases:
        dropped, kept = tuple(sorted(drop_certs)), tuple(sorted(keep_certs))
        assert sorted(dropped + kept) == list(range(variety.dv.rows))
        seen = set()
        for t in scales:
            k = canonical_class(variety.chow_group(), [ComplexQ(0, t)])
            h = HalfspaceSystem(variety.dv, k.im_lift())
            rows, offsets = h.c.entries, h.offset
            report = facets(h)
            drops = tuple(i for i in range(len(rows)) if i not in report.irredundant)
            seen.add(drops)
            ok = (
                ok
                and drops == dropped
                and all(
                    _drop_certificate_holds(rows, offsets, i, kept, lam)
                    for i, lam in drop_certs.items()
                )
                and all(
                    _keep_certificate_holds(rows, offsets, i, point(t))
                    for i, point in keep_certs.items()
                )
            )
        details.append("%s drops %s" % (name, sorted(seen)))
    _line(11, "negative-class redundancy drop pattern", ok, ", ".join(details))
