"""The three workloads: their seeded inputs, one operation each, and the checks
of every operation's output against the computations in ``oracle``.

``lg`` below is a namespace holding the imported lgdual modules.  Operations
look functions up through it at call time, so a traced run sees its wrappers.
"""

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracle

SWEEP_HEADER = "degrees\tsumDeg\tcanonicalTrivial\tpolystable\tstrongCY\tselfDual"


def run_cli(lg, argv):
    """(exit code, stdout) of ``lgdual <argv>`` run in this process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = lg.cli.main(argv)
    return code, out.getvalue()


class SweepWorkload:
    """One operation is one bundle verdict, ``model_self_dual(degrees)``, as
    ``lgdual sweep`` computes it.  The seed only fixes the order."""

    def __init__(self, tuples, min_rounds, self_dual_set, strong_only, cli_argv, cli_tuples):
        self.tuples = tuples
        self.min_rounds = min_rounds
        self.self_dual_set = self_dual_set
        self.strong_only = strong_only
        self.cli_argv = cli_argv
        self.cli_tuples = cli_tuples

    def build(self, seed, outdir):
        inputs = list(self.tuples)
        random.Random(seed).shuffle(inputs)
        return inputs

    def op(self, lg, degrees):
        return lg.selfdual.model_self_dual(degrees)

    def expected(self, inputs):
        """Failure reason per degree tuple (None: self-dual), decided by the
        charge-lattice test."""
        todo = set(inputs) | set(self.cli_tuples)
        return {d: oracle.matrix_verdict(*oracle.bundle_matrices(d)) for d in todo}

    def check(self, lg, degrees, verdict, expected):
        """None when the verdict is right, else what is wrong with it."""
        reason = expected[degrees]
        if tuple(verdict.degrees) != degrees:
            return "degrees %s reported as %s" % (degrees, verdict.degrees)
        ct, ps = sum(degrees) == -2, len(set(degrees)) == 1
        if (verdict.canonical_trivial, verdict.polystable, verdict.strong_cy) != (ct, ps, ct and ps):
            return "%s: wrong canonicalTrivial/polystable/strongCY" % (degrees,)
        if verdict.self_dual != (reason is None):
            return "%s: selfDual %s, the charge-lattice test says %s" % (
                degrees, verdict.self_dual, reason is None)
        if reason is not None:
            if verdict.failure != reason:
                return "%s: failure %r, expected %r" % (degrees, verdict.failure, reason)
            return None
        w = verdict.witness
        dv, mon = oracle.bundle_matrices(degrees)
        if not oracle.witness_holds(dv, mon, w.monomial_subset, w.row_permutation,
                                    w.basis_change.entries):
            return "%s: witness does not replay" % (degrees,)
        return None

    def whole_run_checks(self, lg, inputs, outputs, expected):
        """The paper's classification over this run's verdicts, and
        ``lgdual sweep`` at a small size (it exits 0 only when the
        classification holds) against the oracle."""
        errors = []
        found = {d for d, v in zip(inputs, outputs)
                 if not isinstance(v, Exception) and v.self_dual
                 and (v.strong_cy or not self.strong_only)}
        if found != self.self_dual_set & set(inputs):
            errors.append("classification: self-dual set is %s" % sorted(found))
        code, out = run_cli(lg, self.cli_argv)
        lines = out.splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        got = [tuple(int(a) for a in cells[0].split(",")) for cells in rows]
        if code != 0 or lines[:1] != [SWEEP_HEADER] or sorted(got) != sorted(self.cli_tuples):
            return errors + ["lgdual %s: exit %s or wrong row set" % (" ".join(self.cli_argv), code)]
        for d, cells in zip(got, rows):
            ct, ps = sum(d) == -2, len(set(d)) == 1
            want = [str(sum(d))] + [str(f).lower() for f in (ct, ps, ct and ps, expected[d] is None)]
            if cells[1:] != want:
                errors.append("lgdual %s: row %s reads %s" % (" ".join(self.cli_argv), d, cells))
        return errors


# ---------------------------------------------------------------------------
# Model files


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def random_model(rng, n_dv, n_mon):
    """Dense model in dimension 4: n_dv primitive rays and n_mon primitive
    monomials with dv . mon^T >= 0, so the potential is regular.

    Some monomial is positive on every ray and some ray on every monomial,
    so both halfspace systems have a strict interior whatever the class
    lifts.  With fewer monomials than rays the dual cannot match dv's shape,
    which keeps ``dualize`` out of the row-order search.
    """
    while True:
        mon = []
        while len(mon) < n_mon:
            m = (rng.randint(1, 2),) + tuple(rng.randint(-1, 1) for _ in range(3))
            if oracle.row_gcd(m) == 1 and m not in mon:
                mon.append(m)
        dv = []
        for _ in range(3000):
            v = (rng.randint(1, 3),) + tuple(rng.randint(-1, 1) for _ in range(3))
            if oracle.row_gcd(v) == 1 and v not in dv and all(_dot(v, m) >= 0 for m in mon):
                dv.append(v)
                if len(dv) == n_dv:
                    break
        if (len(dv) == n_dv
                and any(all(_dot(v, m) > 0 for v in dv) for m in mon)
                and any(all(_dot(v, m) > 0 for m in mon) for v in dv)):
            return dv, mon


def model_text(dv, mon, coeffs, title):
    lines = ["# %s" % title, "[variety]", "dv = " + "; ".join(" ".join(map(str, r)) for r in dv),
             "[potential]"]
    lines += ["term = %s : %s" % (c, " ".join(map(str, m))) for c, m in zip(coeffs, mon)]
    return "\n".join(lines) + "\n"


def _imag(token):
    """Imaginary part of a printed complex rational such as 0-4/5i."""
    token = token.strip()
    if not token.endswith("i"):
        return Fraction(0)
    body = token[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    return Fraction(body[cut:] if cut > 0 else body)


def _list(line):
    inner = line.split("[", 1)[1].rsplit("]", 1)[0]
    return [t for t in inner.split(",") if t.strip()]


def parse_analyze(text):
    """The parts of ``lgdual analyze`` output that the checks compare."""
    lines = text.splitlines()
    info = {"free": []}
    for i, line in enumerate(lines):
        s = line.strip()
        if s.startswith("free generator"):
            info["free"].append([int(v) for v in s.split("(")[1].rstrip(")").split(",")])
        elif s in ("K class:", "L class:"):
            info[s[0] + "values"] = [t.strip() for t in _list(lines[i + 1])]
            info[s[0] + "lift"] = [_imag(t) for t in _list(lines[i + 2])]
        elif ":" in s and s.split(":")[0] in ("interior nonempty", "reconstruction map",
                                               "order matrix nonnegative", "variety"):
            key, val = s.split(":", 1)
            info[key] = val.strip()
        elif s.startswith("=>"):
            info["verdict"] = s[2:].strip()
    return info


class ModelFilesWorkload:
    """One operation is one model file through ``lgdual analyze`` and then
    ``lgdual dualize --check-involution``, both in this process.

    The models come from one fixed generator seed, the same number of each
    (rays, monomials) shape.  Fourier-Motzkin work varies several-fold from
    model to model, so models drawn afresh per seed would move a run's
    figures by more than the bounds; the run's seed instead orders the files
    and draws the term coefficients, which lgdual parses but which do not
    change its work.
    """

    shapes = [(8, 5), (8, 6), (8, 7), (9, 5), (9, 6), (9, 7)]
    model_seed = 1410

    def __init__(self, files, min_rounds):
        self.files = files
        self.min_rounds = min_rounds

    def build(self, seed, outdir):
        models = random.Random(self.model_seed)
        models = [random_model(models, *self.shapes[k % len(self.shapes)])
                  for k in range(self.files)]
        rng = random.Random(seed)
        rng.shuffle(models)
        folder = os.path.join(outdir, "models-s%d" % seed)
        os.makedirs(folder, exist_ok=True)
        inputs = []
        for k, (dv, mon) in enumerate(models):
            coeffs = ["%d/%d%+di" % (rng.randint(1, 9), rng.randint(1, 9), rng.randint(-3, 3))
                      for _ in mon]
            path = os.path.join(folder, "m%03d.lg" % k)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(model_text(dv, mon, coeffs, "seed %d model %d" % (seed, k)))
            inputs.append((path, dv, mon))
        return inputs

    def op(self, lg, item):
        path = item[0]
        code_a, out_a = run_cli(lg, ["analyze", path])
        code_d, out_d = run_cli(lg, ["dualize", "--check-involution", path])
        return code_a, out_a, code_d, out_d

    def expected(self, inputs):
        # the systems depend on the class lifts the program prints, so the
        # certified reports are computed in ``check`` and cached here
        return {}

    def _report(self, cache, a, b):
        key = (tuple(map(tuple, a)), tuple(b))
        if key not in cache:
            cache[key] = oracle.SystemReport(a, b)
        return cache[key]

    def check(self, lg, item, output, cache):
        path, dv, mon = item
        code_a, out_a, code_d, out_d = output
        if code_a != 0:
            return "analyze exit %s" % code_a
        info = parse_analyze(out_a)
        r = len(dv)
        # the K class: i on each free generator of coker(dv), through the printed lift
        free = info["free"]
        if (len(free) != r - oracle.rank(dv) or (free and oracle.rank(free) != len(free))
                or any(v != 0 for row in oracle.matmul(free, dv) for v in row)
                or info.get("Kvalues") != ["0+1i"] * len(free)
                or any(oracle.value(p, info["Klift"], 0) != 1 for p in free)):
            return "analyze: wrong class group or K class"
        k_rep = self._report(cache, dv, info["Klift"])
        if info.get("interior nonempty") != ("yes" if k_rep.interior else "no"):
            return "analyze: interior line contradicts its certificate"
        if not k_rep.interior:
            kmap = "no"
        elif k_rep.kept == tuple(range(r)):
            kmap = "yes (identity)"
        else:
            kmap = "yes (kept rows: %s)" % ", ".join(map(str, k_rep.kept))
        if info.get("reconstruction map") != kmap:
            return "analyze: kept rows %r, certificates give %r" % (
                info.get("reconstruction map"), kmap)
        order_ok = all(v >= 0 for row in oracle.matmul(dv, [list(c) for c in zip(*mon)])
                       for v in row)
        if info.get("order matrix nonnegative") != ("yes" if order_ok else "no"):
            return "analyze: order-matrix line is wrong"
        passed = k_rep.interior and order_ok
        if (info.get("verdict") == "PASS") != passed:
            return "analyze: verdict %r is wrong" % info.get("verdict")
        if info.get("Lvalues") != ["0+1i"] * len(info.get("Lvalues", [])):
            return "analyze: L class values are not i"
        l_rep = self._report(cache, mon, info["Llift"])
        if code_d == 4:
            return None if not l_rep.interior else "dualize exit 4 with a nonempty interior"
        if code_d != 0 or not l_rep.interior:
            return "dualize exit %s" % code_d
        return self._check_dual(lg, dv, mon, info["Llift"], k_rep, l_rep, out_d)

    def _check_dual(self, lg, dv, mon, l_lift, k_rep, l_rep, out_d):
        lines = out_d.splitlines()
        cut = next((i for i, s in enumerate(lines) if s.startswith("# self-dual")), None)
        if cut is None:
            return "dualize: no matrix-level line"
        dual = lg.modelfile.parse_model("\n".join(lines[:cut]) + "\n")
        rays = [tuple(r) for r in dual.variety.dv.entries]
        if rays != [tuple(mon[j]) for j in l_rep.kept] or any(oracle.row_gcd(v) != 1 for v in rays):
            return "dualize: rays are not the certified facets of (mon, Im L)"
        if list(dual.k_class.im_lift()) != [l_lift[j] for j in l_rep.kept]:
            return "dualize: dual offset is not Im L on the kept rows"
        if [tuple(e) for e in dual.potential.exponents()] != [tuple(v) for v in dv]:
            return "dualize: dual monomials are not the rows of dv"
        if len(rays) == len(dv):
            return "dualize: matrix-level line not checked for equal shapes"
        dv_back = k_rep.kept == tuple(range(len(dv)))
        mon_back = l_rep.kept == tuple(range(len(mon)))
        yn = lambda f: "yes" if f else "no"
        want = ["# self-dual (matrix level): no",
                "# involution: dv restored: %s" % yn(dv_back),
                "# involution: mon restored: %s" % yn(mon_back),
                "# involution: K equivalent: %s" % yn(dv_back)]
        if lines[cut:] != want:
            return "dualize: matrix-level or involution lines %s, expected %s" % (lines[cut:], want)
        return None

    def whole_run_checks(self, lg, inputs, outputs, cache):
        return []


def make_workloads(line_k=20, cy=(6, 6), files=72):
    return {
        "cy-sweep": SweepWorkload(
            oracle.cy_tuples(*cy), min_rounds=3,
            self_dual_set={(-2,), (-1, -1)}, strong_only=True,
            cli_argv=["sweep", "--cy", "3", "3"], cli_tuples=oracle.cy_tuples(3, 3)),
        "line-sweep": SweepWorkload(
            [(-k,) for k in range(line_k + 1)], min_rounds=3,
            self_dual_set={(-2,)}, strong_only=False,
            cli_argv=["sweep", "--rank1", "6"], cli_tuples=[(-k,) for k in range(7)]),
        "model-files": ModelFilesWorkload(files, min_rounds=1),
    }
