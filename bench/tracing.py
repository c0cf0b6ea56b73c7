"""Spans around the calls into each lgdual layer, recorded from outside the
program by replacing its public functions while a traced run lasts.

Each call records its function, start, end and parent span in flat arrays;
they are written out when the run ends.  Self time is a span's duration minus
the time its child spans cover.
"""

import gzip
import sys
from array import array

MODULES = ("cli", "modelfile", "lgmodel", "toric", "selfdual", "polyhedra", "linalg")

FUNCTIONS = (
    ("cli", "main"),
    ("modelfile", "load_model"),
    ("modelfile", "format_model"),
    ("lgmodel", "bundle_model"),
    ("lgmodel", "linear_data"),
    ("lgmodel", "is_kopaseptic"),
    ("lgmodel", "dualize"),
    ("toric", "bundle_over_p1"),
    ("toric", "from_linear_data"),
    ("selfdual", "model_self_dual"),
    ("selfdual", "matrix_self_dual"),
    ("selfdual", "k_reconstruction_class"),
    ("polyhedra", "facets"),
    ("polyhedra", "strict_interior_nonempty"),
    ("linalg", "right_equivalent"),
    ("linalg", "hnf_col_transform"),
    ("linalg", "snf"),
)

METHODS = (("linalg", "IntMatrix", "rank"), ("linalg", "IntMatrix", "det"))

SPAN_NAMES = tuple("%s.%s" % f for f in FUNCTIONS) + tuple("%s.%s.%s" % m for m in METHODS)


def metric_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(name + ".calls", "count", "lower"), (name + ".s", "s", "lower")]
    specs += [(m + ".self_s", "s", "lower") for m in MODULES]
    specs += [
        ("selfdual.matrix_self_dual.hit_ratio", "ratio", "higher"),
        ("linalg.right_equivalent.hit_ratio", "ratio", "higher"),
        ("polyhedra.facets.rows_in", "count", "lower"),
        ("polyhedra.facets.kept_ratio", "ratio", "higher"),
        ("linalg.IntMatrix.constructed", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return specs


class Tracer:
    """Spans and counts of one traced run, timed with ``clock``."""

    def __init__(self, clock):
        self.clock = clock
        self.fid = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.hits = {"selfdual.matrix_self_dual": 0, "linalg.right_equivalent": 0}
        self.facet_rows = [0, 0]  # rows in, rows kept
        self.constructed = 0
        self._undo = []

    def _wrap(self, name, fn):
        k = SPAN_NAMES.index(name)
        fid, parent, start, end, stack = self.fid, self.parent, self.start, self.end, self.stack
        clock = self.clock
        hits, facet_rows = self.hits, self.facet_rows

        def traced(*args, **kwargs):
            i = len(fid)
            fid.append(k)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if name in hits:
                hits[name] += result is not None
            elif name == "polyhedra.facets":
                facet_rows[0] += args[0].c.rows
                facet_rows[1] += len(result.irredundant)
            return result

        return traced

    def install(self, lgdual_modules):
        """Replace each listed function in every lgdual namespace binding it."""
        spaces = [m for k, m in sys.modules.items() if k == "lgdual" or k.startswith("lgdual.")]
        for mod, fname in FUNCTIONS:
            orig = getattr(lgdual_modules[mod], fname)
            traced = self._wrap("%s.%s" % (mod, fname), orig)
            for space in spaces:
                for attr, val in list(vars(space).items()):
                    if val is orig:
                        setattr(space, attr, traced)
                        self._undo.append((space, attr, orig))
        cls = lgdual_modules["linalg"].IntMatrix
        for mod, cname, meth in METHODS:
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap("%s.%s.%s" % (mod, cname, meth), orig))
            self._undo.append((cls, meth, orig))
        orig_init = cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.constructed += 1
            orig_init(obj, *args, **kwargs)

        cls.__init__ = counted_init
        self._undo.append((cls, "__init__", orig_init))

    def uninstall(self):
        for space, attr, orig in reversed(self._undo):
            setattr(space, attr, orig)
        self._undo = []

    def metrics(self, overhead_pct):
        n = len(self.fid)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(SPAN_NAMES)
        total = [0.0] * len(SPAN_NAMES)
        own = dict.fromkeys(MODULES, 0.0)
        for i in range(n):
            k = self.fid[i]
            d = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += d
            own[SPAN_NAMES[k].split(".")[0]] += d - child[i]
        out = {}
        for k, name in enumerate(SPAN_NAMES):
            out[name + ".calls"] = calls[k]
            out[name + ".s"] = total[k]
        for m in MODULES:
            out[m + ".self_s"] = own[m]
        for name, hit in self.hits.items():
            c = calls[SPAN_NAMES.index(name)]
            out[name + ".hit_ratio"] = hit / c if c else 0.0
        rows_in, kept = self.facet_rows
        out["polyhedra.facets.rows_in"] = rows_in
        out["polyhedra.facets.kept_ratio"] = kept / rows_in if rows_in else 0.0
        out["linalg.IntMatrix.constructed"] = self.constructed
        out["trace.overhead_pct"] = overhead_pct
        return out

    def write(self, path):
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.fid)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.parent[i], SPAN_NAMES[self.fid[i]],
                    self.start[i] - t0, self.end[i] - t0))
