"""Self-test of the benchmark: every workload at a tiny size must pass its
checks, and each check must fail on a corrupted output.

    python3 bench/selftest.py

Exits 0 when every expectation holds, 1 otherwise.  Takes a few seconds.
"""

import dataclasses
import os
import sys
import types

import run
import tracing
import workloads


def main():
    sys.path.insert(0, run.SRC)
    lg = types.SimpleNamespace(**run.import_lgdual())
    tiny = workloads.make_workloads(line_k=4, cy=(3, 2), files=6)
    outdir = os.path.join(run.OUT, "selftest")
    os.makedirs(outdir, exist_ok=True)
    problems = []

    def expect(ok, what):
        print("%s: %s" % ("ok" if ok else "FAILED", what))
        if not ok:
            problems.append(what)

    meter = run.SpeedMeter()
    runs = {}
    for name, wl in tiny.items():
        inputs = wl.build(0, outdir)
        with meter:
            _, outputs = run.measure(meter, lg, wl, inputs, 0, 1)
        failed, errors = run.check_outputs(lg, wl, inputs, outputs)
        expect(failed == 0 and not errors, "%s passes its checks at a tiny size %s" % (name, errors))
        runs[name] = (wl, inputs, outputs, wl.expected(inputs))

    def caught(name, i, corrupt):
        wl, inputs, outputs, expected = runs[name]
        return wl.check(lg, inputs[i], corrupt(outputs[i]), expected) is not None

    wl, inputs, outputs, expected = runs["cy-sweep"]
    yes = next(i for i, v in enumerate(outputs) if v.self_dual)
    no = next(i for i, v in enumerate(outputs) if not v.self_dual)
    flip = lambda v: dataclasses.replace(v, self_dual=not v.self_dual)
    expect(caught("cy-sweep", yes, flip), "a YES verdict flipped to NO is caught")
    expect(caught("cy-sweep", no, flip), "a NO verdict flipped to YES is caught")
    flipped = list(outputs)
    flipped[yes] = flip(outputs[yes])
    expect(wl.whole_run_checks(lg, inputs, flipped, expected) != [],
           "the classification check sees a flipped verdict")

    def perturb(v):
        u = [list(r) for r in v.witness.basis_change.entries]
        u[0][0] += 1
        w = dataclasses.replace(v.witness, basis_change=lg.linalg.IntMatrix(len(u), len(u), u))
        return dataclasses.replace(v, witness=w)

    expect(caught("cy-sweep", yes, perturb), "a perturbed witness entry is caught")
    expect(caught("line-sweep", runs["line-sweep"][1].index((-2,)), perturb),
           "a perturbed O(-2) witness entry is caught")

    def drop_kept_row(out):
        code_a, text, code_d, dual = out
        lines = text.splitlines()
        i = next(k for k, s in enumerate(lines) if "reconstruction map:" in s)
        info = workloads.parse_analyze(text)
        kept = info["reconstruction map"]
        if kept == "yes (identity)":
            rows = list(range(int(info["variety"].split()[0])))
        else:
            rows = [int(x) for x in kept.split(":")[1].rstrip(")").split(",")]
        lines[i] = "  reconstruction map: yes (kept rows: %s)" % ", ".join(map(str, rows[1:]))
        return code_a, "\n".join(lines) + "\n", code_d, dual

    def flip_involution(out):
        code_a, text, code_d, dual = out
        lines = dual.splitlines()
        i = next(k for k, s in enumerate(lines) if s.startswith("# involution: mon restored"))
        lines[i] = lines[i][:-3] + "no" if lines[i].endswith("yes") else lines[i][:-2] + "yes"
        return code_a, text, code_d, "\n".join(lines) + "\n"

    wl, inputs, outputs, _ = runs["model-files"]
    garbled = [(0, "garbage\n", 0, "")] + list(outputs[1:])
    failed, errors = run.check_outputs(lg, wl, inputs, garbled)
    expect(failed == 1 and len(errors) == 1, "an unreadable analyze output is caught")
    for i in range(len(runs["model-files"][1])):
        expect(caught("model-files", i, drop_kept_row), "a dropped kept row is caught (file %d)" % i)
        expect(caught("model-files", i, flip_involution),
               "a wrong involution line is caught (file %d)" % i)

    # the traced run records spans in each layer and restores the program
    before = lg.selfdual.matrix_self_dual
    tracer = tracing.Tracer(meter.clock)
    tracer.install(vars(lg))
    try:
        with meter:
            for name in ("cy-sweep", "model-files"):
                wl, inputs, _, _ = runs[name]
                run.measure(meter, lg, wl, inputs, 0, 1)
    finally:
        tracer.uninstall()
    m = tracer.metrics(0.0)
    expect(all(m[k + ".calls"] > 0 for k in ("cli.main", "selfdual.matrix_self_dual",
                                             "linalg.hnf_col_transform", "polyhedra.facets",
                                             "linalg.IntMatrix.rank")),
           "the traced run records calls into each layer")
    expect(lg.selfdual.matrix_self_dual is before, "the tracer restores the wrapped functions")

    print("self-test: %s" % ("PASS" if not problems else "%d FAILED" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
