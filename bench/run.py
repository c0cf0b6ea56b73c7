"""lgdual benchmark: one workload per run, checked against the benchmark's own
computations, with one JSON result object as the last line of stdout.

    python3 bench/run.py --workload cy-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; lgdual is imported from its ``src``.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run.  See bench/README.md.
"""

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import types
from array import array
from fractions import Fraction
from math import ceil

import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

# The host's speed changes by up to 1.5x from one second to the next, with
# other tenants on the machine.  Every reported time is therefore scaled by
# a reference probe: a fixed exact elimination, made of the same integer and
# Fraction arithmetic as lgdual's, run from a timer signal every
# PROBE_EVERY_S.  A stretch of work that took t, while the probes during it
# and PROBE_WINDOW on each side took p on average, is reported as
# t * REFERENCE_PROBE_S / p.
REFERENCE_PROBE_S = 0.0015
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 2
PROBE_MATRIX = [[3, -1, 2, 5, 0, 1], [1, 4, -2, 0, 3, 2], [2, 2, 1, -3, 1, 0],
                [0, 1, 3, 1, -2, 4], [5, 0, -1, 2, 2, 1], [1, 3, 0, 0, 1, -1]]


class SpeedMeter:
    """Probes the host's speed from SIGALRM while active.

    ``clock()`` is a perf_counter that stops while a probe runs, so probes
    add nothing to the times taken with it; ``mark()`` notes the clock and
    the number of probes so far, and ``scaled(a, b)`` converts the time
    between two marks to reference speed once PROBE_WINDOW probes have run
    after ``b``.
    """

    def __init__(self):
        self.probes = array("d")
        self.paused = 0.0

    def _probe(self, *_):
        t0 = time.perf_counter()
        for _ in range(4):
            oracle.rank(PROBE_MATRIX)
            oracle.det(PROBE_MATRIX)
        t1 = time.perf_counter()
        self.probes.append(t1 - t0)
        self.paused += t1 - t0

    def __enter__(self):
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(PROBE_WINDOW):
            self._probe()

    def clock(self):
        return time.perf_counter() - self.paused

    def mark(self):
        return self.clock(), len(self.probes)

    def scaled(self, a, b):
        (t_a, n_a), (t_b, n_b) = a, b
        around = self.probes[max(0, n_a - PROBE_WINDOW):n_b + PROBE_WINDOW]
        return (t_b - t_a) * REFERENCE_PROBE_S * len(around) / sum(around)


def import_lgdual():
    """Import lgdual afresh from this checkout's src."""
    for name in [k for k in sys.modules if k == "lgdual" or k.startswith("lgdual.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module("lgdual." + m) for m in tracing.MODULES}
    pkg = sys.modules["lgdual"]
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "lgdual"):
        raise ImportError("lgdual imported from %s, not from %s" % (pkg.__file__, SRC))
    return mods


def setup(meter, workload, seed):
    """Import lgdual and build the inputs, several times: the modules, the
    inputs and the start and end marks of each time."""
    spans = []
    for _ in range(SETUP_REPEATS):
        a = meter.mark()
        mods = import_lgdual()
        inputs = workload.build(seed, OUT)
        spans.append((a, meter.mark()))
    return mods, inputs, spans


def measure(meter, lg, workload, inputs, seconds, min_rounds):
    """Whole rounds over the inputs until ``seconds`` have passed and at
    least ``min_rounds`` are done: each operation's output and its start
    and end marks."""
    marks, outputs = [], []
    t0 = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - t0 < seconds:
        for x in inputs:
            a = meter.mark()
            try:
                out = workload.op(lg, x)
            except Exception as e:  # counted as a failed operation
                out = e
            marks.append((a, meter.mark()))
            outputs.append(out)
        rounds += 1
    return marks, outputs


def tail_percentile(ops):
    """The percentile with exactly ten operations beyond it, by nearest rank,
    in a run of ``ops`` operations."""
    return Fraction(100 * (ops - 10), ops)


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, ceil(pct * len(sorted_values) / 100) - 1)]


def check_outputs(lg, workload, inputs, outputs):
    """(failed, errors): operations that raised or gave a wrong or unchecked
    output, and the descriptions of wrong outputs and whole-run faults."""
    expected = workload.expected(inputs)
    failed, errors = 0, []
    n = len(inputs)
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            failed += 1
            continue
        try:
            err = workload.check(lg, inputs[i % n], out, expected)
        except Exception as e:  # an output the checks cannot read is wrong
            err = "unreadable output: %r" % (e,)
        if err is not None:
            failed += 1
            errors.append(err)
    errors += workload.whole_run_checks(lg, inputs, outputs[:n], expected)
    return failed, errors


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.make_workloads()))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = workloads.make_workloads()[args.workload]

    if not os.path.isfile(os.path.join(SRC, "lgdual", "__init__.py")):
        print("no lgdual sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    with SpeedMeter() as meter:
        mods, inputs, setup_marks = setup(meter, workload, args.seed)
        lg = types.SimpleNamespace(**mods)
        n = len(inputs)
        pct = tail_percentile(workload.min_rounds * n)
        if args.trace:
            tracer = tracing.Tracer(meter.clock)
            tracer.install(mods)
            try:
                marks, outputs = measure(meter, lg, workload, inputs, args.seconds,
                                         workload.min_rounds)
            finally:
                tracer.uninstall()
            plain, _ = measure(meter, lg, workload, inputs, 0, 1)
        else:
            marks, outputs = measure(meter, lg, workload, inputs, args.seconds,
                                     workload.min_rounds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [meter.scaled(a, b) for a, b in marks]

    failed, errors = check_outputs(lg, workload, inputs, outputs)
    if args.trace:
        traced = statistics.median(sum(latencies[i:i + n]) for i in range(0, len(latencies), n))
        untraced = sum(meter.scaled(a, b) for a, b in plain)
        tracer.write(os.path.join(OUT, "trace-%s.tsv.gz" % args.workload))
        values = tracer.metrics(100 * (traced / untraced - 1))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.metric_specs()}
    else:
        lat = sorted(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(meter.scaled(a, b) for a, b in setup_marks),
                        "unit": "s"},
            "ops_per_s": {"value": (len(lat) - failed) / sum(lat), "unit": "op/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * nearest_rank(lat, pct), "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for e in errors[:20]:
        print("check failed: %s" % e, file=sys.stderr)
    print("%s seed %d: %d rounds of %d operations, tail percentile p%.3f" % (
        args.workload, args.seed, len(outputs) // n, n, pct), file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(outputs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
