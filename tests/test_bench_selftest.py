"""The benchmark's own self-test, run as part of the suite.

bench/selftest.py runs every workload at a tiny size through the traced
harness and checks each workload's outputs, so a library change that
breaks a traced function or a workload check fails here too.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
