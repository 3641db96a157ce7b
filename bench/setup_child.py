"""One set-up measurement: a fresh interpreter imports the package (and
qubitcone.cli for the cli workload), builds the workload's inputs and runs
its first operation. It prints the CPU seconds of its main thread so far,
then the CPU and wall seconds spent building inputs, which bench/run.py
subtracts. The main thread is the start-up's critical path; the threads a
BLAS library starts on import spin on other cores without lengthening it.

    python3 bench/setup_child.py WORKLOAD SEED WORKDIR
"""
import sys
import time
from pathlib import Path

workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = Path(__file__).resolve().parent
sys.path[:0] = [str(bench.parent / "src"), str(bench)]

if workload == "cli":
    import qubitcone.cli  # noqa: F401
else:
    import qubitcone  # noqa: F401

import importlib

import common

mod = importlib.import_module(common.MODULES[workload])
t0, c0 = time.perf_counter(), time.thread_time()
inputs = mod.pool(seed, workdir)
c1, t1 = time.thread_time(), time.perf_counter()
try:
    mod.op(inputs[0])
except Exception:  # a failing operation is counted by the timed run, not here
    pass
print(time.thread_time(), c1 - c0, t1 - t0, flush=True)
