"""qubitcone benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload {roundtrip,povm,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory and nowhere else. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Details of the run go
to bench/out/. See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import common

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Each run completes at least this many operations, so that at least ten
# latency samples lie beyond the 99th percentile.
MIN_OPS = 1000
# Fresh interpreters started per run; setup_s is their median.
SETUP_REPEATS = 7
# A run ends after this many seconds even if MIN_OPS is not reached, so
# that it exits within 180 s.
HARD_LIMIT_S = 140
# Traced operations whose spans are written out.
SPAN_OPS = 50

LAYER_FUNCTIONS = {
    "qmat": ["polar_decompose", "sqrt_psd", "mat2", "eigenvalues"],
    "conemap": ["phi", "phi_inv", "minkowski"],
    "adjoint": ["psi", "psi_of_unitary"],
    "lorentz": ["pure_boost", "decompose", "rotation_axis_angle", "spinor_lift"],
    "correspond": [
        "element_to_lorentz",
        "lorentz_to_element",
        "effect",
        "validate",
        "apply_element",
        "prop2_invariants",
    ],
    "sim": ["scenario1_sample", "boosted_probabilities", "report_invariants"],
    "serialize": ["loads", "mat2_from_json", "measurement_from_json", "dumps"],
    "cli": ["validate", "to-lorentz", "to-element", "apply", "simulate", "boost-observer", "invariants"],
}
STEMS = [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]


def end_to_end_names() -> list[tuple[str, str]]:
    return [
        ("ops_s", "ops/s"),
        ("latency_p50_us", "us"),
        ("latency_p99_us", "us"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
    ]


def per_layer_names() -> list[tuple[str, str]]:
    names = [(stem + "_us", "us") for stem in STEMS]
    names += [(f"{layer}.{kind}", "calls/op") for layer in LAYER_FUNCTIONS for kind in ("calls", "failed")]
    return names + [("serialize.bytes_out", "bytes/op")]


def load_program():
    """Import qubitcone from this checkout's src/, or stop."""
    src = ROOT / "src"
    if not (src / "qubitcone" / "__init__.py").is_file():
        sys.exit(f"error: {src}/qubitcone not found; run from a qubitcone source checkout")
    sys.path.insert(0, str(src))
    import qubitcone

    if Path(qubitcone.__file__).resolve().parent != src / "qubitcone":
        sys.exit(f"error: imported qubitcone from {qubitcone.__file__}, not from {src}")


def setup_once(workload: str, seed: int, workdir: str) -> tuple[float, float]:
    """One fresh interpreter that imports the package and finishes its first
    operation: (CPU seconds of its main thread up to then, wall seconds of the
    whole child), both without the child's own input generation."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed), workdir],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    wall = time.perf_counter() - t0
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 3:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    cpu, gen_cpu, gen_wall = (float(x) for x in fields)
    return cpu - gen_cpu, wall - gen_wall


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Runner:
    """Closed loop over whole rounds of a workload's input pool.

    Operations are timed in process CPU time, which leaves out the time the
    host takes the CPU away, and corrected for host speed: each timed round
    also records the CPU time of the benchmark's own checks of that round,
    and the speed of the host during the round is CHECK_REF_US per check
    over that. See "Host-speed correction" in README.md.
    """

    def __init__(self, mod, inputs, traced_plans=None, probes=None):
        self.mod = mod
        self.inputs = inputs
        self.plans = traced_plans
        self.probes = probes
        self.rounds = []  # (CPU times, wall times, raw host speed) per timed round
        self.setups = []  # (CPU seconds, wall seconds, index of the round before)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.correct = True
        self.bytes_out = 0
        self.samples = defaultdict(list)
        self.calls = defaultdict(int)
        self.call_failures = defaultdict(int)
        self.spans = []

    def _traced_calls(self, calls, op_id, count):
        for stem, thunk in calls:
            t0 = time.perf_counter()
            try:
                thunk()
                ok = True
            except Exception:
                ok = False
            t1 = time.perf_counter()
            self.samples[stem].append(t1 - t0)
            if count:
                layer = stem.split(".", 1)[0]
                self.calls[layer] += 1
                self.call_failures[layer] += not ok
            if op_id < SPAN_OPS:
                self.spans.append([op_id, stem, t0, t1, f"op{op_id}", count])

    def round(self, timed: bool) -> None:
        cpu, wall, check_cpu = [], [], 0.0
        for i, inp in enumerate(self.inputs):
            op_id = self.attempted
            self.attempted += 1
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = self.mod.op(inp)
            except Exception as exc:
                self.failed += 1
                self.errors.append(f"op {i} raised {type(exc).__name__}: {exc}")
                continue
            if self.plans is not None and timed:
                self._traced_calls(self.plans[i], op_id, count=True)
            c1, t1 = time.process_time(), time.perf_counter()
            if self.plans is not None and timed and op_id < SPAN_OPS:
                self.spans.append([op_id, "op", t0, t1, None, True])
            cpu.append(c1 - c0)
            wall.append(t1 - t0)
            if timed and isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
                self.bytes_out += len(out[1].encode())
            try:
                self.mod.check(inp, out)
            except AssertionError as exc:
                self.errors.append(f"op {i}: check failed: {exc}")
                self.correct = False
            check_cpu += time.process_time() - c1
            if self.probes is not None and timed:
                self._traced_calls(self.probes[i % len(self.probes)], op_id, count=False)
        if timed:
            speed = self.mod.CHECK_REF_US * 1e-6 * len(cpu) / check_cpu if cpu else None
            self.rounds.append((cpu, wall, speed))

    def run(self, seconds: float, setup=None) -> None:
        """Timed rounds for `seconds` and at least MIN_OPS operations; with
        `setup`, one set-up measurement after every other round until
        SETUP_REPEATS are taken. Stops after HARD_LIMIT_S in any case."""
        self.round(timed=False)  # warm-up: caches fill, lazy set-up finishes
        self.attempted = self.failed = 0
        start = time.perf_counter()
        while True:
            self.round(timed=True)
            elapsed = time.perf_counter() - start
            setups_due = setup is not None and len(self.setups) < SETUP_REPEATS
            if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and self.attempted >= MIN_OPS and not setups_due):
                break
            if setups_due and len(self.rounds) % 2 == 1:
                self.setups.append((*setup(), len(self.rounds) - 1))

    def _speeds(self) -> list:
        return [1.0 if speed is None else speed for _, _, speed in self.rounds]

    def setup_s(self, corrected: bool = True) -> float:
        """Median set-up time: corrected CPU time, or else plain wall time."""
        if not corrected:
            return statistics.median(wall for _, wall, _ in self.setups)
        speeds = self._speeds()
        return statistics.median(cpu * (speeds[i] + speeds[i + 1]) / 2 for cpu, _, i in self.setups)

    def end_to_end(self, corrected: bool = True) -> dict:
        """Corrected CPU-time figures, or else plain wall-clock ones."""
        if corrected:
            lat = sorted(t * speed for (ts, _, _), speed in zip(self.rounds, self._speeds()) for t in ts)
        else:
            lat = sorted(t for _, ts, _ in self.rounds for t in ts)
        if not lat:
            return {"ops_s": 0.0, "latency_p50_us": 0.0, "latency_p99_us": 0.0}
        return {
            "ops_s": len(lat) / sum(lat),
            "latency_p50_us": statistics.median(lat) * 1e6,
            "latency_p99_us": percentile(lat, 0.99) * 1e6,
        }

    def per_layer(self) -> dict:
        ops = self.attempted
        out = {stem + "_us": statistics.median(self.samples[stem]) * 1e6 for stem in STEMS}
        for layer in LAYER_FUNCTIONS:
            out[f"{layer}.calls"] = self.calls[layer] / ops
            out[f"{layer}.failed"] = self.call_failures[layer] / ops
        out["serialize.bytes_out"] = self.bytes_out / ops
        return out


def probe_plans(workload: str, seed: int, workdir: str, own_plans: list) -> list:
    """Direct calls for layer functions the workload's operations never
    reach, taken from the other workloads' inputs so that every per-layer
    metric is measured; they are not counted in <layer>.calls."""
    covered = {stem for calls in own_plans for stem, _ in calls}
    sources = []
    for other, modname in common.MODULES.items():
        if other == workload:
            continue
        mod = importlib.import_module(modname)
        plans = [mod.plan(inp) for inp in mod.pool(seed, workdir)]
        stems = {stem for calls in plans for stem, _ in calls} - covered
        covered |= stems
        sources.append((plans, stems))
    missing = set(STEMS) - covered
    if missing:
        raise RuntimeError(f"no workload calls {sorted(missing)}")
    n = max(len(plans) for plans, _ in sources)
    return [
        [(stem, thunk) for plans, stems in sources for stem, thunk in plans[i % len(plans)] if stem in stems]
        for i in range(n)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(common.MODULES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    load_program()
    mod = importlib.import_module(common.MODULES[args.workload])
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = mod.pool(args.seed, str(workdir))
        if args.trace:
            plans = [mod.plan(inp) for inp in inputs]
            runner = Runner(mod, inputs, plans, probe_plans(args.workload, args.seed, str(workdir), plans))
            runner.run(args.seconds)
            metrics = runner.per_layer()
            units = dict(per_layer_names())
        else:
            runner = Runner(mod, inputs)
            runner.run(args.seconds, lambda: setup_once(args.workload, args.seed, str(workdir)))
            metrics = runner.end_to_end()
            metrics["setup_s"] = runner.setup_s()
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(end_to_end_names())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, errors=runner.errors[:20])
    detail["wall_clock"] = runner.end_to_end(corrected=False)
    if runner.setups:
        detail["wall_clock"]["setup_s"] = runner.setup_s(corrected=False)
    if args.trace:
        detail["traced_end_to_end"] = runner.end_to_end()
        t_base = runner.spans[0][2] if runner.spans else 0.0
        spans = [[op, name, (t0 - t_base) * 1e6, (t1 - t_base) * 1e6, parent, counted]
                 for op, name, t0, t1, parent, counted in runner.spans]
        (OUT / f"{tag}-spans.json").write_text(json.dumps(
            {"fields": ["op", "name", "start_us", "end_us", "parent", "counted"], "spans": spans}))
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for line in runner.errors[:5]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if runner.correct else 1


if __name__ == "__main__":
    sys.exit(main())
