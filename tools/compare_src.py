"""Compare the outputs of two qubitcone source trees, call by call.

    python tools/compare_src.py PARENT_SRC CHANGE_SRC [--calls N] [--seed S]

PARENT_SRC and CHANGE_SRC are `src/` directories, for example of a parent
checkout and of this one. Each side runs in its own Python process, with its
own `src/` first on the import path, and the two are run at the same time and
read line by line. Both sides get the same inputs:

- every `tests/data/golden/*.args` of this checkout, run through
  `qubitcone.cli.main` in-process: the exit code, stdout and stderr;
- the argv group: ARGV_CALLS argv of the seven commands on the files of
  `tests/data`, drawn from a generator seeded with S by the property test's
  `draw_argv` (`tests/test_cli_parser.py`): options in any order, left out,
  repeated or abbreviated, spaced or joined by `=`, with negative,
  dash-leading, empty and type-invalid values, and now and then `--`, `-h`,
  `--help`, an unknown option or a stray word; run through
  `qubitcone.cli.main` in-process: the exit code, stdout and stderr;
- N seeded calls of the single-element chain: `element_to_lorentz`,
  `polar_decompose`, `lorentz_to_element`, `spinor_lift`, `decompose`,
  `classify` and `rotation_axis_angle`. Element scales are
  log-uniform over 1e-150 to 1e150, singular-value ratios are 0 or
  log-uniform over 1e-16 to 1, speeds reach 1 - 1e-8 and null, some 4x4
  and 3x3 inputs are no transform or rotation, and about one input in 40
  has a non-finite entry. Some inputs are tagged, and the report counts the
  differing calls per tag: `band`, a `lorentz_to_element` velocity of speed
  1 - 10^U(-15.5, -9), within TOL_V of 1; `1 - TOL_V`, one of speed exactly
  1 - TOL_V; `lambda slack`, a lambda of lambda_max (1 +- 10^U(-13, -8)); and
  `bad leaf`, a nested list with one leaf True, "1" or None. Each result is
  flattened to its numbers and strings, a record by the attributes of
  ATTRIBUTES that it has, so that a field that becomes a property or moves
  to a base class is compared as before; an attribute that a record has on
  one side only is not compared, and the report counts it per call. A call
  that raises gives its exception type and message, and the warnings it
  emits are kept too;
- the engine group: each input of the `povm` benchmark pools of seeds 1 to 3
  (`bench/povm.py`) as that workload runs it, then ENGINE_EDGES edge cases:
  the elements or the state scaled by 1e150 and 1e-150, an outcome of
  probability exactly 0, n = 0, MAX_SAMPLES and MAX_SAMPLES + 1, and the small
  elements 1e-8 I and 1e-150 I, of probability 1e-16 and 1e-300 on a pure
  state, beside their complements, at n = MAX_SAMPLES, and the element
  1e-170 diag(1, 1/2), whose psi(M) underflows, beside its complement on I/2; each
  through `measurement`, `scenario1_sample`, `boosted_probabilities` (for the
  `observer_boost` of the input's velocity) and `report_invariants`, a
  Measurement compared by its elements, deviation and transforms;
- the `cli` benchmark pools of seeds 1 to 3 (`bench/cli_calls.py`), run
  through `qubitcone.cli.main` in-process: the exit code, stdout and stderr;
- a corpus of mostly malformed input files (CORPUS: ragged nesting, leaves that
  are not JSON numbers or not finite, CRLF and CR line ends, a UTF-8 BOM,
  invalid UTF-8, broken JSON), each read by `to-lorentz --element`, by
  `apply --state` and, wrapped as a measurement, by `validate --measurement`;
- the fixed part of the CLI fuzz corpus (`tests/test_cli_fuzz.py`): each of its
  MATRICES read as an element and as a state, and each of its MEASUREMENTS,
  by every command that reads such a file, and its NUMBERS and VECTORS as
  option values: the exit code, stdout and stderr.

A call is identical when every number has the same bits and every string and
warning is equal; so the engine group compares its arrays bit for bit. The
report gives the identical and differing counts, the chain's and the engine
group's also per function, and the worst difference of a number in units of
eps * max|entry| of that call's parent result, overall and per chain function.
On the malformed corpus a call differs when its exit code or stdout does; each
stderr difference there is listed, since an error message may be reworded. For each differing CLI call whose stdout is
JSON on both sides, the report names the paths whose values differ, such as
`outcomes[2].tally`, and the summary counts the calls and values per path with
its indices as `[*]`. The exit status is 0 when nothing differs, else 1. The
run takes a few seconds per 10,000 calls on each side.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
MEASUREMENT = ROOT / "tests" / "data" / "measurement.json"
POOL_SEEDS = (1, 2, 3)
EPS = 2.0**-52
TOL_V = 1e-9  # qubitcone.lorentz.TOL_V, which the inputs are drawn without importing
MAX_SAMPLES = 2**63 - 1  # qubitcone.sim.MAX_SAMPLES, likewise
CALLS = ("element_to_lorentz", "polar_decompose", "lorentz_to_element", "spinor_lift", "decompose",
         "classify", "rotation_axis_angle")
# The attributes of a record that are compared, where present, in this order;
# v and kind are those of a Velocity, the last three those of a Measurement.
ATTRIBUTES = ("e_vec", "v_vec", "velocity", "v", "scale", "rotation", "kind", "elements", "deviation", "transforms")
ENGINES = ("measurement", "scenario1_sample", "boosted_probabilities", "report_invariants")
ENGINE_EDGES = 11  # the cases engine_cases adds after the povm pools
ARGV_CALLS = 600  # the calls of the argv group
# The files that the argv group's calls read, relative to the checkout: a measurement, an
# incomplete one (exit 1), a state and an element.
ARGV_FILES = {"meas": "tests/data/measurement.json", "short": "tests/data/measurement_incomplete.json",
              "state": "tests/data/state_mixed.json", "elem": "tests/data/element_rank2.json"}


def attributes(obj) -> dict | None:
    """The ATTRIBUTES that a record has, name -> value; None when obj is no record."""
    if not dataclasses.is_dataclass(obj):
        return None
    return {name: getattr(obj, name) for name in ATTRIBUTES if hasattr(obj, name)}


def groups(obj) -> list:
    """A result as lists of its numbers and strings, one list per record attribute,
    tuple item or array: the unit over which max|entry| is taken."""
    found = attributes(obj)
    if found is not None:
        return [g for value in found.values() for g in groups(value)]
    if isinstance(obj, tuple):
        return [g for item in obj for g in groups(item)]
    return [leaves(obj)]


def leaves(obj) -> list:
    """The numbers and strings of an array, sequence, dict (keys and values) or
    scalar, in order, complex numbers as two floats and ints exact."""
    if hasattr(obj, "tolist"):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in leaves(item)]
    if isinstance(obj, dict):
        return [x for key, value in obj.items() for x in [key, *leaves(value)]]
    if isinstance(obj, (str, int)) or obj is None:  # bool is an int
        return [obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return [float(obj)]


def record(thunk) -> dict:
    """The result of thunk() as groups, a record's as its attribute name -> groups,
    or its exception, with its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = thunk()
            found = attributes(result)
            out = {"ok": groups(result) if found is None else {k: groups(v) for k, v in found.items()}}
        except Exception as exc:  # compared as type and message
            out = {"raised": f"{type(exc).__name__}: {exc}"}
    out["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return out


def cli_record(main, ident: str, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"id": ident, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_records(main):
    for args in sorted(GOLDEN.glob("*.args")):
        yield cli_record(main, f"golden {args.stem}", args.read_text().split())


def argv_records(main, seed: int):
    """ARGV_CALLS argv drawn by tests/test_cli_parser.py's draw_argv from a generator seeded
    with seed, run from the root of the checkout."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "tests"))
    import test_cli_parser

    rng = np.random.default_rng(seed)
    for i in range(ARGV_CALLS):
        argv = test_cli_parser.draw_argv(lambda seq: seq[rng.integers(len(seq))], ARGV_FILES)
        yield cli_record(main, f"argv #{i} {argv[0]}", argv)


def pool_records(main):
    """The cli benchmark pools, written to and run from the current directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    import cli_calls

    for seed in POOL_SEEDS:
        for i, case in enumerate(cli_calls.pool(seed, ".")):
            yield cli_record(main, f"pool {seed} #{i} {case['cmd']}", case["argv"])


def engine_cases() -> list:
    """(name, elements, rho, v, seed, n) of the engine group: the povm pool inputs, then
    ENGINE_EDGES edge cases, all but the projective and small-element ones built on the
    first input."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "bench"))
    import povm

    cases = [(f"pool {seed} #{i}", inp["elements"], inp["rho"], inp["v"], inp["seed"], povm.N_SAMPLES)
             for seed in POOL_SEEDS for i, inp in enumerate(povm.pool(seed))]
    _, elements, rho, v, seed, n = cases[0]
    for s in (1e150, 1e-150):
        cases += [(f"elements x {s:g}", [s * m for m in elements], rho, v, seed, n),
                  (f"state x {s:g}", elements, s * rho, v, seed, n)]
    cases += [(f"n = {k}", elements, rho, v, seed, k) for k in (0, MAX_SAMPLES, MAX_SAMPLES + 1)]
    cases.append(("probability exactly 0", [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.diag([0.0, 1.0]), v, seed, n))
    cases += [(f"small element {s:g} I", [s * np.eye(2), math.sqrt(1 - s * s) * np.eye(2)], np.diag([1.0, 0.0]), v,
               seed, MAX_SAMPLES) for s in (1e-8, 1e-150)]
    m0, m1 = 1e-170, 0.5e-170
    cases.append(("underflowing element 1e-170 diag(1, 1/2)",
                  [np.diag([m0, m1]), np.diag([math.sqrt(1 - m0 * m0), math.sqrt(1 - m1 * m1)])], np.eye(2) / 2, v,
                  seed, n))
    assert len(cases) == len(POOL_SEEDS) * povm.POOL + ENGINE_EDGES
    return cases


def engine_records():
    """Each engine_cases input through the ENGINES, from the qubitcone on the import path;
    a measurement that raises is recorded and its engines are not run."""
    from qubitcone.correspond import measurement
    from qubitcone.sim import boosted_probabilities, observer_boost, report_invariants, scenario1_sample

    for name, elements, rho, v, seed, n in engine_cases():
        built = record(lambda: measurement(elements))
        yield {"id": f"engine {name}: measurement", **built}
        if "raised" in built:
            continue
        meas = measurement(elements)
        results = (lambda: scenario1_sample(meas, rho, seed, n),
                   lambda: boosted_probabilities(meas, rho, observer_boost(v)),
                   lambda: report_invariants(meas, rho))
        for engine, thunk in zip(ENGINES[1:], results):
            yield {"id": f"engine {name}: {engine}", **record(thunk)}


def _pairs(leaf: str = "0") -> str:
    """A 2x2 matrix of [re, im] pairs as JSON text: diag(1/2, 1/2), with leaf as
    the imaginary part of entry 0, 1 (zero for a hermitian state)."""
    return f"[[[0.5, 0], [0, {leaf}]], [[0, 0], [0.5, 0]]]"


# name -> file contents; each is read as a 2x2 matrix and, wrapped in
# {"elements": [...]}, as a measurement. All but "valid", "CRLF" and "CR"
# are malformed input.
CORPUS = {
    "valid": _pairs().encode(),
    "ragged pair": b"[[[0.5, 0], [0]], [[0, 0], [0.5, 0]]]",
    "ragged row": b"[[[0.5, 0], [0, 0]], [[0.5, 0]]]",
    "three rows": b"[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]], [[0, 0], [0, 0]]]",
    "three parts": b"[[[0.5, 0, 0], [0, 0, 0]], [[0, 0, 0], [0.5, 0, 0]]]",
    "too deep": _pairs("[0]").encode(),
    "not an array": b'{"a": 1}',
    "a number": b"0.5",
    "empty array": b"[]",
    "true": _pairs("true").encode(),
    "string 1": _pairs('"1"').encode(),
    "string abc": _pairs('"abc"').encode(),
    "string nan": _pairs('"nan"').encode(),
    "null": _pairs("null").encode(),
    "object": _pairs("{}").encode(),
    "true and NaN": b"[[[0.5, true], [0, NaN]], [[0, 0], [0.5, 0]]]",
    "1e400": _pairs("1e400").encode(),
    "10**400": _pairs("1" + "0" * 400).encode(),
    "-10**400": _pairs("-1" + "0" * 400).encode(),
    "NaN": _pairs("NaN").encode(),
    "Infinity": _pairs("Infinity").encode(),
    "-Infinity": _pairs("-Infinity").encode(),
    "CRLF": _pairs().replace("], [", "],\r\n [").encode(),
    "CR": _pairs().replace("], [", "],\r [").encode(),
    "CRLF and a control character": b'[\r\n"a\x01b"]',
    "CRLF and broken JSON": b"[[[0.5, 0],\r\n [0, 0]],\r\n [[0, 0] [0.5, 0]]]",
    "UTF-8 BOM": b"\xef\xbb\xbf" + _pairs().encode(),
    "invalid UTF-8": b"\xff" + _pairs().encode(),
    "truncated UTF-8": _pairs().encode() + b" \xe2\x82",
    "empty file": b"",
    "broken JSON": b"[[[0.5, 0], [0, 0]]",
}


def malformed_records(main):
    """Each CORPUS file through to-lorentz, apply --state and validate, run
    from the current directory, then a missing file and a directory."""
    for i, (name, data) in enumerate(CORPUS.items()):
        element, meas = f"m{i:02d}.json", f"m{i:02d}-meas.json"
        Path(element).write_bytes(data)
        bom = data[:3] if data.startswith(b"\xef\xbb\xbf") else b""  # stays first
        Path(meas).write_bytes(bom + b'{"elements": [' + data[len(bom):] + b"]}")
        for argv in (["to-lorentz", "--element", element],
                     ["apply", "--measurement", str(MEASUREMENT), "--state", element],
                     ["validate", "--measurement", meas]):
            yield cli_record(main, f"malformed {name}: {argv[0]}", argv)
    os.mkdir("a-directory")
    for path in ("missing.json", "a-directory"):
        yield cli_record(main, f"malformed {path}: to-lorentz", ["to-lorentz", "--element", path])


def fuzz_records(main):
    """The fixed part of the CLI fuzz corpus, written to and run from the current directory."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_cli_fuzz as fuzz

    def write(name: str, doc) -> str:
        Path(name).write_text(json.dumps(doc))
        return name

    meas, state = write("fuzz-meas.json", fuzz.MEASUREMENT), write("fuzz-state.json", fuzz.STATE)
    for i, doc in enumerate(fuzz.MATRICES):
        path = write(f"fuzz-matrix{i:02d}.json", doc)
        for argv in [["to-lorentz", "--element", path]] + fuzz.commands(meas, path)[1:]:
            yield cli_record(main, f"fuzz matrix {i}: {argv[0]}", argv)
    for i, doc in enumerate(fuzz.MEASUREMENTS):
        path = write(f"fuzz-meas{i:02d}.json", doc)
        for argv in fuzz.commands(path, state):
            yield cli_record(main, f"fuzz measurement {i}: {argv[0]}", argv)
    for i, argv in enumerate(fuzz.option_values(meas, state)):
        yield cli_record(main, f"fuzz option value {i}: {argv[0]}", argv)


def chain_inputs(n: int, seed: int):
    """(call name, tag, raw input) triples, drawn with numpy alone so that both sides
    get the same floats; the qubitcone records are built by each side. The tag names
    the inputs at an edge that a change may move on purpose, else it is empty."""
    import numpy as np

    rng = np.random.default_rng(seed)

    def unitary():
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    def element():
        ratio = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-16, 0)
        return 10.0 ** rng.uniform(-150, 150) * unitary() @ np.diag([1.0, ratio]) @ unitary().conj().T

    def unit():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    def rotation3():
        x, y, z = unit()
        theta = rng.uniform(0, math.pi)
        c, s = math.cos(theta), math.sin(theta)
        k = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]])
        return np.eye(3) + s * k + (1 - c) * k @ k

    def speed(null_share, edges):
        """A speed and its tag; the edges within TOL_V of 1 only when asked for."""
        pick = rng.random()
        if pick < null_share:
            return 1.0, ""
        if pick < (0.5 if edges else 0.6):
            return rng.uniform(0, 0.99), ""
        if pick < 0.7 or not edges:
            return 1 - 10.0 ** rng.uniform(-8, -2), ""
        if pick < 0.9:
            return 1 - 10.0 ** rng.uniform(-15.5, -9), "band"
        return 1 - TOL_V, "1 - TOL_V"

    def velocity(null_share, edges=True):
        """A velocity and its tag; at 1 - TOL_V along an axis, so that its norm is exact."""
        s, tag = speed(null_share, edges)
        if tag == "1 - TOL_V":
            return s * np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0]), tag
        return s * unit(), tag

    def block(r3):
        out = np.eye(4)
        out[1:, 1:] = r3
        return out

    def boost(v):
        s2 = float(v @ v)
        g = 1 / math.sqrt(1 - s2)
        out = np.empty((4, 4))
        out[0, 0], out[0, 1:], out[1:, 0] = g, -g * v, -g * v
        out[1:, 1:] = np.eye(3) + (g - 1) * np.outer(v, v) / s2 if s2 else np.eye(3)
        return out

    def psi(a):
        sigma = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        return 0.5 * np.einsum("mij,jk,nkl,li->mn", sigma, a, sigma, a.conj().T).real

    def transform():
        pick = rng.random()
        if pick < 0.4:  # restricted: R B(v), speeds below 1 by more than round-off, so that gamma is finite
            return block(rotation3()) @ boost(velocity(0.0, edges=False)[0]), ""
        if pick < 0.9:  # rescaled restricted or rescaled null-boost product
            return psi(element()), ""
        return rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-150, 150), ""  # other

    def decomposition():
        v, tag = velocity(0.1)
        lam_max = 1.0 if np.linalg.norm(v) >= 1 else math.sqrt(2 / (1 + np.linalg.norm(v)))
        pick = rng.random()
        if pick < 0.4:
            lam = None
        elif pick < 0.8:
            lam = rng.uniform(0, 1.2) * lam_max
        else:
            lam = lam_max * (1 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13, -8))
            tag = ", ".join(filter(None, (tag, "lambda slack")))
        return (block(rotation3()), v, lam), tag

    def rotation3_or_not():
        pick = rng.random()  # a reflection, or a rotation off by 1e-8 to 1e-4, now and then
        r3 = rotation3()
        return -r3 if pick < 0.05 else r3 + 10.0 ** rng.uniform(-8, -4) * rng.normal(size=(3, 3)) if pick < 0.1 else r3

    def untagged(make):
        return lambda: (make(), "")

    make = {"element_to_lorentz": untagged(element), "polar_decompose": untagged(element),
            "lorentz_to_element": decomposition, "spinor_lift": transform, "decompose": transform,
            "classify": transform, "rotation_axis_angle": untagged(rotation3_or_not)}
    for i in range(n):
        name = CALLS[i % len(CALLS)]
        raw, tag = make[name]()
        pick = rng.random()
        if pick < 0.05:  # the validators' turn: a non-finite entry, or a nested list with one bad leaf
            part = rng.integers(2) if isinstance(raw, tuple) else None  # a decomposition's rotation or velocity
            arr = raw if part is None else raw[part]
            if pick < 0.025:
                arr.flat[rng.integers(arr.size)] = rng.choice([math.nan, math.inf, -math.inf])
            else:
                flat = arr.ravel().tolist()
                flat[rng.integers(arr.size)] = [True, "1", None][rng.integers(3)]
                arr = np.array(flat, dtype=object).reshape(arr.shape).tolist()
                raw = arr if part is None else raw[:part] + (arr,) + raw[part + 1:]
                tag = ", ".join(filter(None, (tag, "bad leaf")))
        yield name, tag, raw


def chain_functions() -> dict:
    """Call name -> function of its raw input, from the qubitcone on the import path."""
    from qubitcone.correspond import element_to_lorentz, lorentz_to_element
    from qubitcone.lorentz import LorentzDecomposition, classify, decompose, rotation_axis_angle, spinor_lift, velocity
    from qubitcone.qmat import polar_decompose

    def decomposition(raw):
        return LorentzDecomposition(rotation=raw[0], velocity=velocity(raw[1]), scale=1.0)

    return {"element_to_lorentz": element_to_lorentz, "polar_decompose": polar_decompose,
            "lorentz_to_element": lambda raw: lorentz_to_element(decomposition(raw), raw[2]),
            "spinor_lift": spinor_lift, "decompose": decompose, "classify": classify,
            "rotation_axis_angle": rotation_axis_angle}


def worker(src: str, calls: int, seed: int) -> None:
    """One side: every record as one JSON line on stdout, then a final "done" line."""
    sys.path.insert(0, str(Path(src).resolve()))
    import qubitcone
    from qubitcone.cli import main

    if not Path(qubitcone.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"qubitcone was imported from {qubitcone.__file__}, not from {src}")
    os.chdir(ROOT)  # the golden .args name their inputs relative to the checkout
    for rec in golden_records(main):
        print(json.dumps(rec))
    for rec in argv_records(main, seed):
        print(json.dumps(rec))
    functions = chain_functions()
    for i, (name, tag, raw) in enumerate(chain_inputs(calls, seed)):
        ident = f"{name} #{i}" + (f" [{tag}]" if tag else "")
        print(json.dumps({"id": ident, **record(lambda: functions[name](raw))}))
    for rec in engine_records():
        print(json.dumps(rec))
    with tempfile.TemporaryDirectory() as workdir:  # the same relative paths on both sides
        os.chdir(workdir)
        for rec in pool_records(main):
            print(json.dumps(rec))
        for rec in malformed_records(main):
            print(json.dumps(rec))
        for rec in fuzz_records(main):
            print(json.dumps(rec))
        os.chdir(ROOT)
    print(json.dumps({"id": "done"}))


def difference(a: list, b: list) -> float:
    """Largest |a_i - b_i| over the numbers of each group, in eps * max|a_i| of
    that group; inf where a string, the layout or a non-finite number differs."""
    if [len(g) for g in a] != [len(g) for g in b]:
        return math.inf
    worst = 0.0
    for ga, gb in zip(a, b):
        scale = max((abs(x) for x in ga if isinstance(x, float) and math.isfinite(x)), default=0.0)
        for x, y in zip(ga, gb):
            if json.dumps(x) == json.dumps(y):  # the same bits, or the same string
                continue
            finite = all(isinstance(z, float) and math.isfinite(z) for z in (x, y))
            worst = max(worst, abs(x - y) / (EPS * scale) if finite and scale else math.inf)
    return worst


def json_paths(a, b, path: str = "") -> list:
    """The paths at which two parsed JSON documents differ: `.key` for an object
    key and `[i]` for an array item, `$` for the root. A value whose type, length
    or keys differ is named whole."""
    if type(a) is dict and type(b) is dict and list(a) == list(b):
        return [p for k in a for p in json_paths(a[k], b[k], f"{path}.{k}" if path else k)]
    if type(a) is list and type(b) is list and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in json_paths(x, y, f"{path}[{i}]")]
    return [] if json.dumps(a) == json.dumps(b) else [path or "$"]


def stdout_paths(a: dict, b: dict):
    """json_paths of the stdout of two CLI records, or None when either is not JSON."""
    try:
        return json_paths(json.loads(a["stdout"]), json.loads(b["stdout"]))
    except json.JSONDecodeError:
        return None


def compare(parent_src: str, change_src: str, calls: int, seed: int) -> int:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    sides = [subprocess.Popen([sys.executable, __file__, "--worker", src, str(calls), str(seed)], stdout=subprocess.PIPE,
                              text=True, env=env, cwd=ROOT) for src in (parent_src, change_src)]
    tally = {"golden": [0, 0], "argv": [0, 0], "calls": [0, 0], "engine": [0, 0], "pool": [0, 0], "malformed": [0, 0], "fuzz": [0, 0]}
    raised, outcome_differs, worst, worst_id, shown, stderr_differs = 0, 0, 0.0, None, [], []
    moved, path_calls, path_values, tags, one_side, engines = [], Counter(), Counter(), Counter(), Counter(), Counter()
    chain, chain_worst = Counter(), {}  # per function: differing calls, worst difference where both return
    a = b = {"id": None}
    for line_a, line_b in zip(*(p.stdout for p in sides)):
        a, b = json.loads(line_a), json.loads(line_b)
        if a["id"] == "done" or a["id"] != b["id"]:
            break
        group = a["id"].split()[0] if a["id"].split()[0] in tally else "calls"
        if group == "malformed":
            if a["stderr"] != b["stderr"]:
                stderr_differs.append((a["id"], a["exit"], a["stderr"], b["stderr"]))
            a["stderr"] = b["stderr"] = None  # listed, not counted
        if isinstance(a.get("ok"), dict) and isinstance(b.get("ok"), dict):  # two records
            for name in a["ok"].keys() ^ b["ok"].keys():  # counted, not compared
                one_side[a["id"].split()[0], name, "parent" if name in a["ok"] else "change"] += 1
                a["ok"].pop(name, None), b["ok"].pop(name, None)
            a["ok"], b["ok"] = ([g for gs in rec["ok"].values() for g in gs] for rec in (a, b))
        same = json.dumps(a) == json.dumps(b)
        tally[group][not same] += 1
        raised += "raised" in a and same
        if group == "calls" and not same:
            tag = re.search(r" \[(.*)\]$", a["id"])
            tags.update(tag[1].split(", ") if tag else [None])
            name = a["id"].split()[0]
            chain[name] += 1
            if "ok" in a and "ok" in b:
                gap = difference(a["ok"], b["ok"])
                worst, worst_id = max((worst, worst_id), (gap, a["id"]))
                chain_worst[name] = max(chain_worst.get(name, 0.0), gap)
            else:
                outcome_differs += 1
        if group == "engine" and not same:
            engines[a["id"].rsplit(": ", 1)[1]] += 1
        paths = None if group in ("calls", "engine") or same else stdout_paths(a, b)
        if paths is not None:
            moved.append((a["id"], paths))
            general = Counter(re.sub(r"\[\d+\]", "[*]", p) for p in paths)
            path_calls.update(general.keys())
            path_values.update(general)
        if not same and len(shown) < 5:
            shown.append((a, b))
    for p in sides:
        p.stdout.close()  # a side that is still writing stops on the closed pipe
    codes = [p.wait() for p in sides]
    if codes != [0, 0] or a["id"] != "done" or b["id"] != "done":
        print(f"a worker failed: exit codes {codes}, last records {a['id']!r} and {b['id']!r}")
        return 1
    print(f"golden CLI calls: {tally['golden'][0]} identical, {tally['golden'][1]} differing "
          "(exit code, stdout and stderr)")
    print(f"cli argv group calls (seed {seed}): {tally['argv'][0]} identical, {tally['argv'][1]} differing "
          "(exit code, stdout and stderr)")
    print(f"chain calls: {tally['calls'][0]} identical, {tally['calls'][1]} differing "
          f"({raised} of the identical raise, with the same type and message on both sides)")
    print(f"chain calls that raise on one side only, or another exception: {outcome_differs}")
    untagged = tags.pop(None, 0)
    print("differing chain calls by input tag, each under every tag it has: "
          + (", ".join(f"{tag} {count}" for tag, count in sorted(tags.items())) or "none") + f"; untagged: {untagged}")
    print(f"worst difference where both return: {worst:g} eps*max|entry|" + (f", at {worst_id}" if worst_id else ""))
    print("differing chain calls by function, with the worst difference where both return: "
          + (", ".join(f"{name} {chain[name]} ({chain_worst[name]:g} eps*max|entry|)" if name in chain_worst
                       else f"{name} {chain[name]} (none return on both sides)" for name in CALLS if chain[name])
             or "none"))
    print(f"record attributes on one side only, not compared: {len(one_side) or 'none'}")
    for (call, name, side), count in sorted(one_side.items()):
        print(f"record attribute on the {side} side only: {call}.{name}, in {count} calls")
    print(f"engine calls (povm pools of seeds {', '.join(map(str, POOL_SEEDS))} and {ENGINE_EDGES} edge cases): "
          f"{tally['engine'][0]} identical, {tally['engine'][1]} differing (bit for bit); differing by function: "
          + (", ".join(f"{engine} {engines[engine]}" for engine in ENGINES if engines[engine]) or "none"))
    print(f"cli pool calls (seeds {', '.join(map(str, POOL_SEEDS))}): {tally['pool'][0]} identical, "
          f"{tally['pool'][1]} differing (exit code, stdout and stderr)")
    print(f"malformed corpus calls: {tally['malformed'][0]} identical, {tally['malformed'][1]} differing "
          f"(exit code and stdout); {len(stderr_differs)} stderr differences")
    print(f"cli fuzz corpus calls: {tally['fuzz'][0]} identical, {tally['fuzz'][1]} differing "
          "(exit code, stdout and stderr)")
    print(f"stdout paths that differ, over the {len(moved)} differing CLI calls with JSON stdout on both sides: "
          + (", ".join(f"{p} in {path_calls[p]} calls ({path_values[p]} values)" for p in sorted(path_calls))
             or "none"))
    for ident, paths in moved:
        print(f"paths differ: {ident}: {', '.join(paths) or 'none (exit code or stderr only)'}")
    for ident, code, err_a, err_b in stderr_differs:
        print(f"stderr differs: {ident} (exit {code})\n  parent: {err_a!r}\n  change: {err_b!r}")
    for a, b in shown:
        print(f"differs: {a['id']}\n  parent: {json.dumps(a)[:300]}\n  change: {json.dumps(b)[:300]}")
    return 0 if not any(differing for _, differing in tally.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="the src/ directory of the parent tree")
    parser.add_argument("change_src", help="the src/ directory of the changed tree")
    parser.add_argument("--calls", type=int, default=20000, help="seeded chain calls per side")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    return compare(args.parent_src, args.change_src, args.calls, args.seed)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:  # one side, started by compare: SRC CALLS SEED
        worker(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
    else:
        sys.exit(main())
