"""tools/compare_src.py, the parent-comparison tool: run with this checkout's
src/ on both sides it reports every output identical, its measure of a
difference reads last-bit changes in eps * max|entry| of their own array, and
it names the JSON paths at which a CLI call's stdout moved."""
import dataclasses
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import test_cli_fuzz

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_src.py"
spec = importlib.util.spec_from_file_location("compare_src", TOOL)
compare_src = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_src)
# engine group records: every ENGINE on 3 povm pools of bench/povm.py POOL = 32 inputs and the edges
N_ENGINE = len(compare_src.ENGINES) * (3 * 32 + compare_src.ENGINE_EDGES)


def test_src_against_itself_is_identical():
    src = str(ROOT / "src")
    run = subprocess.run([sys.executable, str(TOOL), src, src, "--calls", "120"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    n_golden = len(list((ROOT / "tests" / "data" / "golden").glob("*.args")))
    assert f"golden CLI calls: {n_golden} identical, 0 differing" in run.stdout
    assert "chain calls: 120 identical, 0 differing" in run.stdout
    assert "differing chain calls by input tag, each under every tag it has: none; untagged: 0" in run.stdout
    assert "worst difference where both return: 0 eps*max|entry|" in run.stdout
    assert "record attributes on one side only, not compared: none" in run.stdout
    assert (f"engine calls (povm pools of seeds 1, 2, 3 and 11 edge cases): {N_ENGINE} identical, 0 differing "
            "(bit for bit); differing by function: none") in run.stdout
    n_pool = 3 * 25  # bench/cli_calls.py ROUND_SIZE calls per seed
    assert f"cli pool calls (seeds 1, 2, 3): {n_pool} identical, 0 differing" in run.stdout
    n_malformed = 3 * len(compare_src.CORPUS) + 2
    assert (f"malformed corpus calls: {n_malformed} identical, 0 differing (exit code and stdout); "
            "0 stderr differences") in run.stdout
    fuzz = test_cli_fuzz  # 5 commands read each matrix and each measurement
    n_fuzz = 5 * len(fuzz.MATRICES) + 5 * len(fuzz.MEASUREMENTS) + len(fuzz.option_values("m", "s"))
    assert f"cli fuzz corpus calls: {n_fuzz} identical, 0 differing (exit code, stdout and stderr)" in run.stdout
    assert "stdout paths that differ, over the 0 differing CLI calls with JSON stdout on both sides: none" in run.stdout
    assert run.stderr == ""


def test_a_moved_tally_is_named_by_its_path(tmp_path):
    """A change that reverses every tally moves only the simulate calls, and
    only at outcomes[i].tally: each such call is listed with its paths, and the
    summary counts them as outcomes[*].tally. In the engine group it moves
    scenario1_sample alone, on every input whose tallies are not a palindrome."""
    change = tmp_path / "src"
    shutil.copytree(ROOT / "src", change, ignore=shutil.ignore_patterns("__pycache__"))
    sim = change / "qubitcone" / "sim.py"
    text = sim.read_text()
    assert text.count("    return tallies\n") == 1
    sim.write_text(text.replace("    return tallies\n", "    return tallies[::-1].copy()\n"))
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), str(change), "--calls", "7"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    moved = [line for line in run.stdout.splitlines() if line.startswith("paths differ: ")]
    simulate_calls = [line for line in moved if " simulate" in line]
    assert moved == simulate_calls and len(moved) == 3 + 3 * 3  # 3 golden, 3 per pool seed
    for line in moved:
        assert set(line.split(": ", 2)[2].split(", ")) <= {f"outcomes[{i}].tally" for i in range(16)}, line
    # all 96 pool inputs, n = MAX_SAMPLES, the exact zero, the two small elements and the
    # underflowing one; n = 0 draws only zeros, the rest raise
    engine = next(line for line in run.stdout.splitlines() if line.startswith("engine calls"))
    assert engine.endswith(f"{N_ENGINE - 101} identical, 101 differing (bit for bit); "
                           "differing by function: scenario1_sample 101"), engine
    summary = next(line for line in run.stdout.splitlines() if line.startswith("stdout paths that differ"))
    assert summary.startswith(f"stdout paths that differ, over the {len(moved)} differing CLI calls")
    values = sum(line.count(".tally") for line in moved)
    assert summary.endswith(f"outcomes[*].tally in {len(moved)} calls ({values} values)")


def test_the_engine_group_reaches_its_edges(monkeypatch):
    """The engine group runs every povm pool input through all four engines, and its
    edge cases reach what they are named for: an outcome of probability exactly 0
    that is never drawn, n = 0 and n = MAX_SAMPLES drawn in full, a count above it
    refused, scaled elements refused by completeness, a scaled state reported, and
    the small elements' outcomes of probability 1e-16 and 1e-300 live: post vector
    p (1, 0, 0, 1), the first drawn at n = MAX_SAMPLES, the second not; and the element
    whose psi(M) underflows reported timelike."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # engine_cases puts bench/ first
    records = {rec["id"]: rec for rec in compare_src.engine_records()}
    assert len(records) == N_ENGINE
    assert not [rec for ident, rec in records.items() if ident.startswith("engine pool") and "ok" not in rec]
    assert not [rec for rec in records.values() if rec["warnings"]]
    zero = records["engine probability exactly 0: scenario1_sample"]["ok"][0]
    assert zero[:7] == [0, 0.0, 0, 0.0, 0.0, 0.0, 0.0], zero  # index, probability, tally, post vector
    for n in (0, compare_src.MAX_SAMPLES):
        tallies = records[f"engine n = {n}: scenario1_sample"]["ok"][0][2::23]  # 23 numbers per outcome
        assert len(tallies) == 16 and sum(tallies) == n, tallies
    assert records["engine n = 9223372036854775808: scenario1_sample"]["raised"].startswith("TooLarge: ")
    for s in ("1e+150", "1e-150"):
        assert "ok" in records[f"engine elements x {s}: measurement"]
        assert records[f"engine elements x {s}: report_invariants"]["raised"].startswith("InvalidMeasurement: ")
        assert "ok" in records[f"engine state x {s}: report_invariants"]
        assert records[f"engine state x {s}: scenario1_sample"]["raised"].startswith("NotNormalized: ")
    for s in (1e-8, 1e-150):
        small = records[f"engine small element {s:g} I: scenario1_sample"]["ok"][0]
        assert small[:2] == [0, s * s] and small[3:7] == [s * s, 0.0, 0.0, s * s], small
        assert (small[2] > 0) == (s == 1e-8), small
    report = records["engine underflowing element 1e-170 diag(1, 1/2): report_invariants"]["ok"][0]
    assert report[report.index("kind") + 1] == "timelike", report  # the first element's kind


def test_json_paths_name_each_differing_value():
    a = {"n": 3, "outcomes": [{"tally": 1, "v": [0.5, 1.0]}, {"tally": 2, "v": [0.5, 1.0]}]}
    b = {"n": 3, "outcomes": [{"tally": 2, "v": [0.5, 1.0]}, {"tally": 1, "v": [0.5, 2.0]}]}
    assert compare_src.json_paths(a, a) == []
    assert compare_src.json_paths(a, b) == ["outcomes[0].tally", "outcomes[1].tally", "outcomes[1].v[1]"]
    assert compare_src.json_paths({"v": [1, 2]}, {"v": [1, 2, 3]}) == ["v"]  # another length: named whole
    assert compare_src.json_paths({"a": 1}, {"b": 1}) == ["$"]  # other keys
    assert compare_src.json_paths({"a": 1}, {"a": True}) == ["a"]  # 1 == True, but not as JSON
    record = {"stdout": json.dumps(a)}
    assert compare_src.stdout_paths(record, {"stdout": json.dumps(b)})[0] == "outcomes[0].tally"
    assert compare_src.stdout_paths(record, {"stdout": ""}) is None


def test_the_malformed_corpus_exits_2_with_one_error_line_and_no_stdout(tmp_path, monkeypatch):
    """Every file of the corpus but the three valid ones, as each command reads
    it, is malformed input: exit 2, one error line, no stdout."""
    from qubitcone.cli import main

    monkeypatch.chdir(tmp_path)
    records = list(compare_src.malformed_records(main))
    assert len(records) == 3 * len(compare_src.CORPUS) + 2
    for rec in records:
        if rec["id"].split(":")[0] in ("malformed valid", "malformed CRLF", "malformed CR"):
            assert rec["exit"] in (0, 1) and rec["stdout"], rec  # 1: diag(1/2, 1/2) alone is not complete
        else:
            assert (rec["exit"], rec["stdout"]) == (2, ""), rec
            assert rec["stderr"].startswith("error: ") and rec["stderr"].count("\n") == 1, rec


def test_difference_is_per_group_in_eps_of_its_largest_entry():
    a = compare_src.groups((np.array([1.0, -2.0]), 1e-300, "timelike"))
    assert a == [[1.0, -2.0], [1e-300], ["timelike"]]
    assert compare_src.difference(a, a) == 0
    b = [[1.0, math.nextafter(-2.0, 0)], [1e-300], ["timelike"]]
    assert compare_src.difference(a, b) == 0.5  # 2 - eps against 2: eps, in units of eps * max|entry| = 2 eps
    c = [[1.0, -2.0], [math.nextafter(1e-300, 1)], ["timelike"]]
    assert 0 < compare_src.difference(a, c) <= 1
    assert compare_src.difference(a, [[1.0, -2.0], [1e-300], ["null"]]) == math.inf
    assert compare_src.difference(a, [[1.0, -2.0], [math.nan], ["timelike"]]) == math.inf
    assert compare_src.difference(a, [[1.0, -2.0, 0.0], [1e-300], ["timelike"]]) == math.inf
    assert compare_src.difference([[0.0]], [[-0.0]]) == math.inf  # bits differ, max|entry| is 0


def test_a_record_is_read_by_its_attributes_not_its_fields():
    """A field that becomes a property or moves to a base class, in another field
    order, reads as the same groups; attributes outside ATTRIBUTES are not read."""

    @dataclasses.dataclass
    class Stored:
        e_vec: np.ndarray
        v_vec: np.ndarray
        scale: float
        kind: str
        note: str

    @dataclasses.dataclass
    class Base:
        kind: str
        scale: float

    @dataclasses.dataclass
    class Derived(Base):
        e_vec: np.ndarray

        @property
        def v_vec(self):
            return self.e_vec / 2

    e_vec = np.array([2.0, 1.0])
    stored = Stored(e_vec, e_vec / 2, 0.5, "timelike", "not compared")
    assert compare_src.groups(stored) == compare_src.groups(Derived("timelike", 0.5, e_vec))
    assert compare_src.groups(stored) == [[2.0, 1.0], [1.0, 0.5], [0.5], ["timelike"]]
    assert list(compare_src.attributes(Base("null", 1.0))) == ["scale", "kind"]
