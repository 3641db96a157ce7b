"""tools/compare_src.py, the parent-comparison tool: run with this checkout's
src/ on both sides it reports every output identical, its measure of a
difference reads last-bit changes in eps * max|entry| of their own array, and
it names the JSON paths at which a CLI call's stdout moved."""
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_src.py"
spec = importlib.util.spec_from_file_location("compare_src", TOOL)
compare_src = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_src)


def test_src_against_itself_is_identical():
    src = str(ROOT / "src")
    run = subprocess.run([sys.executable, str(TOOL), src, src, "--calls", "120"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    n_golden = len(list((ROOT / "tests" / "data" / "golden").glob("*.args")))
    assert f"golden CLI calls: {n_golden} identical, 0 differing" in run.stdout
    assert "chain calls: 120 identical, 0 differing" in run.stdout
    assert "worst difference where both return: 0 eps*max|entry|" in run.stdout
    n_pool = 3 * 25  # bench/cli_calls.py ROUND_SIZE calls per seed
    assert f"cli pool calls (seeds 1, 2, 3): {n_pool} identical, 0 differing" in run.stdout
    n_malformed = 3 * len(compare_src.CORPUS) + 2
    assert (f"malformed corpus calls: {n_malformed} identical, 0 differing (exit code and stdout); "
            "0 stderr differences") in run.stdout
    assert "stdout paths that differ, over the 0 differing CLI calls with JSON stdout on both sides: none" in run.stdout
    assert run.stderr == ""


def test_a_moved_tally_is_named_by_its_path(tmp_path):
    """A change that reverses every tally moves only the simulate calls, and
    only at outcomes[i].tally: each such call is listed with its paths, and the
    summary counts them as outcomes[*].tally."""
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
    assert moved == simulate_calls and len(moved) == 2 + 3 * 3  # 2 golden, 3 per pool seed
    for line in moved:
        assert set(line.split(": ", 2)[2].split(", ")) <= {f"outcomes[{i}].tally" for i in range(4)}, line
    summary = next(line for line in run.stdout.splitlines() if line.startswith("stdout paths that differ"))
    assert summary.startswith(f"stdout paths that differ, over the {len(moved)} differing CLI calls")
    values = sum(line.count(".tally") for line in moved)
    assert summary.endswith(f"outcomes[*].tally in {len(moved)} calls ({values} values)")


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
