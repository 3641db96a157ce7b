"""Tests of the benchmark itself: every checker accepts the program's real
output and rejects a slightly perturbed copy of it.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import cli_calls  # noqa: E402
import common  # noqa: E402
import povm  # noqa: E402
import roundtrip  # noqa: E402
import run  # noqa: E402
from checks import CheckError  # noqa: E402

SEED = 5


def rejects(fn, *args) -> None:
    with pytest.raises(CheckError):
        fn(*args)


# ---------------------------------------------------------------- roundtrip


@pytest.fixture(scope="module")
def rt():
    group = roundtrip.pool(SEED)[0]
    out = roundtrip.op(group)
    roundtrip.check(group, out)
    timelike = next(i for i, (g, _, _) in enumerate(out) if g.kind == "timelike")
    null = next(i for i, (g, _, _) in enumerate(out) if g.kind == "null")
    return group, out, timelike, null


def forward_args(rt, i):
    group, out, _, _ = rt
    g = out[i][0]
    return [group[i], g.kind, g.scale, np.array(g.rotation), np.array(g.velocity.v)]


@pytest.mark.parametrize("which", ["timelike", "null"])
def test_forward_rejects_perturbations(rt, which):
    i = rt[2] if which == "timelike" else rt[3]
    checks.check_forward(*forward_args(rt, i))
    for slot, change in [
        (3, lambda r: r * (1 + 1e-6)),  # rotation scaled by 1 + 1e-6
        (2, lambda s: s * (1 + 1e-6)),
        (4, lambda v: v + 1e-6),
        (1, lambda k: "null" if k == "timelike" else "timelike"),
    ]:
        args = forward_args(rt, i)
        args[slot] = change(args[slot])
        rejects(checks.check_forward, *args)


def test_rotation_rejects_improper_and_boosted():
    checks.check_rotation(checks.rotation(np.array([0.0, 0.6, 0.8]), 1.1))
    rejects(checks.check_rotation, np.diag([1.0, 1.0, 1.0, -1.0]))
    rejects(checks.check_rotation, checks.boost([0.0, 0.0, 1e-6]))


def test_backward_and_lift_reject_perturbations(rt):
    group, out, i, _ = rt
    geom, back, lift = out[i]
    p = checks.psi(group[i])
    checks.check_backward(p, back)
    rejects(checks.check_backward, p, back * (1 + 1e-6))  # largest eigenvalue no longer 1
    rejects(checks.check_backward, p, back + 1e-6 * np.eye(2))
    rejects(checks.check_backward, -p, back)  # negative scale
    rb = geom.rotation @ checks.boost(geom.velocity.v)
    checks.check_lift(lift, rb)
    rejects(checks.check_lift, lift * (1 + 1e-6), rb)
    rejects(checks.check_lift, lift + 1e-6 * np.array([[0, 1], [0, 0]]), rb)
    rejects(checks.check_lift, lift, rb @ checks.rotation(np.array([0.0, 0.0, 1.0]), 1e-6))


def test_roundtrip_check_rejects_a_missing_lift(rt):
    group, out, i, _ = rt
    bad = list(out)
    bad[i] = (out[i][0], out[i][1], None)
    rejects(roundtrip.check, group, bad)


# ---------------------------------------------------------------- povm


@pytest.fixture(scope="module")
def pv():
    inputs = povm.pool(SEED)
    pure = inputs[0]  # every PURE_EVERY-th input, from 0, has a zero-probability outcome
    sample, p_bob, report = povm.op(pure)
    outcomes = [
        {
            "index": o.index,
            "probability": o.probability,
            "tally": o.tally,
            "post_vector": o.post_vector,
            "applied_transform": o.applied_transform,
        }
        for o in sample
    ]
    povm.check(pure, (sample, p_bob, report))
    mixed = inputs[1]
    return pure, outcomes, p_bob, report, mixed, povm.op(mixed)[2]


def test_sample_rejects_perturbations(pv):
    inp, outcomes, *_ = pv
    elems, rho, n = inp["elements"], inp["rho"], povm.N_SAMPLES
    checks.check_sample(elems, rho, n, outcomes)

    bad = copy.deepcopy(outcomes)
    bad[0]["probability"] += 1e-6
    bad[1]["probability"] -= 1e-6  # keeps the sum at 1
    rejects(checks.check_sample, elems, rho, n, bad)

    # a tally moved by 6 sigma, in the direction it already deviates
    k = max(range(len(outcomes)), key=lambda i: outcomes[i]["probability"])
    p = outcomes[k]["probability"]
    sigma = math.sqrt(n * p * (1 - p))
    step = int(math.ceil(6 * sigma)) * (1 if outcomes[k]["tally"] >= n * p else -1)
    j = (k + 1) % len(outcomes)
    bad = copy.deepcopy(outcomes)
    bad[k]["tally"] += step
    bad[j]["tally"] -= step
    rejects(checks.check_sample, elems, rho, n, bad)

    zero = next(o["index"] for o in outcomes if o["probability"] <= 1e-12)
    bad = copy.deepcopy(outcomes)
    bad[zero]["tally"] += 1
    bad[k]["tally"] -= 1
    rejects(checks.check_sample, elems, rho, n, bad)

    bad = copy.deepcopy(outcomes)
    bad[k]["tally"] += 1
    rejects(checks.check_sample, elems, rho, n, bad)  # sum is n + 1

    bad = copy.deepcopy(outcomes)
    bad[k]["applied_transform"] = bad[k]["applied_transform"] * (1 + 1e-6)
    rejects(checks.check_sample, elems, rho, n, bad)

    bad = copy.deepcopy(outcomes)
    bad[k]["post_vector"] = bad[k]["post_vector"] + 1e-6
    rejects(checks.check_sample, elems, rho, n, bad)


def test_p_bob_rejects_shift(pv):
    inp, _, p_bob, *_ = pv
    checks.check_p_bob(inp["elements"], inp["rho"], inp["v"], p_bob)
    bad = list(p_bob)
    bad[2] += 1e-6
    rejects(checks.check_p_bob, inp["elements"], inp["rho"], inp["v"], bad)
    rejects(checks.check_p_bob, inp["elements"], inp["rho"], -inp["v"], p_bob)


def test_report_rejects_perturbations(pv):
    *_, mixed, report = pv
    elems, rho = mixed["elements"], mixed["rho"]
    checks.check_report(elems, rho, report)
    rows = report["elements"]
    live = next(
        i for i, r in enumerate(rows)
        if r["conservation_residual"] is not None and r["eta_vv"] > 1e-3 * r["e_vec"][0] ** 2
    )
    for key, delta in [
        ("probability", 1e-6),
        ("mixedness_after", 1e-6),
        ("eta_vv", 1e-6),
        ("conservation_residual", 1e-6),
    ]:
        bad = copy.deepcopy(report)
        bad["elements"][live][key] += delta
        rejects(checks.check_report, elems, rho, bad)
    bad = copy.deepcopy(report)
    bad["elements"][live]["conservation_residual"] = None
    rejects(checks.check_report, elems, rho, bad)
    bad = copy.deepcopy(report)
    bad["state"]["mixedness"] += 1e-6
    rejects(checks.check_report, elems, rho, bad)


# ---------------------------------------------------------------- cli


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    pool = cli_calls.pool(SEED, str(workdir))
    return [(case, cli_calls.op(case)) for case in pool]


def test_cli_round_covers_commands_and_exit_codes(cases):
    assert len(cases) == cli_calls.ROUND_SIZE
    assert {c["cmd"] for c, _ in cases} == set(cli_calls.COMMANDS)
    assert sorted(c["expect"] for c, _ in cases if c["expect"]) == [1, 2, 3, 3]
    for case, out in cases:
        cli_calls.check(case, out)


def test_cli_rejects_wrong_exit_code_and_format(cases):
    case, (code, text) = next((c, o) for c, o in cases if c["cmd"] == "simulate")
    rejects(cli_calls.check, case, (1, text))
    # 17 significant digits are the frozen format; a shorter float is not
    short = text.replace(f"{json.loads(text)['outcomes'][0]['probability']:.17g}",
                         repr(json.loads(text)["outcomes"][0]["probability"]), 1)
    if short != text:
        rejects(cli_calls.check, case, (code, short))
    rejects(cli_calls.check, case, (code, text.replace("  ", "    ", 1)))
    bad, (c2, t2) = next((c, o) for c, o in cases if c["expect"] == 3)
    rejects(cli_calls.check, bad, (c2, "{}\n"))


@pytest.mark.parametrize("cmd", cli_calls.COMMANDS)
def test_cli_checks_reject_a_shifted_number(cases, cmd):
    case, (code, text) = next((c, o) for c, o in cases if c["cmd"] == cmd and c["expect"] == 0)
    obj = json.loads(text)
    target = {
        "validate": ("max_deviation",),
        "to-lorentz": ("scale",),
        "to-element": (0, 0, 0),
        "apply": ("outcomes", 0, "p"),
        "simulate": ("outcomes", 0, "probability"),
        "boost-observer": ("p_bob", 0),
        "invariants": ("elements", 0, "mixedness_after"),
    }[cmd]
    holder = obj
    for key in target[:-1]:
        holder = holder[key]
    holder[target[-1]] += 1e-6
    rejects(cli_calls.check, case, (code, checks.emit(obj)))


# ---------------------------------------------------------------- harness


def test_pools_repeat_for_a_seed_and_change_with_it(tmp_path):
    a, b, c = (roundtrip.pool(s)[0][0] for s in (SEED, SEED, SEED + 1))
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert [x["seed"] for x in povm.pool(SEED)] == [x["seed"] for x in povm.pool(SEED)]


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.end_to_end_names()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(common.MODULES)


def test_every_layer_function_is_traced_by_some_workload(tmp_path):
    stems = set()
    for mod, inputs in [
        (roundtrip, roundtrip.pool(SEED)[:2]),
        (povm, povm.pool(SEED)[:1]),
        (cli_calls, cli_calls.pool(SEED, str(tmp_path))),
    ]:
        stems |= {stem for inp in inputs for stem, _ in mod.plan(inp)}
    assert set(run.STEMS) <= stems
