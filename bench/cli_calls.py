"""`cli`: in-process calls of qubitcone.cli.main(argv).

One operation is one call with stdout and stderr captured in memory. A
round of ROUND_SIZE calls covers all seven commands VARIANTS times, on
seeded JSON files with 2 to 4 elements written at set-up, plus four inputs
that must end in their documented non-zero exit code. Interpreter and numpy
start-up is paid once, in setup_s, not per call.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks
import common
from qubitcone import qmat, serialize
from qubitcone.cli import main
from qubitcone.conemap import phi
from qubitcone.correspond import (
    apply_element,
    effect,
    element_to_lorentz,
    lorentz_to_element,
    prop2_invariants,
    validate,
)
from qubitcone.lorentz import LorentzDecomposition, pure_boost, rotation4, velocity
from qubitcone.sim import boosted_probabilities, observer_boost, report_invariants, scenario1_sample

COMMANDS = ["validate", "to-lorentz", "to-element", "apply", "simulate", "boost-observer", "invariants"]
VARIANTS = 3
N_SAMPLES = 2000
VALIDATE_TOL = 1e-9
ROUND_SIZE = VARIANTS * len(COMMANDS) + 4

# Mean time of this workload's checks per operation at the reference host
# speed; see "Host-speed correction" in README.md.
CHECK_REF_US = 350


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors, as a process would see them
            code = exc.code
    return code, out.getvalue()


def _mat_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _csv(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def _matrix(obj) -> np.ndarray:
    return np.array([[complex(*z) for z in row] for row in obj])


class _Files:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def write(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


def _case(cmd, argv, expect=0, check=None, **data) -> dict:
    return {"cmd": cmd, "argv": [cmd] + argv, "expect": expect, "check": check, **data}


def _variant(rng, files: _Files, cmd: str, j: int) -> dict:
    elems = common.measurement(rng, 2 + j, 1)
    rho = common.pure_state_orthogonal_to(common.element(rng, 0.0)) if j == 2 else common.mixed_state(rng)
    meas_path = files.write({"elements": [_mat_json(m) for m in elems]})
    state_path = files.write(_mat_json(rho))
    io_args = ["--measurement", meas_path, "--state", state_path]
    data = {"elements": elems, "rho": rho, "meas_path": meas_path, "state_path": state_path}
    if cmd == "validate":
        return _case(
            cmd, ["--measurement", meas_path], check=lambda o: checks.check_validate(elems, VALIDATE_TOL, o),
            elements=elems, meas_path=meas_path,
        )
    if cmd == "to-lorentz":
        m = common.element(rng, 0.0 if j == 2 else common.log_ratio(rng))
        path = files.write(_mat_json(m))

        def check(o):
            checks.check_forward(m, o["kind"], o["scale"], np.array(o["rotation"]), np.array(o["velocity"]["v"]))
            e_vec = checks.phi(m.conj().T @ m)
            checks.require(np.max(np.abs(np.array(o["e_vec"]) - e_vec)) <= checks.ABS_TOL, "e_vec is wrong")
            checks.require(o["velocity"]["kind"] == o["kind"], "velocity kind differs from the element kind")

        return _case(cmd, ["--element", path], check=check, element=m, elem_path=path)
    if cmd == "to-element":
        axis, angle, v = common.unit_vector(rng), float(rng.uniform(0.0, np.pi)), common.velocity(rng)
        lam = None if j < 2 else float(rng.uniform(0.3, 0.9) * np.sqrt(2.0 / (1.0 + np.linalg.norm(v))))
        # "--opt=value" so that a leading minus sign is not read as an option
        argv = ["--rotation-axis=" + _csv(axis), f"--rotation-angle={angle!r}", "--velocity=" + _csv(v)]
        if lam is not None:
            argv.append(f"--lambda={lam!r}")
        return _case(
            cmd, argv, check=lambda o: checks.check_element_from_lorentz(axis, angle, v, lam, _matrix(o)),
            axis=axis, angle=angle, v=v, lam=lam,
        )
    if cmd == "apply":
        return _case(cmd, io_args, check=lambda o: checks.check_apply(elems, rho, o["outcomes"]), **data)
    if cmd == "simulate":
        seed = int(rng.integers(2**31))

        def check(o):
            checks.require(o["seed"] == seed and o["n"] == N_SAMPLES, "seed or n is not echoed")
            checks.check_sample(elems, rho, N_SAMPLES, o["outcomes"])

        return _case(cmd, io_args + ["--seed", str(seed), "--n", str(N_SAMPLES)], check=check, seed=seed, **data)
    if cmd == "boost-observer":
        v = common.velocity(rng)

        def check(o):
            checks.require(o["velocity"] == {"v": [float(x) for x in v], "kind": "timelike"}, "velocity is not echoed")
            checks.check_p_bob(elems, rho, v, o["p_bob"])
            checks.require(abs(o["sum_p_bob"] - sum(o["p_bob"])) <= checks.ABS_TOL, "sum_p_bob is wrong")

        return _case(cmd, io_args + ["--velocity=" + _csv(v)], check=check, v=v, **data)
    return _case(cmd, io_args, check=lambda o: checks.check_report(elems, rho, o), **data)


def _failing(rng, files: _Files) -> list:
    """Inputs with a documented non-zero exit code: 1 validation failure,
    2 malformed input, 3 numeric domain error."""
    short = [0.9 * m for m in common.measurement(rng, 3, 1)]
    short_path = files.write({"elements": [_mat_json(m) for m in short]})
    zero_path = files.write(_mat_json(np.zeros((2, 2))))
    elems = common.measurement(rng, 2, 1)
    meas_path = files.write({"elements": [_mat_json(m) for m in elems]})
    state_path = files.write(_mat_json(common.mixed_state(rng)))
    skew_path = files.write([[[0.5, 0.0], [0.1, 0.3]], [[0.2, 0.0], [0.5, 0.0]]])
    return [
        _case(
            "validate", ["--measurement", short_path], expect=1,
            check=lambda o: checks.check_validate(short, VALIDATE_TOL, o), elements=short, meas_path=short_path,
        ),
        _case("to-lorentz", ["--element", zero_path], expect=3, elem_path=zero_path),
        _case(
            "apply", ["--measurement", meas_path, "--state", skew_path], expect=2,
            meas_path=meas_path, state_path=skew_path,
        ),
        _case(
            "boost-observer",
            ["--measurement", meas_path, "--state", state_path, "--velocity", "0.6,0.6,0.6"],
            expect=3, meas_path=meas_path, state_path=state_path, v=np.array([0.6, 0.6, 0.6]),
        ),
    ]


def pool(seed: int, workdir: str) -> list:
    rng = common.rng_for("cli", seed)
    files = _Files(workdir)
    blocks = [[_variant(rng, files, cmd, j) for cmd in COMMANDS] for j in range(VARIANTS)]
    bad = _failing(rng, files)
    return blocks[0] + bad[:1] + blocks[1] + bad[1:3] + blocks[2] + bad[3:]


def op(case):
    return run_cli(case["argv"])


def check(case, out) -> None:
    code, text = out
    checks.require(code == case["expect"], f"{case['cmd']} exited {code}, expected {case['expect']}")
    if case["check"] is None:
        checks.require(text == "", "a failing command wrote to stdout")
        return
    obj = json.loads(text)
    checks.require(checks.emit(obj) == text, "stdout does not re-emit byte-identically")
    case["check"](obj)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def plan(case) -> list:
    """Direct calls along the command's path, then the command itself."""
    calls = []
    meas = rho = m = None
    if "meas_path" in case:
        text = _read(case["meas_path"])
        obj = serialize.loads(text)
        calls += [common.call(serialize.loads, text), common.call(serialize.measurement_from_json, obj)]
        meas = serialize.measurement_from_json(obj)
    for key in ("state_path", "elem_path"):
        if key in case:
            text = _read(case[key])
            obj = serialize.loads(text)
            calls += [common.call(serialize.loads, text), common.call(serialize.mat2_from_json, obj)]
            if key == "state_path":
                rho = serialize.mat2_from_json(obj)
                calls.append(common.call(qmat.eigenvalues, rho))
            else:
                m = serialize.mat2_from_json(obj)
                calls.append(common.call(qmat.mat2, m))
    cmd = case["cmd"]
    ok = case["expect"] == 0
    if cmd == "validate":
        calls.append(common.call(validate, meas, VALIDATE_TOL))
        calls += [common.call(effect, e) for e in meas.elements]
    elif cmd == "to-lorentz":
        calls += [common.call(effect, m), common.call(phi, effect(m)), common.call(element_to_lorentz, m)]
    elif cmd == "to-element":
        decomp = LorentzDecomposition(
            rotation=rotation4(case["axis"], case["angle"]), velocity=velocity(case["v"]), scale=1.0
        )
        calls.append(common.call(lorentz_to_element, decomp, case["lam"]))
    elif cmd == "apply" and ok:
        calls += [common.call(apply_element, e, rho) for e in meas.elements]
    elif cmd == "simulate":
        calls.append(common.call(scenario1_sample, meas, rho, case["seed"], N_SAMPLES))
    elif cmd == "boost-observer":
        calls.append(common.call(pure_boost, case["v"]))
        if ok:
            calls.append(common.call(boosted_probabilities, meas, rho, observer_boost(case["v"])))
    elif cmd == "invariants":
        calls.append(common.call(report_invariants, meas, rho))
        calls += [common.call(prop2_invariants, e, rho) for e in meas.elements]
    _, text = run_cli(case["argv"])
    if text:
        calls.append(common.call(serialize.dumps, json.loads(text)))
    calls.append(common.call(_exit_zero, case["argv"], name="cli." + cmd))
    return calls


def _exit_zero(argv) -> None:
    """The traced CLI call; a non-zero exit counts in cli.failed."""
    code, _ = run_cli(argv)
    if code:
        raise RuntimeError(f"exit code {code}")
