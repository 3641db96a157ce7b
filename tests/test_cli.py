import contextlib
import io
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitcone import cli, serialize
from qubitcone.cli import EXIT_DOMAIN, EXIT_INVALID, EXIT_MALFORMED, EXIT_OK, main
from qubitcone.correspond import measurement
from qubitcone.qmat import SIGMA, _gram

I2 = np.eye(2, dtype=complex)
Z = SIGMA[3]
PROJ0 = (I2 + Z) / 2
PROJ1 = (I2 - Z) / 2


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(serialize.dumps(obj))
    return str(path)


@pytest.fixture
def proj_z(tmp_path):
    return write_json(
        tmp_path,
        "meas.json",
        serialize.measurement_to_json(measurement([PROJ0, PROJ1])),
    )


@pytest.fixture
def mixed_state(tmp_path):
    return write_json(tmp_path, "state.json", serialize.mat2_to_json(I2 / 2))


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_validate_ok(proj_z, capsys):
    code, out = run(capsys, ["validate", "--measurement", proj_z])
    assert code == EXIT_OK
    doc = serialize.loads(out)
    assert doc["valid"] is True
    assert doc["n_elements"] == 2
    assert doc["max_deviation"] <= 1e-12


def test_validate_incomplete(tmp_path, capsys):
    path = write_json(
        tmp_path, "bad.json", serialize.measurement_to_json(measurement([PROJ0]))
    )
    code, out = run(capsys, ["validate", "--measurement", path])
    assert code == EXIT_INVALID
    assert serialize.loads(out)["valid"] is False


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["validate", "--measurement", str(path)]) == EXIT_MALFORMED
    assert main(["validate", "--measurement", str(tmp_path / "nope.json")]) == EXIT_MALFORMED
    path.write_bytes(b"\xff\xfe not UTF-8")
    assert main(["validate", "--measurement", str(path)]) == EXIT_MALFORMED


def test_to_lorentz(tmp_path, capsys):
    elem = write_json(
        tmp_path,
        "elem.json",
        serialize.mat2_to_json(np.diag([np.sqrt(3) / 2, 1 / 2])),
    )
    code, out = run(capsys, ["to-lorentz", "--element", elem])
    assert code == EXIT_OK
    geom = serialize.loads(out)
    assert geom["kind"] == "timelike"
    assert np.allclose(geom["velocity"]["v"], [0, 0, -0.5], atol=1e-12)
    assert geom["scale"] == pytest.approx(np.sqrt(3) / 4, abs=1e-12)


def test_to_lorentz_of_a_subnormal_element(tmp_path, capsys):
    """Only M = 0 carries no Lorentz data: entries below 2^-1022 give the
    kind and velocity of M scaled up."""
    elem = write_json(tmp_path, "tiny.json", serialize.mat2_to_json(1e-310 * np.diag([np.sqrt(3) / 2, 1 / 2])))
    code, out = run(capsys, ["to-lorentz", "--element", elem])
    assert code == EXIT_OK
    geom = serialize.loads(out)
    assert geom["kind"] == "timelike"
    assert np.allclose(geom["velocity"]["v"], [0, 0, -0.5], atol=1e-12)


def test_to_lorentz_zero_element_is_domain_error(tmp_path, capsys):
    elem = write_json(tmp_path, "zero.json", serialize.mat2_to_json(np.zeros((2, 2))))
    assert main(["to-lorentz", "--element", elem]) == EXIT_DOMAIN


def test_to_element_default_lambda(capsys):
    code, out = run(
        capsys,
        [
            "to-element",
            "--rotation-axis", "0,0,1",
            "--rotation-angle", "0",
            "--velocity", "0,0,0",
        ],
    )
    assert code == EXIT_OK
    m = serialize.mat2_from_json(serialize.loads(out))
    assert np.allclose(m, I2, atol=1e-12)  # lambda defaults to its maximum


def test_to_element_explicit_lambda(capsys):
    code, out = run(
        capsys,
        [
            "to-element",
            "--rotation-axis", "0,0,1",
            "--rotation-angle", "0",
            "--velocity", "0,0,-1",
            "--lambda", "1",
        ],
    )
    assert code == EXIT_OK
    m = serialize.mat2_from_json(serialize.loads(out))
    assert np.allclose(m, PROJ0, atol=1e-12)


def test_to_element_lambda_out_of_range(capsys):
    code = main(
        [
            "to-element",
            "--rotation-axis", "0,0,1",
            "--rotation-angle", "0",
            "--velocity", "0,0,0",
            "--lambda", "5",
        ]
    )
    assert code == EXIT_DOMAIN


def test_to_element_bad_velocity_string(capsys):
    code = main(
        [
            "to-element",
            "--rotation-axis", "0,0,1",
            "--rotation-angle", "0",
            "--velocity", "0,0",
        ]
    )
    assert code == EXIT_MALFORMED


def test_apply(proj_z, mixed_state, capsys):
    code, out = run(capsys, ["apply", "--measurement", proj_z, "--state", mixed_state])
    assert code == EXIT_OK
    doc = serialize.loads(out)
    assert [o["p"] for o in doc["outcomes"]] == pytest.approx([0.5, 0.5])
    assert doc["outcomes"][0]["post_vector"] == pytest.approx([0.5, 0, 0, 0.5])


def test_simulate_deterministic(proj_z, mixed_state, capsys):
    argv = [
        "simulate",
        "--measurement", proj_z,
        "--state", mixed_state,
        "--seed", "123",
        "--n", "1000",
    ]
    code, out1 = run(capsys, argv)
    assert code == EXIT_OK
    _, out2 = run(capsys, argv)
    assert out1 == out2
    doc = serialize.loads(out1)
    assert sum(o["tally"] for o in doc["outcomes"]) == 1000


@pytest.mark.parametrize("seed, n", [("123", "-1"), ("-1", "1000")])
def test_simulate_negative_count_or_seed_is_malformed(proj_z, mixed_state, capsys, seed, n):
    argv = ["simulate", "--measurement", proj_z, "--state", mixed_state, "--seed", seed, "--n", n]
    assert main(argv) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_simulate_undrawable_count_is_a_domain_error(proj_z, mixed_state, capsys):
    """A count above sim.MAX_SAMPLES is refused before the first draw."""
    argv = ["simulate", "--measurement", proj_z, "--state", mixed_state, "--seed", "1", "--n", str(10**20)]
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_simulate_a_count_above_2_32_runs(proj_z, mixed_state, capsys):
    """Counts up to sim.MAX_SAMPLES = 2^63 - 1 are drawn, in O(K) whatever n."""
    argv = ["simulate", "--measurement", proj_z, "--state", mixed_state, "--seed", "1", "--n", str(2**32 + 1)]
    code, out = run(capsys, argv)
    assert code == EXIT_OK
    assert sum(o["tally"] for o in serialize.loads(out)["outcomes"]) == 2**32 + 1


def test_apply_rejects_a_subnormal_state_that_is_not_hermitian(proj_z, tmp_path, capsys):
    """1e-310 [[1, 1], [0, 1]] is as far from hermitian as [[1, 1], [0, 1]]:
    malformed input at either scale."""
    for scale in (1.0, 1e-310):
        state = write_json(tmp_path, "state.json", serialize.mat2_to_json(scale * np.array([[1, 1], [0, 1]])))
        assert main(["apply", "--measurement", proj_z, "--state", state]) == EXIT_MALFORMED
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: matrix is not hermitian within tolerance\n"


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_validate_negative_tol_is_malformed(proj_z, capsys, tol):
    assert main(["validate", "--measurement", proj_z, "--tol", tol]) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "elements",
    [
        [[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]],
        [serialize.mat2_to_json(PROJ0), [[[1, 0], [0, 0]]]],
    ],
    ids=["3x3-element", "ragged-elements"],
)
def test_malformed_measurement_file(tmp_path, mixed_state, capsys, elements):
    path = write_json(tmp_path, "bad.json", {"elements": elements})
    for argv in [
        ["validate", "--measurement", path],
        ["apply", "--measurement", path, "--state", mixed_state],
        ["simulate", "--measurement", path, "--state", mixed_state, "--seed", "1", "--n", "10"],
    ]:
        assert main(argv) == EXIT_MALFORMED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


HUGE = [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "element, meas",
    [
        (serialize.dumps(HUGE), serialize.dumps({"elements": [HUGE, HUGE]})),
        (DEEP, f'{{"elements": {DEEP}}}'),
    ],
    ids=["integer-beyond-float-range", "nested-beyond-recursion-limit"],
)
def test_unrepresentable_input_is_malformed(tmp_path, mixed_state, capsys, element, meas):
    elem_path, meas_path = tmp_path / "elem.json", tmp_path / "meas.json"
    elem_path.write_text(element)
    meas_path.write_text(meas)
    for argv in [
        ["validate", "--measurement", str(meas_path)],
        ["to-lorentz", "--element", str(elem_path)],
        ["apply", "--measurement", str(meas_path), "--state", mixed_state],
    ]:
        assert main(argv) == EXIT_MALFORMED, argv[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_to_element_non_finite_angle_is_malformed(capsys):
    argv = ["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "inf", "--velocity", "0,0,0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_MALFORMED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("lam, code", [("nan", EXIT_MALFORMED), ("inf", EXIT_MALFORMED), ("-inf", EXIT_MALFORMED),
                                       ("5", EXIT_DOMAIN)])
def test_to_element_lambda_must_be_finite(capsys, lam, code):
    """A non-finite --lambda is malformed, as every non-finite option value is;
    a finite one out of (0, lambda_max] is a domain error."""
    argv = ["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "0.5", "--velocity", "0.1,0,0",
            f"--lambda={lam}"]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if code == EXIT_MALFORMED:
        assert captured.err == f"error: --lambda must be finite, got {float(lam)}\n"


def test_non_finite_result_is_a_domain_error(tmp_path, capsys):
    """Effects of 8.1e307 are finite, their completeness sum is not."""
    big = np.diag([9e153, 0])
    meas = write_json(tmp_path, "meas.json", serialize.measurement_to_json(measurement([big] * 3)))
    assert main(["validate", "--measurement", meas]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err


def test_overflowing_effect_is_a_domain_error(tmp_path, mixed_state, capsys):
    """Finite elements whose effect M†M overflows exit 3 from every command
    that reads an element or a measurement, all with one error: to-lorentz
    takes it from element_to_lorentz, the others from the CLI's effect check."""
    big = np.diag([1e200, 5e199])
    elem = write_json(tmp_path, "big.json", serialize.mat2_to_json(big))
    meas = write_json(tmp_path, "big-meas.json", serialize.measurement_to_json(measurement([big, big])))
    with_state = ["--measurement", meas, "--state", mixed_state]
    for argv in [
        ["to-lorentz", "--element", elem],
        ["validate", "--measurement", meas],
        ["apply", *with_state],
        ["simulate", *with_state, "--seed", "1", "--n", "10"],
        ["boost-observer", *with_state, "--velocity", "0.1,0,0"],
        ["invariants", *with_state],
    ]:
        assert main(argv) == EXIT_DOMAIN, argv[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: an element's effect M†M overflows\n", argv[0]


# real and imaginary parts: 0, or of magnitude log-uniform in [1e-300, 1e300],
# so that some effects M†M overflow and some do not
parts = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-300, 300)),
)
element_stacks = st.integers(1, 8).flatmap(lambda k: st.lists(parts, min_size=8 * k, max_size=8 * k))


def load_checking_every_effect(path: str):
    meas = serialize.measurement_from_json(serialize.load_file(path))
    cli._finite_effects(meas.elements)
    return meas


def call_quietly(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(element_stacks)
@example([9e153, 0, 0, 0, 0, 0, 0, 0] * 3)  # finite effects, an overflowing sum
def test_an_overflowing_effect_makes_the_deviation_non_finite(tmp_path_factory, entries):
    """Each diagonal entry of an effect is a sum of squares, so an effect that
    overflows makes max|sum M†M - I| inf or nan. So the CLI checks the effects
    of a loaded measurement only when its deviation is not finite, and every
    command then exits as when it checked every effect: 3, with the same error."""
    pairs = np.array(entries).reshape(-1, 2, 2, 2)
    meas = measurement(pairs[..., 0] + 1j * pairs[..., 1])
    with np.errstate(over="ignore", invalid="ignore"):
        effects_finite = np.isfinite(_gram(meas.elements)).all()
    assert effects_finite or not math.isfinite(meas.deviation)

    folder = tmp_path_factory.mktemp("overflow")
    path = folder / "meas.json"
    path.write_text(serialize.dumps(serialize.measurement_to_json(meas)))
    state = folder / "state.json"
    state.write_text(serialize.dumps(serialize.mat2_to_json(I2 / 2)))
    io_args = ["--measurement", str(path), "--state", str(state)]
    for argv in [
        ["validate", "--measurement", str(path)],
        ["apply", *io_args],
        ["simulate", *io_args, "--seed", "1", "--n", "10"],
        ["boost-observer", *io_args, "--velocity", "0.1,0,0"],
        ["invariants", *io_args],
    ]:
        result = call_quietly(argv)
        with mock.patch.object(cli, "_load_measurement", load_checking_every_effect):
            assert result == call_quietly(argv), argv[0]
        if not effects_finite:
            assert result == (EXIT_DOMAIN, "", "error: an element's effect M†M overflows\n")


def test_boost_observer(proj_z, mixed_state, capsys):
    code, out = run(
        capsys,
        [
            "boost-observer",
            "--measurement", proj_z,
            "--state", mixed_state,
            "--velocity", "0,0,0.5",
        ],
    )
    assert code == EXIT_OK
    doc = serialize.loads(out)
    assert doc["p_bob"] == pytest.approx([0.25, 0.75], abs=1e-12)
    assert doc["sum_p_bob"] == pytest.approx(1, abs=1e-12)


def test_boost_observer_superluminal(proj_z, mixed_state, capsys):
    code = main(
        [
            "boost-observer",
            "--measurement", proj_z,
            "--state", mixed_state,
            "--velocity", "0,0,2",
        ]
    )
    assert code == EXIT_DOMAIN


def test_invariants(proj_z, mixed_state, capsys):
    code, out = run(
        capsys, ["invariants", "--measurement", proj_z, "--state", mixed_state]
    )
    assert code == EXIT_OK
    doc = serialize.loads(out)
    assert doc["state"]["mixedness"] == pytest.approx(1)
    assert all(el["kind"] == "null" for el in doc["elements"])


def test_output_is_round_trip_stable(proj_z, mixed_state, capsys):
    # emit -> parse -> emit must be byte-identical
    for argv in [
        ["validate", "--measurement", proj_z],
        ["apply", "--measurement", proj_z, "--state", mixed_state],
        ["invariants", "--measurement", proj_z, "--state", mixed_state],
        [
            "simulate",
            "--measurement", proj_z,
            "--state", mixed_state,
            "--seed", "9",
            "--n", "50",
        ],
    ]:
        _, out = run(capsys, argv)
        assert serialize.dumps(serialize.loads(out)) == out


def test_serialize_round_trip_values():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.array_equal(serialize.mat2_from_json(serialize.mat2_to_json(m)), m)
    v = rng.normal(size=4)
    assert np.array_equal(serialize.loads(serialize.dumps(v.tolist())), v)


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("args", sorted(GOLDEN.glob("*.args")), ids=lambda p: p.stem)
def test_golden_stdout(args, monkeypatch, capsys):
    """All seven commands print the committed golden stdout byte for byte and
    exit with the code stored beside it; the CI workflow runs the same files in
    a real process. The two simulate_*.out files were written again when the
    sampler became one multinomial draw over the inverse-CDF cells: only their
    tallies moved."""
    monkeypatch.chdir(GOLDEN.parent.parent.parent)
    code, out = run(capsys, args.read_text().split())
    assert code == int(args.with_suffix(".exit").read_text())
    assert out == args.with_suffix(".out").read_text()
