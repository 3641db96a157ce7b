"""The CLI parser is built once, at import, and reused by every main(argv)
call in the process; a call parses with its command's own subparser and reads
as the full parser reads it; option values may start with `-`."""
import numpy as np
import pytest

from qubitcone import cli, serialize
from qubitcone.cli import EXIT_DOMAIN, EXIT_MALFORMED, EXIT_OK, main
from qubitcone.correspond import measurement
from qubitcone.qmat import SIGMA

I2 = np.eye(2, dtype=complex)
PROJ0, PROJ1 = (I2 + SIGMA[3]) / 2, (I2 - SIGMA[3]) / 2


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(serialize.dumps(obj))
    return str(path)


def call(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call; argparse usage
    errors end in SystemExit, as a process would see them."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def files(tmp_path):
    meas = serialize.measurement_to_json(measurement([PROJ0, PROJ1]))
    return {
        "meas": write_json(tmp_path, "meas.json", meas),
        "short": write_json(tmp_path, "short.json", {"elements": meas["elements"][:1]}),
        "state": write_json(tmp_path, "state.json", serialize.mat2_to_json(np.diag([0.7, 0.3]))),
        "elem": write_json(tmp_path, "elem.json", serialize.mat2_to_json(np.diag([0.9, 0.4]))),
    }


def mixed_sequence(f) -> list:
    io = ["--measurement", f["meas"], "--state", f["state"]]
    lorentz = ["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "0.3", "--velocity", "0.1,0.2,0"]
    return [
        ["validate", "--measurement", f["meas"], "--tol", "1e-3"],
        ["validate", "--measurement", f["meas"]],
        lorentz + ["--lambda", "0.5"],
        lorentz,
        ["to-lorentz", "--element", f["elem"]],
        ["apply", "--measurement", f["meas"]],  # usage error: exit 2
        ["apply"] + io,
        ["validate", "--measurement", f["short"]],  # invalid: exit 1
        ["simulate"] + io + ["--seed", "7", "--n", "50"],
        ["boost-observer"] + io + ["--velocity", "0.6,0.6,0.6"],  # domain error: exit 3
        ["boost-observer"] + io + ["--velocity", "0,0,0.5"],
        ["invariants"] + io,
        ["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "0.3", "--velocity", "0.1,0,0", "--lambda", "5"],
        ["simulate"] + io + ["--seed", "7", "--n", "50"],
        ["validate", "--measurement", f["meas"]],
        lorentz,
        ["validate", "--measurement", f["meas"], "--bogus"],  # usage error of the full parser: exit 2
        ["validate", "--measurement", f["meas"]],
    ]


def test_reused_parser_matches_a_fresh_one(files, capsys, monkeypatch):
    """Every call on the shared parser gives the stdout, stderr and exit code
    of the same argv on a freshly built parser."""
    argvs = mixed_sequence(files)
    reused = [call(capsys, argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "PARSER", cli.build_parser())
        fresh.append(call(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 2, 0, 1, 0, 3, 0, 0, 3, 0, 0, 0, 2, 0]


def parser_corpus(f) -> tuple[list, list]:
    """argv for all seven commands: the valid forms, with `--opt -value`,
    `--opt=value` and abbreviated options, and the help requests and usage
    errors of a command's subparser and of the full parser."""
    io = ["--measurement", f["meas"], "--state", f["state"]]
    lorentz = ["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "0.3", "--velocity", "0.1,0,0"]
    valid = [
        ["validate", "--measurement", f["meas"]],
        ["validate", "--measurement=" + f["meas"], "--tol=1e-3"],
        ["validate", "--meas", f["meas"], "--tol", "-1e-3"],
        ["validate", "--tol", "1e-3", "--measurement", f["short"]],
        ["to-lorentz", "--element", f["elem"]],
        ["to-lorentz", "--el=" + f["elem"]],
        lorentz,
        lorentz + ["--lambda", "0.5"],
        lorentz + ["--lam=-1"],
        ["to-element", "--rotation-axis", "-1,0,0", "--rotation-angle", "-1e-3", "--vel", "-0.5,0,0"],
        ["apply", *io],
        ["apply", "--state", f["state"], "--meas", f["meas"]],
        ["simulate", *io, "--seed", "7", "--n", "50"],
        ["simulate", *io, "--seed=-1", "--n", "5"],
        ["boost-observer", *io, "--velocity", "-0.1,0,0"],
        ["boost-observer", *io, "--vel=0.6,0.6,0.6"],
        ["invariants", *io],
        ["invariants", "--st", f["state"], "--measurement", f["meas"]],
    ]
    usage = [
        ["validate", "--measurement", f["meas"], "--bogus"],
        ["validate", "--measurement", f["meas"], "extra"],
        ["invariants", *io, "--bogus", "1"],
        lorentz + ["--lambda", "0.5", "--x=1"],
        ["apply", "--measurement", f["meas"]],
        ["simulate", *io, "--seed", "7"],
        ["to-element", "--rotation-axis", "0,0,1"],
        ["simulate", *io, "--seed", "7", "--n", "abc"],
        ["validate", "--measurement", f["meas"], "--tol", "x"],
        ["to-element", "--rotation", "0,0,1", "--rotation-angle", "0.3", "--velocity", "0,0,0"],
        ["validate", "--measurement"],
        ["validate", "--", "--measurement", f["meas"]],
        ["validate", "--measurement", f["meas"], "--"],
        ["--", "validate", "--measurement", f["meas"]],
        ["-h"],
        ["--help"],
        ["-h", "validate"],
        ["validate", "-h"],
        ["to-element", "--he"],
        ["simulate", *io, "--help"],
        [],
        ["bogus"],
        ["bogus", "--measurement", f["meas"]],
        ["valid", "--measurement", f["meas"]],
        ["--measurement", f["meas"], "validate"],
        ["--tol", "1", "validate", "--measurement", f["meas"]],
    ]
    return valid, usage


def parse_as_the_full_parser(parser, argv):
    """How main parsed every argv before the per-command path: the full parser,
    freshly built."""
    return cli.build_parser().parse_args(argv)


def test_parsing_with_the_command_subparser_matches_the_full_parser(files, capsys, monkeypatch):
    """main gives the exit code, stdout and stderr of the full parser for every
    argv of the corpus, usage errors and help included."""
    valid, usage = parser_corpus(files)
    argvs = valid + usage
    fast = [call(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse", parse_as_the_full_parser)
    assert fast == [call(capsys, argv) for argv in argvs]
    assert {code for code, _, _ in fast} == {0, 1, 2, 3}


def test_a_valid_call_runs_only_its_command_subparser(files, capsys, monkeypatch):
    """The full parser parses only argv whose first word is not a command, or
    that the command's subparser does not take whole."""
    full = []

    def parse_args(argv):
        full.append(argv)
        raise SystemExit(2)

    monkeypatch.setattr(cli.PARSER, "parse_args", parse_args)
    valid, _ = parser_corpus(files)
    for argv in valid:
        call(capsys, argv)
    assert full == []
    for argv in (["validate", "--measurement", files["meas"], "--bogus"], ["-h"], []):
        call(capsys, argv)
    assert len(full) == 3


def test_options_do_not_leak_into_the_next_call(files, capsys):
    _, out, _ = call(capsys, ["validate", "--measurement", files["meas"], "--tol", "1e-3"])
    assert serialize.loads(out)["tol"] == 1e-3
    _, out, _ = call(capsys, ["validate", "--measurement", files["meas"]])
    assert serialize.loads(out)["tol"] == 1e-9

    lorentz = ["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "0", "--velocity", "0,0,0"]
    _, half, _ = call(capsys, lorentz + ["--lambda", "0.5"])
    _, default, _ = call(capsys, lorentz)
    # lambda defaults to lambda_max = sqrt(2) at v = 0, where M(lambda) = lambda I / sqrt(2)
    assert np.allclose(serialize.mat2_from_json(serialize.loads(half)), 0.5 * I2 / np.sqrt(2))
    assert np.allclose(serialize.mat2_from_json(serialize.loads(default)), I2)


TO_ELEMENT = {"--rotation-axis": "0,0,1", "--rotation-angle": "0.3", "--velocity": "0.1,0,0"}
DASH_VALUES = [
    ("to-element", "--velocity", "-0.5,0,0", EXIT_OK),
    ("to-element", "--rotation-axis", "-1,0,0", EXIT_OK),
    ("to-element", "--rotation-angle", "-1e-3", EXIT_OK),
    ("to-element", "--lambda", "-1", EXIT_DOMAIN),
    ("to-element", "--velocity", "-1e-3,0,0", EXIT_OK),
    ("boost-observer", "--velocity", "-0.1,0,0", EXIT_OK),
    ("validate", "--tol", "-1e-3", EXIT_MALFORMED),
    ("simulate", "--seed", "-1", EXIT_MALFORMED),
]


def dash_argv(files, cmd, flag, value, spaced):
    if cmd == "to-element":
        opts = dict(TO_ELEMENT, **{flag: value})
    else:
        io = {"--measurement": files["meas"], "--state": files["state"]}
        base = {
            "boost-observer": dict(io, **{"--velocity": "0,0,0"}),
            "validate": {"--measurement": files["meas"]},
            "simulate": dict(io, **{"--seed": "1", "--n": "10"}),
        }[cmd]
        opts = dict(base, **{flag: value})
    argv = [cmd]
    for key, val in opts.items():
        argv += [key, val] if spaced or key != flag else [f"{key}={val}"]
    return argv


@pytest.mark.parametrize("cmd, flag, value, expect", DASH_VALUES)
def test_a_value_starting_with_a_dash_reads_as_in_the_equals_form(files, capsys, cmd, flag, value, expect):
    spaced = call(capsys, dash_argv(files, cmd, flag, value, spaced=True))
    joined = call(capsys, dash_argv(files, cmd, flag, value, spaced=False))
    assert spaced == joined
    assert spaced[0] == expect


def test_an_abbreviated_option_takes_a_dash_value(capsys):
    full = call(capsys, ["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "0.3", "--velocity", "-0.5,0,0"])
    short = call(capsys, ["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "0.3", "--vel", "-0.5,0,0"])
    assert full == short and full[0] == EXIT_OK


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["--velocity", "-0.5,0,0"], ["--velocity=-0.5,0,0"]),
        (["--velocity=-0.5,0,0", "-1"], ["--velocity=-0.5,0,0", "-1"]),
        (["--velocity", "--lambda", "-1"], ["--velocity", "--lambda=-1"]),
        (["--", "-1"], ["--", "-1"]),
        (["--help", "-1"], ["--help", "-1"]),
        (["-h", "-1"], ["-h", "-1"]),
        (["to-element", "-0.5"], ["to-element", "-0.5"]),
    ],
)
def test_attach_dash_values(argv, expect):
    assert cli._attach_dash_values(argv) == expect


def test_unit_velocity_reads_as_null(capsys):
    v = np.random.default_rng(3).normal(size=(30, 3))
    for u in v / np.linalg.norm(v, axis=1, keepdims=True):
        velocity = ",".join(map(str, u.tolist()))
        code, out, err = call(
            capsys, ["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "0.3", "--velocity", velocity]
        )
        assert (code, err) == (EXIT_OK, "")
        m = serialize.mat2_from_json(serialize.loads(out))
        assert abs(np.linalg.det(m)) <= 1e-12  # a null element has rank 1

