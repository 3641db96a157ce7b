"""The CLI's exit-code contract for any input, checked in-process over all
seven commands: main returns 0, 1, 2 or 3; argparse's SystemExit(2) is the
only exception that escapes; a failing command writes an `error:` line and
no output; nothing is warned. Inputs are files with entries of ±1e308,
integers beyond float range, booleans, strings, null, NaN, ragged and
wrongly shaped lists, no elements and deep nesting, and option values
nan, inf and 1e300."""
import contextlib
import io
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitcone.cli import main


def pairs(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


STATE = pairs(np.eye(2) / 2)
MEASUREMENT = {"elements": [pairs(np.eye(2) / np.sqrt(2))] * 2}

BAD_LEAVES = [1e308, -1e308, 10**400, -(10**400), True, None, "1", "x", float("nan"), float("inf"), [], [1, 0], {}]


def with_leaf(doc, index, leaf):
    doc = json.loads(json.dumps(doc))
    row = doc
    for i in index[:-1]:
        row = row[i]
    row[index[-1]] = leaf
    return doc


MATRICES = [with_leaf(STATE, index, leaf) for leaf in BAD_LEAVES for index in [(0, 0, 0), (1, 1, 1)]] + [
    [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],  # ragged
    [[1, 0], [0, 1]],  # numbers, not pairs
    [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]],  # triples
    [[[1, 0], [0, 0], [0, 0]]] * 3,  # 3x3
    [], [[]], [[[]]], {}, None, "x", 1, True,
    pairs(np.diag([1e308, 1e308])),
    pairs(np.diag([1e200, 1e-200])),
    pairs(np.array([[0, 1e308], [1e308, 0]])),
    pairs(np.diag([1e-320, 5e-324])),
    pairs(np.diag([-1.0, 2.0])),
    pairs(np.zeros((2, 2))),
]
MEASUREMENTS = [{"elements": [MEASUREMENT["elements"][0], m]} for m in MATRICES] + [
    {"elements": []},
    {"elements": None},
    {"elements": STATE},
    {"elements": [STATE, [STATE]]},
    {"elements": [pairs(np.diag([9e153, 0]))] * 3},  # finite effects, overflowing sum
    {"element": [STATE]},
    {},
    [],
]
DEEP = "[" * 100_000 + "]" * 100_000
NUMBERS = ["nan", "inf", "-inf", "1e300", "-1e300"]
VECTORS = ["nan,0,0", "0,inf,0", "0,0,-inf", "1e300,0,0", "1e300,1e300,1e300", "-1e300,0,1e300"]


def call(argv) -> None:
    """Run one command and check the contract."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            assert exc.code == 2, argv
            code = None
    out, err = stdout.getvalue(), stderr.getvalue()
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code is None:
        return
    assert code in (0, 1, 2, 3), argv
    if code == 0 or (code == 1 and argv[0] == "validate"):
        json.loads(out)
    else:
        assert out == "" and err.startswith("error: "), (argv, code, out, err)


@pytest.fixture
def write(tmp_path):
    count = itertools.count()

    def write(doc=None, text=None, data=None):
        path = tmp_path / f"in{next(count)}.json"
        if data is not None:
            path.write_bytes(data)
        else:
            path.write_text(json.dumps(doc) if text is None else text)
        return str(path)

    return write


def unreadable(write) -> list:
    return [write(text=DEEP), write(text="{not json"), write(data=b"\xff\xfe\x00"), write(text="")]


def commands(meas, state) -> list:
    files = ["--measurement", meas, "--state", state]
    return [
        ["validate", "--measurement", meas],
        ["apply", *files],
        ["simulate", *files, "--seed", "1", "--n", "10"],
        ["boost-observer", *files, "--velocity", "0.1,0,0"],
        ["invariants", *files],
    ]


def test_malformed_measurement_files(write):
    state = write(STATE)
    for meas in [write(doc) for doc in MEASUREMENTS] + unreadable(write):
        for argv in commands(meas, state):
            call(argv)


def test_malformed_state_and_element_files(write):
    meas = write(MEASUREMENT)
    for path in [write(doc) for doc in MATRICES] + unreadable(write):
        call(["to-lorentz", "--element", path])
        for argv in commands(meas, path)[1:]:
            call(argv)


def option_values(meas, state) -> list:
    """Commands with each of NUMBERS or VECTORS in turn as the value of one option,
    the other options good (tools/compare_src.py runs them too)."""
    argvs = [["validate", "--measurement", meas, "--tol", tol] for tol in NUMBERS]
    good = {"--rotation-axis": "0,0,1", "--rotation-angle": "0.5", "--velocity": "0.1,0.2,0.3", "--lambda": "0.5"}
    for option, values in [
        ("--rotation-axis", VECTORS),
        ("--rotation-angle", NUMBERS),
        ("--velocity", VECTORS),
        ("--lambda", NUMBERS),
    ]:
        for value in values:
            options = {**good, option: value}
            argvs.append(["to-element", *[x for item in options.items() for x in item]])
    return argvs + [["boost-observer", "--measurement", meas, "--state", state, "--velocity", value]
                    for value in VECTORS]


def test_out_of_range_option_values(write):
    for argv in option_values(write(MEASUREMENT), write(STATE)):
        call(argv)


leaves = (
    st.floats()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.booleans()
    | st.none()
    | st.text(max_size=2)
    | st.sampled_from([1e308, -1e308, 1e154, 5e-324])
)
json_docs = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=12
)
matrices = st.lists(st.lists(st.lists(leaves, min_size=2, max_size=2), min_size=2, max_size=2), min_size=2, max_size=2)
measurements = st.builds(lambda elements: {"elements": elements}, st.lists(matrices, max_size=3))


@settings(max_examples=150, deadline=None)
@given(measurements | json_docs, matrices | json_docs)
def test_random_json_files(tmp_path_factory, meas_doc, matrix_doc):
    tmp = tmp_path_factory.mktemp("fuzz")
    meas, matrix = tmp / "meas.json", tmp / "matrix.json"
    meas.write_text(json.dumps(meas_doc))
    matrix.write_text(json.dumps(matrix_doc))
    call(["to-lorentz", "--element", str(matrix)])
    for argv in commands(str(meas), str(matrix)):
        call(argv)
