"""serialize against the code it replaced, kept here as oracles: dumps against
the straightforward writer (the wire format is unchanged byte for byte), the
JSON reader against the numpy reader, and load_file against a text-mode read."""
import copy
import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitcone import serialize
from qubitcone.errors import MalformedInput
from qubitcone.qmat import _finite
from qubitcone.serialize import dumps


def oracle_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite numbers")
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def oracle_dumps(obj, indent: int = 2) -> str:
    def write(o, depth):
        pad = " " * (indent * depth)
        pad_in = " " * (indent * (depth + 1))
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (bool, int, float, np.integer, np.floating)):
            return oracle_number(o)
        if isinstance(o, (list, tuple, np.ndarray)):
            items = list(o)
            if not items:
                return "[]"
            body = ",\n".join(pad_in + write(v, depth + 1) for v in items)
            return "[\n" + body + "\n" + pad + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            body = ",\n".join(pad_in + json.dumps(str(k)) + ": " + write(v, depth + 1) for k, v in o.items())
            return "{\n" + body + "\n" + pad + "}"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return write(obj, 0) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308, 0.1, 1 / 3]
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
leaves = st.one_of(
    floats,
    floats.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.text() | st.sampled_from(['"', "\\", 'say "hi"', "ψ⁻¹ – Ω", "\n\t", "😀", ""]),
)
arrays = st.lists(floats, max_size=6).map(lambda xs: np.array(xs, dtype=float)) | st.lists(
    st.lists(floats, min_size=2, max_size=2), max_size=3
).map(lambda rows: np.array(rows, dtype=float).reshape(-1, 2))
documents = st.recursive(
    leaves | arrays,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4).map(OrderedDict),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_dumps_equals_the_previous_writer(doc):
    assert dumps(doc) == oracle_dumps(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("inf")])
def test_non_finite_numbers_raise_value_error(bad):
    for doc in (bad, [1.0, bad], {"a": [bad]}, np.array([0.0, float(bad)])):
        with pytest.raises(ValueError):
            oracle_dumps(doc)
        with pytest.raises(ValueError, match="non-finite"):
            dumps(doc)


@pytest.mark.parametrize("bad", [np.bool_(True), 1j, np.complex128(1), {1, 2}, object(), b"x", np.array(1.0)])
def test_unknown_types_raise_type_error(bad):
    for doc in (bad, [bad], {"a": bad}):
        with pytest.raises(TypeError):
            oracle_dumps(doc)
        with pytest.raises(TypeError):
            dumps(doc)


# lists of floats alone, and floats beside the other leaves
float_lists = st.lists(floats, min_size=1, max_size=20)
mixed_lists = st.lists(floats | leaves, min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.lists(float_lists | mixed_lists, max_size=4) | float_lists)
def test_dumps_of_float_lists_equals_the_previous_writer(doc):
    """-0.0 is written 0, np.float64, ints, bools and None beside floats as before."""
    assert dumps(doc) == oracle_dumps(doc)
    assert dumps({"a": doc}) == oracle_dumps({"a": doc})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_float_in_a_float_list_raises(bad):
    for doc in ([bad], [0.5, -0.0, bad, 1e-300], [[1.0, 2.0], [bad, 3.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            dumps(doc)


def previous_pairs_from_json(obj, shape, what):
    """The numpy reader that serialize._walk replaced: qmat._finite on the nested
    lists as numpy reads them, true, "1" and null as 1.0, 1.0 and nan, then a pass
    over the leaves for their JSON types."""
    try:
        read = np.asarray(obj, float)  # qmat._finite itself now rejects such leaves first
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"expected a {what}: {exc}") from exc
    pairs = _finite(read, shape + (2,), float, what)
    leaves = obj
    for _ in shape:
        leaves = [x for sub in leaves for x in sub]
    if not all(type(x) in (int, float) for x in leaves):
        raise MalformedInput(f"{what} entries must be JSON numbers")
    return pairs.view(complex)[..., 0]


def read(reader, obj, shape):
    """A reader's result as its shape and bits, or its MalformedInput message."""
    try:
        out = reader(obj, shape, "x")
    except MalformedInput as exc:
        return "raised", str(exc)
    return out.shape, out.tobytes()


NEAR_MAX = [1.7976931348623157e308, -1.7976931348623157e308, 1.79e308, 2**1023, int(1.79e308)]
json_numbers = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310] + NEAR_MAX)
    | st.integers(-(2**80), 2**80)
    | st.integers(0, 2**1030)  # some beyond float range
)
BAD_LEAVES = [True, False, None, "1", "abc", "nan", math.nan, math.inf, -math.inf, 10**400, -(10**400), {}]


@st.composite
def measurement_docs(draw):
    """K = 1..16 elements of [re, im] pairs as json.loads returns them, with at
    most one fault: a leaf that is no finite JSON number, a list nested too
    deep, or a list one item short or long at some depth."""
    k = draw(st.integers(1, 16))
    flat = iter(draw(st.lists(json_numbers, min_size=8 * k, max_size=8 * k)))
    doc = [[[[next(flat), next(flat)] for _ in range(2)] for _ in range(2)] for _ in range(k)]
    fault = draw(st.sampled_from(["none", "none", "leaf", "deep", "short", "long"]))
    i, r, c, p = draw(st.integers(0, k - 1)), draw(st.integers(0, 1)), draw(st.integers(0, 1)), draw(st.integers(0, 1))
    if fault == "leaf":
        doc[i][r][c][p] = draw(st.sampled_from(BAD_LEAVES))
    elif fault == "deep":
        doc[i][r][c][p] = [doc[i][r][c][p]]
    elif fault != "none":
        target = draw(st.sampled_from([doc, doc[i], doc[i][r], doc[i][r][c]]))
        target.pop() if fault == "short" else target.append(copy.deepcopy(target[-1]))
    return fault, doc


@settings(max_examples=200, deadline=None)
@given(measurement_docs())
@example(("short", []))
def test_reader_agrees_with_the_numpy_reader(fault_doc):
    """serialize._pairs_from_json accepts exactly what the numpy reader did, with
    the same bits (signed zeros, subnormals, ints and values near 1.8e308
    included), and rejects with the same message unless the nesting is wrong."""
    fault, doc = fault_doc
    for shape, obj in (((None, 2, 2), doc), ((2, 2), doc[0] if doc else doc)):  # a short K = 1 leaves []
        want = read(previous_pairs_from_json, obj, shape)
        got = read(serialize._pairs_from_json, obj, shape)
        if want[0] == "raised" and fault in ("short", "long", "deep"):
            assert got[0] == "raised"
        else:
            assert got == want


@pytest.mark.parametrize("bad", BAD_LEAVES + [[0.0], [[0.0, 1.0]]])
def test_reader_rejects_each_bad_leaf_as_the_numpy_reader_did(bad):
    """Each leaf that is no finite JSON number, at every position: rejected, with
    the numpy reader's message where the nesting is right."""
    def element():
        return [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]

    for shape, count in (((2, 2), 1), ((None, 2, 2), 2)):
        for position in range(8 * count):
            elements = [element() for _ in range(count)]
            elements[position // 8][position // 4 % 2][position // 2 % 2][position % 2] = bad
            doc = elements if shape[0] is None else elements[0]
            want = read(previous_pairs_from_json, doc, shape)
            got = read(serialize._pairs_from_json, doc, shape)
            assert got[0] == want[0] == "raised"
            if type(bad) is not list:
                assert got == want


def previous_load_file(path):
    """The text-mode reader that serialize.load_file replaced."""
    try:
        with open(path, encoding="utf-8") as fh:
            return serialize.loads(fh.read())
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from exc


FRAGMENTS = [b"[", b"]", b"1", b"-0.5", b",", b" ", b"\r", b"\n", b"\r\n", b'"', b"a", b"\x01", b"\xff",
             b"\xe2\x82", b"\xe2\x82\xac", b"\xef\xbb\xbf", b'{"elements": ', b"}"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=20).map(b"".join))
def test_load_file_reads_as_text_mode_does(tmp_path_factory, data):
    """Bytes decoded as UTF-8 with \\r\\n and \\r read as \\n: the same value, or the
    same error message (positions in it included), as a text-mode read."""
    path = tmp_path_factory.mktemp("load") / "in.json"
    path.write_bytes(data)
    outcomes = []
    for reader in (previous_load_file, serialize.load_file):
        try:
            outcomes.append(("ok", reader(str(path))))
        except MalformedInput as exc:
            outcomes.append(("raised", str(exc)))
    assert outcomes[0] == outcomes[1]
