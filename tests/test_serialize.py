"""serialize.dumps against the straightforward writer it replaced, kept here
as an oracle: the wire format is unchanged byte for byte."""
import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
