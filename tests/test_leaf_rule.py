"""The one leaf rule of the package's input (qmat._number): a leaf is an int,
float or complex, as a Python or numpy scalar, and never a bool, str, None or
other object; an array needs dtype kind i, u, f or c. The library validators
behind every entry (qmat._finite and qmat._entries) and the CLI's JSON reader
(serialize._walk) read it alike, so a library entry raises MalformedInput on
exactly the leaves that the reader rejects."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_cli_fuzz import leaves
from qubitcone.conemap import fourvector
from qubitcone.correspond import element_to_lorentz, measurement
from qubitcone.errors import DomainError, MalformedInput
from qubitcone.lorentz import classify, velocity
from qubitcone.qmat import herm2, mat2
from qubitcone.serialize import _walk


def nest(flat: list, shape: tuple) -> list:
    """flat as nested lists of the given shape, in row-major order."""
    for n in reversed(shape[1:]):
        flat = [flat[i:i + n] for i in range(0, len(flat), n)]
    return flat


def hermitian(flat: list) -> list:
    """[[a, b], [b, c]] of three leaves: hermitian whenever they are finite numbers."""
    a, b, c = flat
    return [[a, b], [b, c]]


# entry -> (leaf count, nested form of that many leaves, its shape)
ENTRIES = {
    mat2: (4, lambda flat: nest(flat, (2, 2)), (2, 2)),
    herm2: (3, hermitian, (2, 2)),
    element_to_lorentz: (4, lambda flat: nest(flat, (2, 2)), (2, 2)),
    classify: (16, lambda flat: nest(flat, (4, 4)), (4, 4)),
    measurement: (8, lambda flat: nest(flat, (2, 2, 2)), (2, 2, 2)),
    fourvector: (4, lambda flat: flat, (4,)),
    velocity: (3, lambda flat: flat, (3,)),
}

# the leaves of the CLI fuzz corpus, and numpy scalars beside them
numpy_leaves = (
    st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
any_leaves = leaves | numpy_leaves


def as_json(doc):
    """doc written as JSON and read back, numpy scalars as the Python values they write."""
    return json.loads(json.dumps(doc, default=lambda x: x.item()))


def raises_malformed(fn, *args) -> bool:
    """True when fn raises MalformedInput; a DomainError (zero, overflow, superluminal)
    is well-formed input that the map rejects, and any other exception fails."""
    try:
        fn(*args)
    except MalformedInput:
        return True
    except DomainError:
        pass
    return False


calls = st.sampled_from(list(ENTRIES)).flatmap(
    lambda fn: st.tuples(st.just(fn), st.lists(any_leaves, min_size=ENTRIES[fn][0], max_size=ENTRIES[fn][0])))


@settings(max_examples=300, deadline=None)
@given(calls)
@example((mat2, [0.5, 0, 0, True]))
@example((element_to_lorentz, ["0.5", 0, 0, True]))
@example((classify, [1.0] * 14 + ["1", True]))
@example((velocity, [np.bool_(True), 0, 0]))
@example((fourvector, [None, 0, 0, 0]))
@example((measurement, [np.float32(0.5), np.int64(0)] * 4))
def test_library_and_reader_reject_the_same_leaves(call):
    """Over nested lists of the CLI fuzz corpus's leaves and numpy scalars, each
    library entry raises MalformedInput exactly when serialize._walk does on the
    same leaves written as JSON."""
    fn, flat = call
    _, form, shape = ENTRIES[fn]
    doc = form(flat)
    assert raises_malformed(fn, doc) == raises_malformed(_walk, as_json(doc), shape, "x"), (fn.__name__, doc)


@pytest.mark.parametrize("fn", list(ENTRIES), ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("dtype", [bool, str, object])
def test_arrays_of_bool_str_and_object_dtype_are_rejected(fn, dtype):
    """Whatever numpy could make of them: bool and str arrays are what the reader
    rejects as JSON true and "1"; an object array is rejected even when it holds numbers."""
    count, form, shape = ENTRIES[fn]
    arr = np.array(form([1] + [0] * (count - 1)), dtype=dtype)
    with pytest.raises(MalformedInput):
        fn(arr)
    if dtype is not object:
        with pytest.raises(MalformedInput):
            _walk(as_json(arr.tolist()), shape, "x")


def bits(out) -> list:
    """A result as the bytes of its arrays and the reprs of everything else."""
    if dataclasses.is_dataclass(out):
        return [b for f in dataclasses.fields(out) for b in bits(getattr(out, f.name))]
    return [out.tobytes()] if isinstance(out, np.ndarray) else [repr(out)]


def result(fn, arg) -> list:
    """bits of fn(arg), or the type and message of the DomainError it raises."""
    try:
        return bits(fn(arg))
    except DomainError as exc:
        return [type(exc), str(exc)]


@pytest.mark.parametrize("fn", list(ENTRIES), ids=lambda fn: fn.__name__)
def test_float32_int_arrays_and_lists_of_arrays_are_taken_bit_for_bit(fn):
    """float32 and int arrays, and a list of arrays (as bench/povm.py passes a
    measurement), give the bits of the same numbers as float64 arrays."""
    count, form, _ = ENTRIES[fn]
    rng = np.random.default_rng(count)
    floats = np.array(form((rng.normal(size=count) * 0.4).tolist()))
    ints = np.array(form(rng.integers(-1, 2, size=count).tolist()))
    ints.flat[0] = 1  # not the zero element
    for arr in (floats.astype(np.float32), ints, np.abs(ints).astype(np.uint8)):
        want = result(fn, arr.astype(float))
        assert result(fn, arr) == want
        if arr.ndim == 3:
            assert result(fn, list(arr)) == want


def test_a_list_of_complex_arrays_is_one_measurement_bit_for_bit():
    rng = np.random.default_rng(3)
    elements = list(np.linalg.qr(rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))[0])
    assert measurement(elements).elements.tobytes() == np.array(elements).tobytes()
    assert math.isfinite(measurement(elements).deviation)
