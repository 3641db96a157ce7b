"""The one leaf rule of the package's input (qmat._number): a leaf is an int,
float or complex, as a Python or numpy scalar, and never a bool, str, None or
other object; an array needs dtype kind i, u, f or c. The library validators
behind every entry (qmat._finite and qmat._entries) and the CLI's JSON reader
(serialize._walk) read it alike, so a library entry raises MalformedInput on
exactly the leaves that the reader rejects. A Measurement built directly is
one more entry: it checks itself, as measurement() does."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_cli_fuzz import leaves
from qubitcone.conemap import fourvector
from qubitcone.correspond import Measurement, element_to_lorentz, measurement, validate
from qubitcone.errors import DomainError, MalformedInput, TooLarge
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


def built(elements) -> Measurement:
    """The record built directly, by keyword, with no measurement() call."""
    return Measurement(elements=elements)


# entry name -> (entry, leaf count, nested form of that many leaves, its shape)
ENTRIES = {
    "mat2": (mat2, 4, lambda flat: nest(flat, (2, 2)), (2, 2)),
    "herm2": (herm2, 3, hermitian, (2, 2)),
    "element_to_lorentz": (element_to_lorentz, 4, lambda flat: nest(flat, (2, 2)), (2, 2)),
    "classify": (classify, 16, lambda flat: nest(flat, (4, 4)), (4, 4)),
    "measurement": (measurement, 8, lambda flat: nest(flat, (2, 2, 2)), (2, 2, 2)),
    "Measurement": (built, 8, lambda flat: nest(flat, (2, 2, 2)), (2, 2, 2)),
    "fourvector": (fourvector, 4, lambda flat: flat, (4,)),
    "velocity": (velocity, 3, lambda flat: flat, (3,)),
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
    lambda name: st.tuples(st.just(name), st.lists(any_leaves, min_size=ENTRIES[name][1], max_size=ENTRIES[name][1])))


@settings(max_examples=300, deadline=None)
@given(calls)
@example(("mat2", [0.5, 0, 0, True]))
@example(("element_to_lorentz", ["0.5", 0, 0, True]))
@example(("classify", [1.0] * 14 + ["1", True]))
@example(("velocity", [np.bool_(True), 0, 0]))
@example(("fourvector", [None, 0, 0, 0]))
@example(("measurement", [np.float32(0.5), np.int64(0)] * 4))
@example(("Measurement", [True, 0, 0, "1"] * 2))
def test_library_and_reader_reject_the_same_leaves(call):
    """Over nested lists of the CLI fuzz corpus's leaves and numpy scalars, each
    library entry raises MalformedInput exactly when serialize._walk does on the
    same leaves written as JSON."""
    name, flat = call
    fn, _, form, shape = ENTRIES[name]
    doc = form(flat)
    assert raises_malformed(fn, doc) == raises_malformed(_walk, as_json(doc), shape, "x"), (name, doc)


@pytest.mark.parametrize("name", list(ENTRIES))
@pytest.mark.parametrize("dtype", [bool, str, object])
def test_arrays_of_bool_str_and_object_dtype_are_rejected(name, dtype):
    """Whatever numpy could make of them: bool and str arrays are what the reader
    rejects as JSON true and "1"; an object array is rejected even when it holds numbers."""
    fn, count, form, shape = ENTRIES[name]
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


@pytest.mark.parametrize("name", list(ENTRIES))
def test_float32_int_arrays_and_lists_of_arrays_are_taken_bit_for_bit(name):
    """float32 and int arrays, and a list of arrays (as bench/povm.py passes a
    measurement), give the bits of the same numbers as float64 arrays."""
    fn, count, form, _ = ENTRIES[name]
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


def raised(fn, arg) -> tuple:
    """The type and message of the exception fn(arg) raises, or None."""
    try:
        fn(arg)
    except Exception as exc:  # compared as type and message
        return type(exc), str(exc)
    return None


ROW = [[0.5, 0], [0, 0.5]]
# input -> the error that both ways of building a measurement raise on it
BAD_MEASUREMENTS = {
    "one 2x2 array": (np.eye(2), MalformedInput),
    "one 2x2 list": (ROW, MalformedInput),
    "an empty list": ([], MalformedInput),
    "an empty stack": (np.zeros((0, 2, 2)), MalformedInput),
    "a 2x3 element": ([[[1, 0, 0], [0, 1, 0]]], MalformedInput),
    "ragged": ([ROW, [[0.5, 0]]], MalformedInput),
    "bool and str leaves": ([[[True, 0], [0, "1"]]], MalformedInput),
    "NaN": ([ROW, [[math.nan, 0], [0, 0.5]]], MalformedInput),
    "inf": (np.array([[[math.inf, 0], [0, 1]]]), MalformedInput),
    "-inf and NaN": ([[[-math.inf, 0], [0, math.nan]]], MalformedInput),
    "complex inf": (np.array([[[complex(0, math.inf), 0], [0, 1]]]), MalformedInput),
    "an overflowing effect": ([[[1e200, 0], [0, 0]]], TooLarge),
    "an overflowing effect and NaN": ([[[1e200, 0], [0, 0]], [[math.nan, 0], [0, 0]]], MalformedInput),
    "a complex element with an overflowing effect": (np.array([[[1e155, 1e155j], [1e155j, 1e155]]]), TooLarge),
}


@pytest.mark.parametrize("case", list(BAD_MEASUREMENTS))
def test_a_directly_built_measurement_raises_as_measurement_does(case):
    """On each bad input, Measurement(elements=x) and measurement(x) raise the same
    type and message: the leaf rule and shape first, then a non-finite entry
    (MalformedInput), then an overflowing effect (TooLarge)."""
    x, error = BAD_MEASUREMENTS[case]
    got = raised(built, x)
    assert got is not None and got[0] is error, got
    assert raised(measurement, x) == got


def test_finite_effects_whose_sum_overflows_are_kept():
    """Each effect finite, their sum not: the record is built, with an infinite deviation."""
    meas = Measurement(elements=[[[9e153, 0], [0, 0]]] * 3)
    assert meas.deviation == math.inf and not validate(meas)


@pytest.mark.parametrize("kind", ["list of complex arrays", "float32", "int", "complex"])
def test_both_ways_of_building_a_measurement_give_the_same_bits(kind):
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    x = {"list of complex arrays": list(stack), "float32": stack.real.astype(np.float32),
         "int": rng.integers(-2, 3, size=(3, 2, 2)), "complex": stack}[kind]
    assert bits(Measurement(elements=x)) == bits(measurement(x))
