"""JSON wire formats.

Complex numbers are [re, im] pairs; 2x2 matrices are 2x2 arrays of those,
and a measurement is {"elements": [...]} of them. Real arrays are plain
number arrays. Floats are written with 17 significant digits so that
emit -> parse -> emit is byte-identical. The CLI reads only 2x2 matrices
and measurements; both are validated once, by _pairs_from_json.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str

import numpy as np

from .correspond import EffectGeometry, Measurement
from .errors import MalformedInput
from .lorentz import Velocity
from .qmat import _finite


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite numbers")
    return format(x, ".17g") if x else "0"  # -0.0 as 0, so emit -> parse -> emit is stable


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _fmt_float(float(x))
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text with a two-space indent and fixed float formatting,
    in one recursive pass; the common float types are told apart by exact type."""

    def write(o, pad: str) -> str:
        if type(o) is float or type(o) is np.float64:
            return _fmt_float(o)
        if isinstance(o, (list, tuple, np.ndarray)):
            inner = pad + "  "
            body = (",\n" + inner).join([write(v, inner) for v in o])
            return f"[\n{inner}{body}\n{pad}]" if body else "[]"
        if isinstance(o, dict):
            inner = pad + "  "
            body = (",\n" + inner).join([_quote(str(k)) + ": " + write(v, inner) for k, v in o.items()])
            return f"{{\n{inner}{body}\n{pad}}}" if body else "{}"
        if isinstance(o, str):
            return _quote(o)
        return "null" if o is None else _fmt_number(o)

    return write(obj, "") + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise MalformedInput(f"invalid JSON: {exc}") from exc


def load_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from exc


def _pairs_from_json(obj, shape: tuple, what: str) -> np.ndarray:
    """The complex array of the given shape (None: any count > 0) written as
    nested [re, im] pairs of JSON numbers, validated in one pass. true and
    "1" are malformed although numpy would read them as 1.0; the complex
    view keeps every bit of the pairs, signed zeros included."""
    pairs = _finite(obj, shape + (2,), float, what)
    leaves = obj
    for _ in shape:
        leaves = [x for sub in leaves for x in sub]
    if not all(type(x) in (int, float) for x in leaves):
        raise MalformedInput(f"{what} entries must be JSON numbers")
    return pairs.view(complex)[..., 0]


def mat2_to_json(m) -> list:
    """[re, im] pairs of a 2x2 matrix, or of each matrix of a (K, 2, 2) stack."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def mat2_from_json(obj) -> np.ndarray:
    return _pairs_from_json(obj, (2, 2), "2x2 matrix of [re, im] pairs")


def measurement_to_json(meas: Measurement) -> dict:
    return {"elements": mat2_to_json(meas.elements)}


def measurement_from_json(obj) -> Measurement:
    if not isinstance(obj, dict) or "elements" not in obj:
        raise MalformedInput('a measurement must be {"elements": [...]}')
    elements = _pairs_from_json(obj["elements"], (None, 2, 2), "non-empty array of 2x2 matrices")
    return Measurement(elements=elements)


def velocity_to_json(vel: Velocity) -> dict:
    return {"v": vel.v.tolist(), "kind": vel.kind}


def effect_geometry_to_json(geom: EffectGeometry) -> dict:
    return {
        "e_vec": geom.e_vec.tolist(),
        "v_vec": geom.v_vec.tolist(),
        "velocity": velocity_to_json(geom.velocity),
        "scale": float(geom.scale),
        "rotation": geom.rotation.tolist(),
        "kind": geom.kind,
    }
