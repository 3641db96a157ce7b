"""JSON wire formats.

Complex numbers are [re, im] pairs; 2x2 matrices are 2x2 arrays of those;
four-vectors and 4x4 real matrices are plain number arrays. Floats are
written with 17 significant digits so that emit -> parse -> emit is
byte-identical.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str

import numpy as np

from .correspond import EffectGeometry, Measurement, measurement
from .errors import MalformedInput
from .lorentz import NULL, TIMELIKE, Velocity, mat4, velocity
from .qmat import mat2


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


def dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON text with fixed float formatting, in one recursive
    pass; the common float types are told apart by exact type."""
    step = " " * indent

    def write(o, pad: str) -> str:
        if type(o) is float or type(o) is np.float64:
            return _fmt_float(o)
        if isinstance(o, (list, tuple, np.ndarray)):
            inner = pad + step
            body = (",\n" + inner).join([write(v, inner) for v in o])
            return f"[\n{inner}{body}\n{pad}]" if body else "[]"
        if isinstance(o, dict):
            inner = pad + step
            body = (",\n" + inner).join([_quote(str(k)) + ": " + write(v, inner) for k, v in o.items()])
            return f"{{\n{inner}{body}\n{pad}}}" if body else "{}"
        if isinstance(o, str):
            return _quote(o)
        return "null" if o is None else _fmt_number(o)

    return write(obj, "") + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc


def load_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _number(obj, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise MalformedInput(f"{what} must be a number")
    return float(obj)


def complex_to_json(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def complex_from_json(obj) -> complex:
    if not isinstance(obj, list) or len(obj) != 2:
        raise MalformedInput("a complex number must be a [re, im] pair")
    return complex(_number(obj[0], "re"), _number(obj[1], "im"))


def mat2_to_json(m) -> list:
    m = mat2(m)
    return [[complex_to_json(m[i, j]) for j in range(2)] for i in range(2)]


def mat2_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 2 or any(
        not isinstance(row, list) or len(row) != 2 for row in obj
    ):
        raise MalformedInput("a 2x2 matrix must be a 2x2 array of [re, im] pairs")
    return mat2([[complex_from_json(obj[i][j]) for j in range(2)] for i in range(2)])


def fourvector_to_json(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=float)]


def fourvector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 4:
        raise MalformedInput("a four-vector must be an array of 4 numbers")
    return np.array([_number(x, "component") for x in obj])


def mat4_to_json(m) -> list:
    m = mat4(m)
    return [[float(m[i, j]) for j in range(4)] for i in range(4)]


def mat4_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 4 or any(
        not isinstance(row, list) or len(row) != 4 for row in obj
    ):
        raise MalformedInput("a 4x4 matrix must be a 4x4 array of numbers")
    return mat4([[_number(x, "entry") for x in row] for row in obj])


def measurement_to_json(meas: Measurement) -> dict:
    return {"elements": [mat2_to_json(m) for m in meas.elements]}


def measurement_from_json(obj) -> Measurement:
    if not isinstance(obj, dict) or "elements" not in obj:
        raise MalformedInput('a measurement must be {"elements": [...]}')
    elems = obj["elements"]
    if not isinstance(elems, list) or not elems:
        raise MalformedInput("measurement elements must be a non-empty array")
    return measurement([mat2_from_json(e) for e in elems])


def velocity_to_json(vel: Velocity) -> dict:
    return {"v": [float(x) for x in vel.v], "kind": vel.kind}


def velocity_from_json(obj) -> Velocity:
    if not isinstance(obj, dict) or "v" not in obj or "kind" not in obj:
        raise MalformedInput('a velocity must be {"v": [...], "kind": ...}')
    if obj["kind"] not in (TIMELIKE, NULL):
        raise MalformedInput(f"unknown velocity kind {obj['kind']!r}")
    if not isinstance(obj["v"], list) or len(obj["v"]) != 3:
        raise MalformedInput("velocity v must be an array of 3 numbers")
    return velocity([_number(x, "velocity") for x in obj["v"]], kind=obj["kind"])


def effect_geometry_to_json(geom: EffectGeometry) -> dict:
    return {
        "e_vec": fourvector_to_json(geom.e_vec),
        "v_vec": fourvector_to_json(geom.v_vec),
        "velocity": velocity_to_json(geom.velocity),
        "scale": float(geom.scale),
        "rotation": mat4_to_json(geom.rotation),
        "kind": geom.kind,
    }


def effect_geometry_from_json(obj) -> EffectGeometry:
    required = {"e_vec", "v_vec", "velocity", "scale", "rotation", "kind"}
    if not isinstance(obj, dict) or not required.issubset(obj):
        raise MalformedInput(f"effect geometry must have keys {sorted(required)}")
    if obj["kind"] not in (TIMELIKE, NULL):
        raise MalformedInput(f"unknown effect kind {obj['kind']!r}")
    return EffectGeometry(
        e_vec=fourvector_from_json(obj["e_vec"]),
        v_vec=fourvector_from_json(obj["v_vec"]),
        velocity=velocity_from_json(obj["velocity"]),
        scale=_number(obj["scale"], "scale"),
        rotation=mat4_from_json(obj["rotation"]),
        kind=obj["kind"],
    )
