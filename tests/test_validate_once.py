"""Each public correspondence entry validates its argument once, at entry;
the layers below take arrays that are already validated."""
import importlib
from collections import Counter

import numpy as np
import pytest

from conftest import rand_element, rand_null_element
from qubitcone.correspond import element_to_lorentz, lorentz_to_element
from qubitcone.lorentz import LorentzDecomposition, pure_boost, spinor_lift

VALIDATORS = ("mat2", "mat4", "fourvector", "_vec3")
# by import path: the package namespace binds the name adjoint to a function
MODULES = [
    importlib.import_module(f"qubitcone.{name}")
    for name in ("qmat", "conemap", "adjoint", "lorentz", "correspond", "sim", "serialize", "cli")
]


@pytest.fixture
def validator_calls(monkeypatch):
    """Counts calls of the input validators through every module binding."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod in MODULES:
        for name in VALIDATORS:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return calls


@pytest.mark.parametrize("make", [rand_element, rand_null_element])
def test_correspondence_validates_once(validator_calls, make):
    m = make(np.random.default_rng(11))
    validator_calls.clear()
    geom = element_to_lorentz(m)
    assert validator_calls == {"mat2": 1}

    decomp = LorentzDecomposition(rotation=geom.rotation, velocity=geom.velocity, scale=geom.scale)
    validator_calls.clear()
    lorentz_to_element(decomp)
    assert validator_calls == {"mat4": 1}

    if geom.kind == "timelike":
        rb = geom.rotation @ pure_boost(geom.velocity)
        validator_calls.clear()
        spinor_lift(rb)
        assert validator_calls == {"mat4": 1}
