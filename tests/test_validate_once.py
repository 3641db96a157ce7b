"""Each public correspondence entry validates its argument once, at entry;
the layers below take arrays that are already validated. The scenario
engines validate as often for many elements as for few: a measurement is
validated when it is built."""
import importlib
from collections import Counter

import numpy as np
import pytest

from conftest import rand_element, rand_null_element, rand_state
from qubitcone import serialize, sim
from qubitcone.cli import main
from qubitcone.correspond import (
    Measurement,
    apply_element,
    element_to_lorentz,
    lorentz_to_element,
    measurement,
    require_valid,
    validate,
)
from qubitcone.errors import InvalidMeasurement
from qubitcone.lorentz import LorentzDecomposition, pure_boost, spinor_lift
from qubitcone.sim import (
    boosted_probabilities,
    observer_boost,
    outcome_probabilities,
    report_invariants,
    scenario1_sample,
)

VALIDATORS = ("mat2", "mat4", "fourvector", "_vec3")
MODULES = [
    importlib.import_module(f"qubitcone.{name}")
    for name in ("qmat", "conemap", "adjoint", "lorentz", "correspond", "sim", "serialize", "cli")
]


def count_calls(monkeypatch, names, modules=MODULES) -> Counter:
    """Counts calls of the named functions through every binding in modules."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod in modules:
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return calls


@pytest.fixture
def validator_calls(monkeypatch):
    return count_calls(monkeypatch, VALIDATORS)


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


@pytest.mark.parametrize("make", [rand_element, rand_null_element])
def test_forward_map_forms_no_effect(monkeypatch, make):
    """element_to_lorentz reads the effect coordinates off its factorisation:
    it forms M†M (qmat._gram) for neither a timelike nor a null element."""
    m = make(np.random.default_rng(16))
    calls = count_calls(monkeypatch, ["_gram"])
    element_to_lorentz(m)
    assert calls["_gram"] == 0


@pytest.fixture
def chain_calls(monkeypatch):
    """Counts psi, the psi preimage and np.abs, and records the type of the
    first argument of every _unit_det and _factor call."""
    calls = count_calls(monkeypatch, ["_psi", "_preimage"])
    abs_calls = []
    real_abs = np.abs

    def counting_abs(*args, **kwargs):
        abs_calls.append(1)
        return real_abs(*args, **kwargs)

    monkeypatch.setattr(np, "abs", counting_abs)
    arg_types = []
    for mod in MODULES:
        for name in ("_unit_det", "_factor"):
            if hasattr(mod, name):
                fn = getattr(mod, name)

                def recording(a, *args, _fn=fn, **kwargs):
                    arg_types.append(type(a))
                    return _fn(a, *args, **kwargs)

                monkeypatch.setattr(mod, name, recording)

    def reset():
        calls.clear()
        abs_calls.clear()
        arg_types.clear()

    def read():
        return dict(calls), len(abs_calls), set(arg_types)

    return reset, read


@pytest.mark.parametrize("make", [rand_element, rand_null_element])
def test_single_element_chain_is_scalar(chain_calls, make):
    """element_to_lorentz, lorentz_to_element and spinor_lift each form psi once
    and the psi preimage at most once, as four numbers: the lift path calls
    np.abs at most once, and _unit_det and _factor take Python lists."""
    reset, read = chain_calls
    m = make(np.random.default_rng(18))
    reset()
    geom = element_to_lorentz(m)
    calls, n_abs, types = read()
    assert calls == {"_psi": 1} and n_abs <= 1 and types == {list}

    decomp = LorentzDecomposition(rotation=geom.rotation, velocity=geom.velocity, scale=geom.scale)
    reset()
    lorentz_to_element(decomp)
    calls, n_abs, types = read()
    assert calls == {"_psi": 1, "_preimage": 1} and n_abs <= 1 and types == {list}

    if geom.kind == "timelike":
        rb = geom.rotation @ pure_boost(geom.velocity)
        reset()
        spinor_lift(rb)
        calls, n_abs, types = read()
        assert calls == {"_psi": 1, "_preimage": 1} and n_abs <= 1 and types == {list}


OBSERVER = observer_boost([0.1, 0.2, 0.3])
ENGINES = {
    "completeness_deviation": lambda meas, rho: meas.deviation,
    "outcome_probabilities": outcome_probabilities,
    "scenario1_sample": lambda meas, rho: scenario1_sample(meas, rho, seed=5, n=100),
    "boosted_probabilities": lambda meas, rho: boosted_probabilities(meas, rho, OBSERVER),
    "report_invariants": report_invariants,
}


def unitary_mixture(k, rng):
    """k elements sqrt(w_i) U_i with unitaries U_i and weights summing to 1."""
    weights = rng.dirichlet(np.ones(k))
    return [np.sqrt(w) * np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for w in weights]


# Engines that take the state as input validate it, once; the others
# validate nothing.
VALIDATES_STATE = {"outcome_probabilities", "scenario1_sample", "boosted_probabilities", "report_invariants"}


@pytest.mark.parametrize("engine", list(ENGINES))
def test_engines_validate_a_fixed_number_of_times(monkeypatch, engine):
    """qmat._finite, behind every validator, runs as often for K = 16
    elements as for K = 2: the measurement is validated once, when built,
    and the state once."""
    rng = np.random.default_rng(12)
    rho = rand_state(rng)
    counts = []
    for k in (2, 16):
        meas = measurement(unitary_mixture(k, rng))
        calls = count_calls(monkeypatch, ["_finite"])
        ENGINES[engine](meas, rho)
        counts.append(calls["_finite"])
        monkeypatch.undo()
    assert counts == [1 if engine in VALIDATES_STATE else 0] * 2


STATE_ENGINES = {
    **{name: ENGINES[name] for name in sorted(VALIDATES_STATE)},
    "apply_element": lambda meas, rho: apply_element(meas.elements[0], rho),
}


@pytest.mark.parametrize("engine", list(STATE_ENGINES))
@pytest.mark.parametrize("k", [2, 16])
def test_engines_form_the_state_vector_once(monkeypatch, engine, k):
    """An engine validates the state on phi(rho) itself: it forms the Pauli
    coordinates of the state once and never its eigenvalues as a matrix."""
    rng = np.random.default_rng(19)
    rho = rand_state(rng)
    meas = measurement(unitary_mixture(k, rng))
    calls = count_calls(monkeypatch, ["_coords", "_eigenvalues"])
    STATE_ENGINES[engine](meas, rho)
    assert calls == {"_coords": 1}


def test_cli_apply_forms_the_state_vector_once(monkeypatch, tmp_path, capsys):
    meas_path, state_path = tmp_path / "meas.json", tmp_path / "state.json"
    meas_path.write_text(serialize.dumps(serialize.measurement_to_json(measurement(unitary_mixture(3, np.random.default_rng(20))))))
    state_path.write_text(serialize.dumps(serialize.mat2_to_json(np.diag([0.25, 0.75]))))
    calls = count_calls(monkeypatch, ["_coords", "_eigenvalues"])
    assert main(["apply", "--measurement", str(meas_path), "--state", str(state_path)]) == 0
    assert calls == {"_coords": 1}
    assert len(serialize.loads(capsys.readouterr().out)["outcomes"]) == 3


@pytest.mark.parametrize("k", [1, 16])
def test_report_invariants_forms_one_stack(monkeypatch, k):
    """report_invariants forms every Minkowski product in one _minkowski call
    and every information value in one _information call."""
    rng = np.random.default_rng(21)
    rho = rand_state(rng)
    meas = measurement(unitary_mixture(k, rng))
    calls = count_calls(monkeypatch, ["_minkowski", "_information"], modules=[sim])
    report_invariants(meas, rho)
    assert calls == {"_minkowski": 1, "_information": 1}


def test_scenario_outcomes_are_immutable():
    rng = np.random.default_rng(22)
    outcome = scenario1_sample(measurement(unitary_mixture(2, rng)), rand_state(rng), seed=1, n=10)[0]
    for field in ("index", "probability", "tally", "post_vector", "applied_transform"):
        with pytest.raises(AttributeError):
            setattr(outcome, field, 0)


def test_completeness_is_formed_once_per_measurement(monkeypatch):
    """The completeness sum is formed when a measurement is built; validate,
    require_valid and all three engines read the stored deviation."""
    rng = np.random.default_rng(13)
    rho = rand_state(rng)
    calls = count_calls(monkeypatch, ["_completeness"])
    meas = measurement(unitary_mixture(16, rng))
    assert calls["_completeness"] == 1
    for engine in ("completeness_deviation", "scenario1_sample", "boosted_probabilities", "report_invariants"):
        ENGINES[engine](meas, rho)
    assert validate(meas)
    assert calls["_completeness"] == 1


@pytest.mark.parametrize("k", [2, 16])
def test_psi_is_formed_once_per_measurement(monkeypatch, k):
    """The psi(M) stack is formed when a measurement is built, and every
    engine reads it: no engine forms psi again, nor M†M as a 2x2 product."""
    rng = np.random.default_rng(17)
    rho = rand_state(rng)
    calls = count_calls(monkeypatch, ["_psi", "_gram"])
    meas = measurement(unitary_mixture(k, rng))
    for engine in ENGINES.values():
        engine(meas, rho)
    assert calls == {"_psi": 1}


def test_invalid_measurement_error_reads_the_stored_deviation(monkeypatch):
    calls = count_calls(monkeypatch, ["_completeness"])
    meas = measurement([0.9 * np.eye(2)])
    with pytest.raises(InvalidMeasurement, match=f"deviation {meas.deviation} exceeds"):
        require_valid(meas)
    assert calls["_completeness"] == 1


def test_a_directly_built_measurement_has_its_deviation():
    meas = Measurement(elements=np.array([np.eye(2)], dtype=complex))
    assert meas.deviation == 0.0 and validate(meas)


@pytest.mark.parametrize("k", [2, 16])
def test_measurement_from_json_validates_once(monkeypatch, k):
    """A measurement read from JSON is validated in one qmat._finite call,
    not once per element and again for the stack."""
    meas = measurement(unitary_mixture(k, np.random.default_rng(15)))
    doc = serialize.loads(serialize.dumps(serialize.measurement_to_json(meas)))
    calls = count_calls(monkeypatch, ["_finite"])
    read = serialize.measurement_from_json(doc)
    assert calls["_finite"] == 1
    assert np.array_equal(read.elements, meas.elements)


@pytest.mark.parametrize("scale, code", [(1.0, 0), (0.9, 1)])
def test_cli_validate_forms_completeness_once(monkeypatch, tmp_path, capsys, scale, code):
    elements = [scale * m for m in unitary_mixture(3, np.random.default_rng(14))]
    path = tmp_path / "meas.json"
    path.write_text(serialize.dumps(serialize.measurement_to_json(measurement(elements))))
    calls = count_calls(monkeypatch, ["_completeness"])
    assert main(["validate", "--measurement", str(path)]) == code
    assert calls["_completeness"] == 1
    assert serialize.loads(capsys.readouterr().out)["valid"] is (code == 0)
