"""Each public correspondence entry validates its argument once, at entry;
the layers below take arrays or entry lists that are already validated. The scenario
engines validate as often for many elements as for few: a measurement is
validated when it is built."""
import importlib
from collections import Counter

import numpy as np
import pytest

from conftest import rand_element, rand_null_element, rand_state
from qubitcone import serialize, sim
from qubitcone.cli import main
from qubitcone.adjoint import psi, psi_of_sqrt
from qubitcone.conemap import cone_membership, eta_conjugate
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
from qubitcone.lorentz import (
    LorentzDecomposition,
    classify,
    decompose,
    pure_boost,
    rotation_axis_angle,
    spinor_lift,
)
from qubitcone.qmat import polar_decompose
from qubitcone.sim import (
    boosted_probabilities,
    observer_boost,
    report_invariants,
    scenario1_sample,
)

# every validator of the package (mat2, fourvector, _vec3, ...) ends in one of these
VALIDATORS = ("_finite", "_entries")
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
    """Every scalar-chain entry validates its input exactly once, into a list of
    entries by qmat._entries, with no array validation before it; rotation_axis_angle
    validates its 3x3 and not diag(1, R) again."""
    m = make(np.random.default_rng(11))
    geom = element_to_lorentz(m)
    decomp = LorentzDecomposition(rotation=geom.rotation, velocity=geom.velocity, scale=geom.scale)
    # a restricted transform for a timelike element, a rescaled null-boost product else
    L = geom.rotation @ pure_boost(geom.velocity) if geom.kind == "timelike" else psi(m)
    entries = {
        "element_to_lorentz": lambda: element_to_lorentz(m),
        "polar_decompose": lambda: polar_decompose(m),
        "lorentz_to_element": lambda: lorentz_to_element(decomp),
        "decompose": lambda: decompose(L),
        "classify": lambda: classify(L),
        "rotation_axis_angle": lambda: rotation_axis_angle(geom.rotation[1:, 1:]),
    }
    if geom.kind == "timelike":
        entries["spinor_lift"] = lambda: spinor_lift(L)
    for name, call in entries.items():
        validator_calls.clear()
        call()
        assert validator_calls == {"_entries": 1}, name


@pytest.mark.parametrize("form", ["root", "square", "auto"])
def test_psi_of_sqrt_validates_once(validator_calls, form):
    """psi_of_sqrt validates e once and reads positivity off the coordinates it
    forms; the root form takes the square root of that validated e."""
    psi_of_sqrt(rand_state(np.random.default_rng(23)), form)
    assert validator_calls == {"_finite": 1}


def test_cone_membership_validates_once(monkeypatch, validator_calls):
    """cone_membership validates its four-vector once and reads everything off
    it: no Pauli coordinates of a matrix formed from it."""
    coords = count_calls(monkeypatch, ["_coords"])
    cone_membership([1.0, 0.2, -0.3, 0.1])
    assert validator_calls == {"_finite": 1} and coords == {}


def test_eta_conjugate_validates_once(validator_calls):
    eta_conjugate(rand_state(np.random.default_rng(24)))
    assert validator_calls == {"_finite": 1}


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
    """Counts both forms of psi, the psi preimage and np.abs, and records the
    type of the first argument of every _unit_det and _factor call."""
    calls = count_calls(monkeypatch, ["_psi", "_psi_entries", "_preimage"])
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
    """element_to_lorentz, lorentz_to_element and spinor_lift each form psi once,
    by the closed form _psi_entries and never by the stack form _psi, and the psi
    preimage at most once, as four numbers: the lift path calls np.abs at most
    once, and _unit_det and _factor take Python lists."""
    reset, read = chain_calls
    m = make(np.random.default_rng(18))
    reset()
    geom = element_to_lorentz(m)
    calls, n_abs, types = read()
    assert calls == {"_psi_entries": 1} and n_abs <= 1 and types == {list}

    decomp = LorentzDecomposition(rotation=geom.rotation, velocity=geom.velocity, scale=geom.scale)
    reset()
    lorentz_to_element(decomp)
    calls, n_abs, types = read()
    assert calls == {"_psi_entries": 1, "_preimage": 1} and n_abs <= 1 and types == {list}

    if geom.kind == "timelike":
        rb = geom.rotation @ pure_boost(geom.velocity)
        reset()
        spinor_lift(rb)
        calls, n_abs, types = read()
        assert calls == {"_psi_entries": 1, "_preimage": 1} and n_abs <= 1 and types == {list}


OBSERVER = observer_boost([0.1, 0.2, 0.3])
ENGINES = {
    "completeness_deviation": lambda meas, rho: meas.deviation,
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
VALIDATES_STATE = {"scenario1_sample", "boosted_probabilities", "report_invariants"}


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
    """A measurement read from JSON is validated in one walk over the parsed
    JSON (serialize._walk), not once per element and again for the stack, and
    never again as an array by qmat._finite."""
    meas = measurement(unitary_mixture(k, np.random.default_rng(15)))
    doc = serialize.loads(serialize.dumps(serialize.measurement_to_json(meas)))
    calls = count_calls(monkeypatch, ["_finite", "_walk"])
    read = serialize.measurement_from_json(doc)
    assert calls == {"_walk": 1}
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


@pytest.mark.parametrize("command", ["apply", "simulate", "boost-observer", "invariants"])
def test_cli_reads_a_state_in_one_walk(monkeypatch, tmp_path, capsys, command):
    """A state file is validated once, by serialize._walk, and herm2's closed form
    takes the walk's numbers: qmat._entries never runs on the state path. apply
    validates nothing else; the engines validate the state once more, as any
    library caller's, through qmat._finite, and boost-observer its velocity."""
    meas_path, state_path = tmp_path / "meas.json", tmp_path / "state.json"
    meas = measurement(unitary_mixture(3, np.random.default_rng(25)))
    meas_path.write_text(serialize.dumps(serialize.measurement_to_json(meas)))
    state_path.write_text(serialize.dumps(serialize.mat2_to_json(np.array([[0.25, 0.1j], [-0.1j, 0.75]]))))
    extra = {"simulate": ["--seed", "1", "--n", "100"], "boost-observer": ["--velocity", "0.1,0.2,0.3"]}
    calls = count_calls(monkeypatch, ["_entries", "_finite", "_walk"])
    argv = [command, "--measurement", str(meas_path), "--state", str(state_path), *extra.get(command, [])]
    assert main(argv) == 0
    assert calls == Counter(_walk=2, _finite={"apply": 0, "boost-observer": 2}.get(command, 1))
    assert capsys.readouterr().out
