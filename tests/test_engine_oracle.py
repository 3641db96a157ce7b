"""The scenario engines against their earlier form, kept here as an oracle.

The oracle validates the state as a 2x2 matrix (positivity from its
eigenvalues, the trace from np.trace), forms phi(rho) again, builds each
report row by a dict comprehension over per-key columns with one Minkowski
product per quantity, takes tallies as one multinomial draw over the live
cells (the sampler's rule since it replaced the sorted count of n uniform
draws), forms information values with its own copy of correspond._information
as it was written with np.full_like (and stacks with np.vstack), so that the
engines' ufunc forms are checked against numpy's helpers, and builds outcomes
one by one. The engines validate
phi(rho) once and form each quantity once; every result must equal the
oracle's exactly, bit for bit, signed zeros and absent (None) values
included, and every state the oracle rejects must be rejected with the same
exception class."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dead_cut
from qubitcone.adjoint import _psi
from qubitcone.conemap import _HALF_ETA, _minkowski
from qubitcone.correspond import (
    apply_element,
    measurement,
    prop2_invariants,
    require_valid,
)
from qubitcone.errors import MalformedInput, NotNormalized, NotPositive, NotTimelike
from qubitcone.lorentz import _is_null
from qubitcone.qmat import _coords, _from_coords, _gram, mat2
from qubitcone.sim import (
    boosted_probabilities,
    observer_boost,
    report_invariants,
    scenario1_sample,
)

TOL = 1e-9
OBSERVER = observer_boost([0.3, -0.2, 0.5])


# --- the oracle: the engines as they were before phi(rho) was validated once ---


def oracle_state(rho, tol=TOL):
    rho = mat2(rho)
    a, x, y, z = _coords(rho).tolist()
    r = math.hypot(x, y, z)
    lp, lm = (a + r) / 2, (a - r) / 2
    if not lm >= -tol * (lp + lm):
        raise NotPositive("state is not positive")
    return rho


def oracle_checked_state(rho, require_unit_trace):
    rho = oracle_state(rho)
    if require_unit_trace and abs(np.real(np.trace(rho)) - 1.0) > TOL:
        raise NotNormalized("state must have unit trace")
    return rho


def oracle_outcomes(meas, rho_vec):
    posts = meas.transforms @ rho_vec
    live = posts[:, 0] > dead_cut(2 * meas.transforms[:, 0, 0], rho_vec[0])
    return posts[:, 0], np.where(live[:, None], posts, 0.0), live


def oracle_tallies(probs, live, seed, n):
    live = np.flatnonzero(live)
    edges = np.append(np.minimum(np.cumsum(probs)[live[:-1]], 1.0), 1.0)
    tallies = np.zeros(len(probs), dtype=int)
    tallies[live] = np.random.default_rng(np.random.SeedSequence(int(seed))).multinomial(n, np.diff(edges, prepend=0))
    return tallies


def oracle_sample(meas, rho, seed, n):
    require_valid(meas)
    rho = oracle_checked_state(rho, require_unit_trace=True)
    if n < 0:
        raise ValueError("sample count must be non-negative")
    probs, post_vecs, live = oracle_outcomes(meas, _coords(rho))
    probs = np.maximum(probs, 0.0)
    columns = zip(probs.tolist(), oracle_tallies(probs, live, seed, n).tolist(), post_vecs, meas.transforms)
    return [(i, *column) for i, column in enumerate(columns)]


def oracle_boosted(meas, rho, obs):
    require_valid(meas)
    rho = oracle_checked_state(rho, require_unit_trace=True)
    if obs.kind != "timelike":
        raise NotTimelike("observer boosts must be timelike")
    v = obs.v
    rho_vec = _coords(rho)
    denom = rho_vec[0] - float(v @ rho_vec[1:])
    w = meas.transforms @ rho_vec
    return ((w[:, 0] - w[:, 1:] @ v) / denom).tolist()


@np.errstate(all="ignore")
def oracle_information(vecs):
    t = vecs[..., 0]
    live = (t > 0) & ~_is_null(np.hypot(np.hypot(vecs[..., 1], vecs[..., 2]), vecs[..., 3]) / t)
    k = np.frexp(t)[1]
    w = np.ldexp(vecs, -k[..., None])
    return 2 * k + np.log2(_minkowski(w, w), out=np.full_like(t, np.nan), where=live)


def oracle_numbers(x):
    return [None if math.isnan(v) else v for v in np.atleast_1d(x).tolist()]


def oracle_report(meas, rho):
    require_valid(meas)
    rho = oracle_checked_state(rho, require_unit_trace=False)
    rho_vec = _coords(rho)
    mix_before = _minkowski(rho_vec, rho_vec)
    e_vecs = 2 * meas.transforms[:, 0]
    v_vecs = e_vecs * _HALF_ETA
    eta_vv = _minkowski(v_vecs, v_vecs)
    probs, posts, _ = oracle_outcomes(meas, rho_vec)
    mix_after = _minkowski(posts, posts)
    info = oracle_information(np.vstack([v_vecs, posts, rho_vec]))
    info_effect, info_post, info_rho = info[: len(posts)], info[len(posts) : -1], info[-1]
    columns = {
        "probability": probs.tolist(),
        "e_vec": e_vecs.tolist(),
        "v_vec": v_vecs.tolist(),
        "eta_vv": eta_vv.tolist(),
        "kind": np.where(np.isnan(info_effect), "null", "timelike").tolist(),
        "mixedness_after": mix_after.tolist(),
        "information_effect": oracle_numbers(info_effect),
        "information_post": oracle_numbers(info_post),
        "conservation_residual": oracle_numbers(info_post - info_effect - info_rho),
    }
    return {
        "state": {
            "vector": rho_vec.tolist(),
            "mixedness": float(mix_before),
            "information": oracle_numbers(info_rho)[0],
        },
        "elements": [
            {"index": i, **{key: column[i] for key, column in columns.items()}}
            for i in range(len(meas.elements))
        ],
    }


def oracle_apply(m, rho):
    m, rho = mat2(m), oracle_state(rho)
    post = _psi(m) @ _coords(rho)
    return float(post[0]), _from_coords(post)


def oracle_prop2(m, rho):
    m, rho = mat2(m), oracle_state(rho)
    rho_vec = _coords(rho)
    t = _psi(m)
    v_vec = 2 * t[0] * _HALF_ETA
    post_vec = t @ rho_vec
    return (
        float(_minkowski(post_vec, post_vec)),
        float(_minkowski(v_vec, v_vec) * _minkowski(rho_vec, rho_vec)),
        float(_minkowski(v_vec, rho_vec)),
        float(np.trace(_gram(m) @ rho).real),
    )


# --- exact comparison ---


def canon(x):
    """x in a form whose equality is bit equality: floats by their hex form
    (so -0.0 != 0.0), arrays by dtype, shape and bytes, dict keys in order."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return ("dict", [(key, canon(value)) for key, value in x.items()])
    if isinstance(x, (list, tuple)):
        return ("list", [canon(value) for value in x])
    if isinstance(x, float):
        return ("float", x.hex())
    return (type(x).__name__, x)


def outcome_rows(outcomes):
    for o in outcomes:
        assert o._fields == ("index", "probability", "tally", "post_vector", "applied_transform")
    return [tuple(o) for o in outcomes]


def run(fn, *args):
    """The result of fn, or the class of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class itself is compared
        return type(exc)


def assert_same(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type), got
        assert canon(got) == canon(want)


def check_engines(meas, rho, seed=5, n=1000):
    sample = run(scenario1_sample, meas, rho, seed, n)
    assert_same(sample if isinstance(sample, type) else outcome_rows(sample), run(oracle_sample, meas, rho, seed, n))
    assert_same(run(boosted_probabilities, meas, rho, OBSERVER), run(oracle_boosted, meas, rho, OBSERVER))
    assert_same(run(report_invariants, meas, rho), run(oracle_report, meas, rho))
    for m in meas.elements[:2]:
        assert_same(run(apply_element, m, rho), run(oracle_apply, m, rho))
        report = run(prop2_invariants, m, rho)
        if not isinstance(report, type):
            report = (report.lhs_norm, report.rhs_norm, report.p_from_minkowski, report.p_direct)
        assert_same(report, run(oracle_prop2, m, rho))


# --- inputs ---


def inv_sqrt(s):
    w, q = np.linalg.eigh(s)
    return (q / np.sqrt(w)) @ q.conj().T


def random_measurement(rng, k, rank1):
    """k elements A_i S^(-1/2), S = sum A_i†A_i; the first rank1 of them rank one."""
    blocks = []
    for i in range(k):
        if i < rank1:
            ket, bra = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            blocks.append(np.outer(ket, bra))
        else:
            blocks.append(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    s = sum(a.conj().T @ a for a in blocks)
    root = inv_sqrt((s + s.conj().T) / 2)
    return measurement([a @ root for a in blocks])


def pure(ket):
    ket = np.asarray(ket, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def state(kind, meas, rank1, rng):
    """A random mixed or pure state, or the pure state killed by the rank-one
    element 0, whose outcome has probability 0 (a random pure state when no
    element is rank one)."""
    if kind == "mixed":
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        return (rho + rho.conj().T) / 2 / np.trace(rho).real
    if kind == "orthogonal" and rank1:
        return pure(np.linalg.eigh(_gram(meas.elements[0]))[1][:, 0])
    return pure(rng.normal(size=2) + 1j * rng.normal(size=2))


PROJ_Z = measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
# sign-carrying zeros in the elements and in the state
SIGNED = measurement([np.array([[-0.0, 1.0], [0.0, -0.0]]), np.array([[-1.0, -0.0], [-0.0, 0.0]])])


@settings(max_examples=150, deadline=None)
@given(
    k=st.sampled_from([1, 2, 16]),
    rank1_share=st.floats(0, 1),
    kind=st.sampled_from(["mixed", "pure", "orthogonal"]),
    scale=st.sampled_from([1.0, 1e-150, 1e150]),
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([0, 1, 1000]),
)
@example(k=16, rank1_share=0.5, kind="orthogonal", scale=1.0, seed=0, n=1000)
@example(k=1, rank1_share=0.0, kind="pure", scale=1e-150, seed=1, n=1)
def test_engines_equal_the_oracle(k, rank1_share, kind, scale, seed, n):
    rng = np.random.default_rng(seed)
    rank1 = int(rank1_share * k) if k > 1 else 0
    meas = random_measurement(rng, k, rank1)
    check_engines(meas, scale * state(kind, meas, rank1, rng), seed=seed, n=n)


@pytest.mark.parametrize(
    "meas, rho",
    [
        (PROJ_Z, np.diag([0.0, 1.0])),  # an outcome of probability exactly 0
        (PROJ_Z, np.diag([1.0, 0.0]) * 1e150),
        (PROJ_Z, np.diag([0.5, 0.5]) * 1e-150),
        (SIGNED, np.array([[-0.0, 0.0], [-0.0, 1.0]])),
        (SIGNED, np.array([[0.5, -0.0], [0.0, 0.5]])),
    ],
)
def test_exact_zeros_equal_the_oracle(meas, rho):
    check_engines(meas, rho)


REJECTED_OR_BORDERLINE = [
    np.diag([1.1, -0.1]),  # not positive
    np.diag([1 + 1e-10, -1e-10]),  # negative within tolerance
    np.diag([1 + 2e-9, 0.0]),  # trace off by more than the tolerance
    np.diag([1 + 5e-10, 0.0]),  # trace off by less
    np.diag([-1.0, -1.0]),  # negative trace
    np.zeros((2, 2)),  # positive, trace 0
    np.array([[0.5, 1.0], [0.0, 0.5]]),  # not hermitian: read through its coordinates
    np.diag([1e308, 1e308]),  # the trace overflows
    np.eye(3) / 3,
    [[0.5, 0.0], [0.0]],
    [[0.5, float("nan")], [0.0, 0.5]],
    [[0.5, float("inf")], [0.0, 0.5]],
    [["x", 0.0], [0.0, 0.5]],
]


@pytest.mark.parametrize("rho", REJECTED_OR_BORDERLINE, ids=range(len(REJECTED_OR_BORDERLINE)))
def test_rejections_equal_the_oracle(rho):
    with np.errstate(all="ignore"):
        check_engines(PROJ_Z, rho)


def test_the_oracle_rejects_each_kind_of_bad_state():
    """The borderline list reaches every rejection the engines make."""
    with np.errstate(all="ignore"):
        results = [run(oracle_sample, PROJ_Z, rho, 1, 10) for rho in REJECTED_OR_BORDERLINE]
    assert {kind for kind in results if isinstance(kind, type)} == {NotPositive, NotNormalized, MalformedInput}
    assert sum(isinstance(kind, list) for kind in results) == 3
