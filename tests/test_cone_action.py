"""The engines and apply_element read probabilities, post vectors and effect
vectors off the psi(M) stack a measurement keeps. Here they are checked
against the 2x2 products M rho M†, M†M and Tr(M†M rho), formed in long
double, for K = 1…16 elements (some rank one) and states at scales 1e-150,
1 and 1e150, pure states orthogonal to a rank-one element among them."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dead_cut
from qubitcone.correspond import apply_element, measurement
from qubitcone.sim import (
    boosted_probabilities,
    observer_boost,
    report_invariants,
    scenario1_sample,
)

EPS = np.finfo(float).eps


def complete_measurement(k, rng):
    """k elements A_i S^(-1/2), S = sum A_i† A_i, with A_0 and every other A_i
    but the last rank one: sum M†M = I."""
    a = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
    a[: k - 1 : 2, 1] = a[: k - 1 : 2, 0] * (rng.normal() + 1j * rng.normal())
    w, v = np.linalg.eigh((a.conj().swapaxes(-1, -2) @ a).sum(axis=0))
    return a @ (v / np.sqrt(w)) @ v.conj().T


def state(m0, pure, rng):
    """A random mixed state, or the pure state in the kernel of the rank-one m0."""
    if pure:
        ket = np.linalg.svd(m0)[2][1].conj()  # right singular vector of the zero singular value
        return np.outer(ket, ket.conj())
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = b @ b.conj().T
    return rho / np.trace(rho).real


def phi_ld(h):
    """Pauli coordinates of the (..., 2, 2) matrices h."""
    return np.stack(
        [(h[..., 0, 0] + h[..., 1, 1]).real, (h[..., 0, 1] + h[..., 1, 0]).real,
         (h[..., 1, 0] - h[..., 0, 1]).imag, (h[..., 0, 0] - h[..., 1, 1]).real],
        axis=-1,
    )


def oracle(m, rho):
    """Effect vectors phi(M†M), probabilities Tr(M†M rho), post states
    M rho M† and post vectors of the stack m, in long double."""
    m, rho = m.astype(np.clongdouble), rho.astype(np.clongdouble)
    m_dag = m.conj().swapaxes(-1, -2)
    effects, post_states = m_dag @ m, m @ rho @ m_dag
    probs = np.trace(effects @ rho, axis1=-2, axis2=-1).real
    return phi_ld(effects), probs, post_states, phi_ld(post_states)


def close(got, want):
    """Within 4 eps of the largest entry of the oracle."""
    got = np.asarray(got, dtype=np.clongdouble if np.iscomplexobj(want) else np.longdouble)
    return np.abs(got - want).max() <= 4 * EPS * np.abs(want).max()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.sampled_from([1e-150, 1.0, 1e150]), st.booleans(), st.integers(0, 2**32 - 1))
def test_engines_against_the_2x2_products(k, scale, pure, seed):
    rng = np.random.default_rng(seed)
    elements = complete_measurement(k, rng)
    meas = measurement(elements)
    rho = state(elements[0], pure and k > 1, rng)
    e_vecs, probs, _, posts = oracle(elements, rho)

    live = (probs > dead_cut(e_vecs[:, 0], 1.0))[:, None]
    outcomes = scenario1_sample(meas, rho, seed=seed, n=100)
    assert close([o.probability for o in outcomes], np.maximum(probs, 0))
    assert close([o.post_vector for o in outcomes], np.where(live, posts, 0))

    # p_bob = (w0 - v . w[1:]) / d carries 4 eps max|w| of the post vectors w
    # to 4 eps (1 + |v|) max|w| / d
    v = 0.9 * rng.uniform(-1, 1, size=3) / np.sqrt(3)
    rho_vec = phi_ld(rho.astype(np.clongdouble))
    d = rho_vec[0] - rho_vec[1:] @ v
    p_bob = np.array(boosted_probabilities(meas, rho, observer_boost(v)), dtype=np.longdouble)
    err = np.abs(p_bob - (posts[:, 0] - posts[:, 1:] @ v) / d).max()
    assert err <= 4 * EPS * (1 + np.linalg.norm(v)) * np.abs(posts).max() / d

    # report_invariants and apply_element take states at any scale
    e_vecs, probs, post_states, _ = oracle(elements, scale * rho)
    rows = report_invariants(meas, scale * rho)["elements"]
    assert close([r["probability"] for r in rows], probs)
    assert close([r["e_vec"] for r in rows], e_vecs)
    assert close([r["v_vec"] for r in rows], e_vecs * [0.5, -0.5, -0.5, -0.5])
    applied = [apply_element(m, scale * rho) for m in elements]
    assert close([p for p, _ in applied], probs)
    assert close([post for _, post in applied], post_states)
