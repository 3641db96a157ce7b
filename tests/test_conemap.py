import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_herm, rand_positive
from qubitcone.conemap import (
    bloch_section,
    cone_membership,
    eta_conjugate,
    hs_inner,
    minkowski,
    mixedness,
    phi,
    phi_inv,
)
from qubitcone.errors import MalformedInput, NonPositiveTrace
from qubitcone.qmat import SIGMA, eigenvalues, is_positive

I2 = np.eye(2, dtype=complex)
X, Z = SIGMA[1], SIGMA[3]
PROJ0 = (I2 + Z) / 2
PROJ1 = (I2 - Z) / 2


def test_phi_examples():
    assert np.allclose(phi(I2), [2, 0, 0, 0])
    assert np.allclose(phi(PROJ0), [1, 0, 0, 1])
    assert np.allclose(phi(X), [0, 2, 0, 0])


def test_phi_inv_examples():
    assert np.allclose(phi_inv([2, 0, 0, 0]), I2)
    assert np.allclose(phi_inv([1, 0, 0, -1]), PROJ1)
    assert np.allclose(phi_inv([1, 1, 0, 0]), (I2 + X) / 2)


def test_round_trips():
    rng = np.random.default_rng(0)
    for _ in range(200):
        h = rand_herm(rng)
        assert np.max(np.abs(phi_inv(phi(h)) - h)) < 1e-14
        v = rng.normal(size=4)
        assert np.max(np.abs(phi(phi_inv(v)) - v)) < 1e-14


def test_minkowski_examples():
    assert minkowski([1, 0, 0, 0], [1, 0, 0, 0]) == 1
    assert minkowski([1, 0, 0, 1], [1, 0, 0, 1]) == 0
    assert minkowski([2, 1, 0, 0], [1, 1, 0, 0]) == 1


def test_hs_inner_examples():
    assert hs_inner(I2, I2) == pytest.approx(2)
    assert hs_inner(SIGMA[1], SIGMA[2]) == pytest.approx(0, abs=1e-15)
    assert hs_inner(PROJ0, PROJ1) == pytest.approx(0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=8, max_size=8)
)
def test_isometry(coords):
    a = phi_inv(coords[:4])
    b = phi_inv(coords[4:])
    assert abs(hs_inner(a, b) - 0.5 * np.dot(phi(a), phi(b))) < 1e-12


def test_cone_membership_examples():
    m = cone_membership([1, 0, 0, 0])
    assert m.in_cone and not m.on_boundary
    m = cone_membership([1, 0, 0, 1])
    assert m.in_cone and m.on_boundary
    assert not cone_membership([0, 0, 0, 1]).in_cone


def test_cone_equivalence_with_positivity():
    rng = np.random.default_rng(1)
    for _ in range(500):
        h = rand_herm(rng, scale=rng.uniform(0.1, 3.0))
        assert is_positive(h) == cone_membership(phi(h)).in_cone


def test_cone_equivalence_with_positivity_over_scale():
    """cone_membership reads is_positive's rule on the coordinates, relative
    to the trace, so the two agree at scales 1e-150 to 1e150, and pure states
    lie on the boundary there."""
    rng = np.random.default_rng(3)
    for _ in range(20_000):
        h = rand_herm(rng, scale=10.0 ** rng.uniform(-150, 150))
        assert is_positive(h) == cone_membership(phi(h)).in_cone
    for _ in range(200):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert cone_membership(phi(10.0 ** rng.uniform(-150, 150) * np.outer(psi, psi.conj()))).on_boundary


def test_boundary_equivalence_with_zero_eigenvalue():
    rng = np.random.default_rng(2)
    for _ in range(200):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        pure = rng.uniform(0.1, 5.0) * np.outer(psi, psi.conj())
        m = cone_membership(phi(pure))
        assert m.on_boundary
        _, lm = eigenvalues(pure)
        assert abs(lm) < 1e-9 * max(1.0, phi(pure)[0] ** 2)
    for _ in range(200):
        h = rand_herm(rng)
        lp, lm = eigenvalues(h)
        if min(abs(lp), abs(lm)) > 1e-3:  # generic: far from the boundary
            assert not cone_membership(phi(h)).on_boundary


def test_mixedness_examples():
    assert mixedness(phi(I2 / 2)) == pytest.approx(1)
    assert mixedness([2, 0, 0, 0]) == pytest.approx(4)
    rng = np.random.default_rng(3)
    psi_vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    pure = np.outer(psi_vec, psi_vec.conj())
    assert mixedness(phi(pure)) == pytest.approx(0, abs=1e-10)


def test_mixedness_identity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        rho = rand_positive(rng)
        v = phi(rho)
        direct = 2 * (np.trace(rho).real ** 2 - np.trace(rho @ rho).real)
        assert abs(minkowski(v, v) - direct) < 1e-12 * max(1.0, direct**2)


def test_eta_conjugate():
    assert np.allclose(eta_conjugate(I2), I2)
    assert np.allclose(eta_conjugate(PROJ0), PROJ1)
    assert np.allclose(eta_conjugate(Z), -Z)
    rng = np.random.default_rng(5)
    for _ in range(100):
        h = rand_herm(rng)
        v = phi(h)
        assert np.allclose(phi(eta_conjugate(h)), [v[0], -v[1], -v[2], -v[3]], atol=1e-13)


def test_bloch_section():
    r, b = bloch_section([1, 0, 0, 1])
    assert r == 1 and np.allclose(b, [0, 0, 1])
    r, b = bloch_section([2, 0, 0, 0])
    assert r == 2 and np.allclose(b, 0)
    r, b = bloch_section([1, 0.6, 0, 0.8])
    assert r == 1 and np.allclose(b, [0.6, 0, 0.8])
    with pytest.raises(NonPositiveTrace):
        bloch_section([0, 0, 0, 1])
    with pytest.raises(NonPositiveTrace):
        bloch_section([-1, 0, 0, 0])


def test_bad_vectors_rejected():
    with pytest.raises(MalformedInput):
        phi_inv([1, 2, 3])
    with pytest.raises(MalformedInput):
        minkowski([np.nan, 0, 0, 0], [1, 0, 0, 0])
