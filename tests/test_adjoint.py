import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitcone

from conftest import rand_complex, rand_positive, rand_unit3
from qubitcone.adjoint import _psi, psi, psi_of_sqrt, psi_of_unitary
from qubitcone.conemap import cone_membership, minkowski, phi, phi_inv
from qubitcone.errors import NotPositive, NotUnitary, ZeroMatrix
from qubitcone.lorentz import pure_boost, velocity
from qubitcone.qmat import SIGMA, sqrt_psd

I2 = np.eye(2, dtype=complex)
X, Y, Z = SIGMA[1], SIGMA[2], SIGMA[3]


def psi_oracle(a):
    """Independent oracle: conjugate each basis vector through phi."""
    cols = [phi(a @ phi_inv(np.eye(4)[mu]) @ a.conj().T) for mu in range(4)]
    return np.stack(cols, axis=1)


def test_psi_examples():
    assert np.allclose(psi(I2), np.eye(4))
    assert np.allclose(psi(X), np.diag([1, 1, -1, -1]))
    assert np.allclose(psi(X), psi_oracle(X))
    for c in (0.5, 2.0, 3.7):
        assert np.allclose(psi(c * I2), c * c * np.eye(4))


def trace_oracle(a):
    """(1/2) Re Tr(sigma_mu A sigma_nu A†) over a (K, 2, 2) stack, in long
    double so that its own round-off is far below the bound tested."""
    a = a.astype(np.clongdouble)
    a_dag = a.conj().swapaxes(-1, -2)
    sigma = SIGMA.astype(np.clongdouble)
    out = np.empty(a.shape[:-2] + (4, 4), dtype=np.longdouble)
    for mu in range(4):
        for nu in range(4):
            out[..., mu, nu] = np.real(np.trace(sigma[mu] @ a @ sigma[nu] @ a_dag, axis1=-2, axis2=-1)) / 2
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.sampled_from([1e-150, 1.0, 1e150]), st.booleans(), st.integers(0, 2**32 - 1))
def test_psi_against_trace_oracle(k, scale, rank_one, seed):
    """The one-tensor psi of a (K, 2, 2) stack is within 4 eps max|A|^2 of
    the trace formula, element by element."""
    rng = np.random.default_rng(seed)
    a = scale * (rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2)))
    if rank_one:
        a[:, 1] = a[:, 0] * (rng.normal() + 1j * rng.normal())
    err = np.abs(_psi(a) - trace_oracle(a)).max(axis=(1, 2))
    assert np.all(err <= 4 * np.finfo(float).eps * np.abs(a).max(axis=(1, 2)) ** 2)


def test_psi_transports_states():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rand_complex(rng)
        rho = rand_positive(rng)
        assert np.max(np.abs(psi(a) @ phi(rho) - phi(a @ rho @ a.conj().T))) < 1e-12


def test_psi_homomorphism():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = rand_complex(rng)
        b = rand_complex(rng)
        assert np.max(np.abs(psi(a @ b) - psi(a) @ psi(b))) < 1e-10


def test_psi_preserves_minkowski_for_unimodular():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rand_complex(rng)
        d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        a = a / np.sqrt(d)  # det 1
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        pa = psi(a)
        assert abs(minkowski(pa @ u, pa @ v) - minkowski(u, v)) < 1e-10


def test_psi_preserves_cone():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rand_complex(rng)
        rho = rand_positive(rng)
        assert cone_membership(psi(a) @ phi(rho)).in_cone


def test_psi_of_unitary_examples():
    assert np.allclose(psi_of_unitary(I2), np.eye(4))

    u = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])  # z rotation pi/2
    r = psi_of_unitary(u)
    assert np.allclose(r, psi_oracle(u), atol=1e-12)
    assert np.allclose(r[0], [1, 0, 0, 0], atol=1e-12)
    assert np.allclose(r @ np.array([0, 1, 0, 0]), [0, 0, 1, 0], atol=1e-12)

    u = np.cos(np.pi / 2) * I2 - 1j * np.sin(np.pi / 2) * X  # theta = pi about x
    r = psi_of_unitary(u)
    assert np.allclose(r, psi_oracle(u), atol=1e-12)
    assert np.allclose(r, np.diag([1, 1, -1, -1]), atol=1e-12)


def test_psi_of_unitary_block_structure():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = rand_unit3(rng)
        th = rng.uniform(0, 2 * np.pi)
        u = np.cos(th / 2) * I2 - 1j * np.sin(th / 2) * (
            n[0] * X + n[1] * Y + n[2] * Z
        )
        r = psi_of_unitary(u)
        assert np.allclose(r[0], [1, 0, 0, 0], atol=1e-12)
        assert np.allclose(r[:, 0], [1, 0, 0, 0], atol=1e-12)
        r3 = r[1:, 1:]
        assert np.allclose(r3.T @ r3, np.eye(3), atol=1e-12)
        assert np.linalg.det(r3) == pytest.approx(1, abs=1e-12)


def test_psi_of_unitary_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        psi_of_unitary(2 * I2)


def test_psi_of_sqrt_examples():
    assert np.allclose(psi_of_sqrt(I2 / 2), np.eye(4) / 2, atol=1e-12)

    e = (I2 + Z) / 2
    expected = 0.5 * np.array(
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=float
    )
    assert np.allclose(psi_of_sqrt(e), expected, atol=1e-12)

    e = np.diag([3 / 4, 1 / 4]).astype(complex)
    expected = (np.sqrt(3) / 4) * pure_boost(velocity([0, 0, -0.5]))
    assert np.allclose(psi_of_sqrt(e), expected, atol=1e-12)
    assert np.allclose(psi_of_sqrt(e), psi(sqrt_psd(e)), atol=1e-12)


def test_psi_of_sqrt_both_forms_agree():
    rng = np.random.default_rng(5)
    for _ in range(200):
        e = rand_positive(rng)
        definitional = psi(sqrt_psd(e))
        assert np.max(np.abs(psi_of_sqrt(e, form="root") - definitional)) < 1e-10
        assert np.max(np.abs(psi_of_sqrt(e, form="square") - definitional)) < 1e-10
    # near-projective inputs (X close to 0)
    for _ in range(100):
        v = rand_unit3(rng)
        a = rng.uniform(0.5, 2.0)
        eps = rng.uniform(0, 1e-6)
        coords = np.concatenate([[a], a * (1 - eps) * v])
        e = phi_inv(coords)
        definitional = psi(sqrt_psd(e))
        assert np.max(np.abs(psi_of_sqrt(e, form="root") - definitional)) < 1e-10
        assert np.max(np.abs(psi_of_sqrt(e, form="square") - definitional)) < 1e-10


def test_psi_of_sqrt_first_column_law():
    rng = np.random.default_rng(6)
    for _ in range(200):
        e = rand_positive(rng)
        assert np.max(np.abs(psi_of_sqrt(e)[:, 0] - phi(e) / 2)) < 1e-12


def test_psi_of_sqrt_errors():
    with pytest.raises(NotPositive):
        psi_of_sqrt(Z)
    with pytest.raises(ZeroMatrix):
        psi_of_sqrt(np.zeros((2, 2)), form="square")
    assert np.allclose(psi_of_sqrt(np.zeros((2, 2))), 0)


@pytest.mark.parametrize("form", ["square", "auto", "root"])
@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_psi_of_sqrt_at_extreme_element_scales(form, scale):
    # the effect of M = scale * m has scale^2 = 1e-300 or 1e300, whose
    # coordinates cannot be squared
    m = np.array([[0.8, 0.1j], [0.2, 0.5]])
    ref = psi_of_sqrt(m.conj().T @ m, form)
    out = psi_of_sqrt((scale * m).conj().T @ (scale * m), form)
    assert np.isfinite(out).all()
    assert np.max(np.abs(out / scale**2 - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_package_adjoint_is_the_module():
    assert qubitcone.adjoint is importlib.import_module("qubitcone.adjoint")
    assert np.array_equal(qubitcone.qmat.adjoint(1j * X), -1j * X)
