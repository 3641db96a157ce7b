"""The conjugation map on coordinates: psi(A) = phi o Ad_A o phi^{-1}.

psi(A) is the 4x4 real matrix taking the coordinate vector of rho to the
coordinate vector of A rho A†. It is multiplicative, sends unitaries to
block rotations of the Bloch part, and sends positive square roots to
(scaled) pure boosts; both closed forms of the latter are exposed for
cross-checking. _psi_inv inverts psi up to the global phase psi cannot see.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NotPositive, NotUnitary, ZeroMatrix
from .qmat import SIGMA, _coords, _sqrt_det, is_positive, mat2, sqrt_psd
from .conemap import _minkowski, phi

# psi(A)_{uv} = (1/2) Tr(sigma_u A sigma_v A†) = sum_{ijkl} A_ij conj(A_kl) _PSI[ijkl, uv]:
# one product of the flattened outer product of A and conj(A) with _PSI gives psi(A).
_PSI = 0.5 * np.einsum("uki,vjl->ijkluv", SIGMA, SIGMA).reshape(16, 16)

# sigma_mu sigma_beta sigma_nu, rows (mu, nu) and columns (beta, i, j): the
# product L.ravel() @ _SANDWICH lists M_beta = sum L_{mu nu} sigma_mu sigma_beta sigma_nu.
_SANDWICH = np.einsum("mik,bkl,nlj->mnbij", SIGMA, SIGMA, SIGMA).reshape(16, 16)


def psi(a) -> np.ndarray:
    """psi(A)_{mu,nu} = (1/2) Tr(A sigma_nu A† sigma_mu), a 4x4 real matrix."""
    return _psi(mat2(a))


def _psi(a: np.ndarray) -> np.ndarray:
    """psi over the leading axes of a validated (..., 2, 2) array."""
    lead = a.shape[:-2]
    flat = a.reshape(lead + (4,))
    outer = (flat[..., :, None] * flat.conj()[..., None, :]).reshape(lead + (16,))
    return (outer @ _PSI).real.reshape(lead + (4, 4))


# Row beta is diag psi(sigma_beta): (_TRACE_SIGNS @ diag L)_beta = |Tr(sigma_beta A)|^2, L = psi(A)
_TRACE_SIGNS = _psi(SIGMA).diagonal(axis1=1, axis2=2).copy()


def _psi_inv(L: np.ndarray) -> np.ndarray:
    """The preimage A of a validated nonzero 4x4 L under psi, with Tr A >= 0
    (Penrose & Rindler, Spinors and Space-Time, vol. 1, ch. 1).

    psi(A) = L means sum_mu L_{mu nu} sigma_mu = A sigma_nu A†, and
    sum_nu sigma_nu X sigma_nu = 2 Tr(X) I, so M_beta = 2 Tr(A† sigma_beta) A.
    The beta with the largest w = |Tr(sigma_beta A)|^2, read off diag(L),
    gives A = M_beta sqrt(1 / w) / 2 up to the phase that psi does not carry;
    only that M_beta is formed. L is divided by its largest entry first, so
    that nothing over- or underflows. An L outside the image of psi still
    yields some A, so callers compare psi(A) with L.
    """
    ell = float(np.abs(L).max())
    flat = L.reshape(16) / ell
    weights = _TRACE_SIGNS @ flat[::5]
    beta = int(weights.argmax())
    w = float(weights[beta])
    if w <= 0:
        return np.zeros((2, 2), dtype=complex)
    m00, m01, m10, m11 = (flat @ _SANDWICH[:, 4 * beta : 4 * beta + 4]).tolist()
    tr = m00 + m11
    k = math.sqrt(ell / w) / 2 * (tr.conjugate() / abs(tr) if tr else 1)
    a00, a11 = m00 * k, m11 * k
    # Im Tr A is otherwise round-off of max|A|, not of |Tr A|
    return np.array([[a00, m01 * k], [m10 * k, complex(a11.real, -a00.imag) if tr else a11]])


def psi_of_unitary(u, tol: float = 1e-9) -> np.ndarray:
    """psi restricted to unitaries: block diag(1, R) with R a proper rotation."""
    u = mat2(u)
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > tol:
        raise NotUnitary("matrix is not unitary within tolerance")
    return _psi(u)


def psi_of_sqrt(e, form: str = "auto") -> np.ndarray:
    """psi of the positive square root of e, from the coordinates of e.

    form:
      "root"   - closed form in the root coordinates [alpha, beta, gamma, delta]
      "square" - closed form in the coordinates [a, x, y, z] of e itself,
                 with X = 2 sqrt(a^2 - x^2 - y^2 - z^2) = 4 sqrt(det e); requires e != 0
      "auto"   - "square" unless e = 0, then "root"
    """
    e = mat2(e)
    if not is_positive(e):
        raise NotPositive("matrix is not positive semidefinite")
    c = _coords(e)
    a, p = c[0], c[1:]
    if form == "auto":
        form = "square" if a > 0 else "root"
    if form == "square":
        if a <= 0:
            raise ZeroMatrix("the square-coordinate form requires e != 0")
        big_x = 4 * _sqrt_det(*c)
        out = np.zeros((4, 4))
        out[0] = out[:, 0] = c / 2
        out[1:, 1:] = (big_x / 4) * np.eye(3) + np.outer(p, p / (2 * a + big_x))
        return out
    if form == "root":
        root = phi(sqrt_psd(e))
        x_root = _minkowski(root, root)
        return (x_root * np.diag([-1.0, 1.0, 1.0, 1.0]) + 2 * np.outer(root, root)) / 4
    raise ValueError(f"unknown form {form!r}")
