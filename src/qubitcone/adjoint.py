"""The conjugation map on coordinates: psi(A) = phi o Ad_A o phi^{-1}.

psi(A) is the 4x4 real matrix taking the coordinate vector of rho to the
coordinate vector of A rho A†. It is multiplicative, sends unitaries to
block rotations of the Bloch part, and sends positive square roots to
(scaled) pure boosts; both closed forms of the latter are exposed for
cross-checking. _psi_inv inverts psi up to the global phase psi cannot see.
"""
from __future__ import annotations

import numpy as np

from .errors import NotPositive, NotUnitary, ZeroMatrix
from .qmat import SIGMA, _coords, _sqrt_det, is_positive, mat2, sqrt_psd
from .conemap import _minkowski, phi

# sigma_mu sigma_beta sigma_nu, rows (mu, nu) and columns (beta, i, j): the
# product L.ravel() @ _SANDWICH lists M_beta = sum L_{mu nu} sigma_mu sigma_beta sigma_nu.
_SANDWICH = np.einsum("mik,bkl,nlj->mnbij", SIGMA, SIGMA, SIGMA).reshape(16, 16)


def psi(a) -> np.ndarray:
    """psi(A)_{mu,nu} = (1/2) Tr(A sigma_nu A† sigma_mu), a 4x4 real matrix."""
    return _psi(mat2(a))


def _psi(a: np.ndarray) -> np.ndarray:
    """psi over the leading axes of a validated (..., 2, 2) array."""
    conj = np.einsum("...ik,vkl,...jl->...vij", a, SIGMA, a.conj())
    return 0.5 * np.real(np.einsum("uij,...vji->...uv", SIGMA, conj))


def _psi_inv(L: np.ndarray) -> np.ndarray:
    """The preimage A of a validated nonzero 4x4 L under psi, with Tr A >= 0
    (Penrose & Rindler, Spinors and Space-Time, vol. 1, ch. 1).

    psi(A) = L means sum_mu L_{mu nu} sigma_mu = A sigma_nu A†, and
    sum_nu sigma_nu X sigma_nu = 2 Tr(X) I, so M_beta = 2 Tr(A† sigma_beta) A.
    The beta with the largest |Tr(M_beta† sigma_beta)| = 2 |Tr(A† sigma_beta)|^2
    gives A up to the phase that psi does not carry. L is divided by its
    largest entry first, so that nothing over- or underflows. An L outside
    the image of psi still yields some A, so callers compare psi(A) with L.
    """
    ell = float(np.abs(L).max())
    m = ((L.reshape(16) / ell) @ _SANDWICH).reshape(4, 2, 2)
    w = np.abs(np.einsum("bij,bij->b", m.conj(), SIGMA))
    beta = int(np.argmax(w))
    a = m[beta] * (np.sqrt(ell / (2 * w[beta])) if w[beta] > 0 else 0.0)
    tr = a[0, 0] + a[1, 1]
    if not tr:
        return a
    a = a * (tr.conjugate() / abs(tr))
    # Im Tr A is otherwise round-off of max|A|, not of |Tr A|
    a[1, 1] = complex(a[1, 1].real, -a[0, 0].imag)
    return a


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
