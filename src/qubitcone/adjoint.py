"""The conjugation map on coordinates: psi(A) = phi o Ad_A o phi^{-1}.

psi(A) is the 4x4 real matrix taking the coordinate vector of rho to the
coordinate vector of A rho A†. It is multiplicative, sends unitaries to
block rotations of the Bloch part, and sends positive square roots to
(scaled) pure boosts; both closed forms of the latter are exposed for
cross-checking.
"""
from __future__ import annotations

import numpy as np

from .errors import NotPositive, NotUnitary, ZeroMatrix
from .qmat import SIGMA, _coords, is_positive, mat2, sqrt_psd
from .conemap import phi


def psi(a) -> np.ndarray:
    """psi(A)_{mu,nu} = (1/2) Tr(A sigma_nu A† sigma_mu), a 4x4 real matrix."""
    return _psi(mat2(a))


def _psi(a: np.ndarray) -> np.ndarray:
    conj = np.einsum("ik,vkl,jl->vij", a, SIGMA, a.conj())
    return 0.5 * np.real(np.einsum("uij,vji->uv", SIGMA, conj))


def psi_of_unitary(u, tol: float = 1e-9) -> np.ndarray:
    """psi restricted to unitaries: block diag(1, R) with R a proper rotation."""
    return _psi_of_unitary(mat2(u), tol)


def _psi_of_unitary(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > tol:
        raise NotUnitary("matrix is not unitary within tolerance")
    return _psi(u)


def psi_of_sqrt(e, form: str = "auto") -> np.ndarray:
    """psi of the positive square root of e, from the coordinates of e.

    form:
      "root"   - closed form in the root coordinates [alpha, beta, gamma, delta]
      "square" - closed form in the coordinates [a, x, y, z] of e itself,
                 with X = 2 sqrt(a^2 - x^2 - y^2 - z^2); requires e != 0
      "auto"   - "square" unless e = 0, then "root"
    """
    e = mat2(e)
    if not is_positive(e):
        raise NotPositive("matrix is not positive semidefinite")
    a, x, y, z = _coords(e)
    disc = max(a * a - (x * x + y * y + z * z), 0.0)
    big_x = 2 * np.sqrt(disc)

    if form == "auto":
        form = "square" if a > 0 else "root"
    if form == "square":
        if a <= 0:
            raise ZeroMatrix("the square-coordinate form requires e != 0")
        out = np.zeros((4, 4))
        p = np.array([x, y, z])
        out[0, 0] = 2 * a
        out[0, 1:] = 2 * p
        out[1:, 0] = 2 * p
        out[1:, 1:] = big_x * np.eye(3) + 4 * np.outer(p, p) / (2 * a + big_x)
        return out / 4
    if form == "root":
        c = phi(sqrt_psd(e))
        x_root = c[0] ** 2 - c[1] ** 2 - c[2] ** 2 - c[3] ** 2
        return (x_root * np.diag([-1.0, 1.0, 1.0, 1.0]) + 2 * np.outer(c, c)) / 4
    raise ValueError(f"unknown form {form!r}")
