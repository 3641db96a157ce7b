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
from .qmat import SIGMA, _coords, _sqrt_det, is_positive, mat2, sqrt_psd
from .conemap import _minkowski, phi


def psi(a) -> np.ndarray:
    """psi(A)_{mu,nu} = (1/2) Tr(A sigma_nu A† sigma_mu), a 4x4 real matrix."""
    return _psi(mat2(a))


def _psi(a: np.ndarray) -> np.ndarray:
    """psi over the leading axes of a validated (..., 2, 2) array."""
    conj = np.einsum("...ik,vkl,...jl->...vij", a, SIGMA, a.conj())
    return 0.5 * np.real(np.einsum("uij,...vji->...uv", SIGMA, conj))


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
