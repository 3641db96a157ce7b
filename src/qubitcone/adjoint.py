"""The conjugation map on coordinates: psi(A) = phi o Ad_A o phi^{-1}.

psi(A) is the 4x4 real matrix taking the coordinate vector of rho to the
coordinate vector of A rho A†. It is multiplicative, sends unitaries to
block rotations of the Bloch part, and sends positive square roots to
(scaled) pure boosts, multiples of the one boost formula _boost; psi_of_sqrt
exposes two closed forms of the latter for cross-checking. _preimage
inverts psi up to the global phase psi cannot see: it takes the 16 entries
of L as Python floats and returns the four entries of A as Python complex
numbers, which lorentz._unit_det and lorentz._factor take as they are.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NotPositive, NotUnitary, ZeroMatrix
from .qmat import SIGMA, TOL, _coords, _sqrt_det, is_positive, mat2, sqrt_psd
from .conemap import _minkowski, phi

# psi(A)_{uv} = (1/2) Tr(sigma_u A sigma_v A†) = sum_{ijkl} A_ij conj(A_kl) _PSI[ijkl, uv]:
# one product of the flattened outer product of A and conj(A) with _PSI gives psi(A).
_PSI = 0.5 * np.einsum("uki,vjl->ijkluv", SIGMA, SIGMA).reshape(16, 16)


def psi(a) -> np.ndarray:
    """psi(A)_{mu,nu} = (1/2) Tr(A sigma_nu A† sigma_mu), a 4x4 real matrix."""
    return _psi(mat2(a))


def _psi(a: np.ndarray) -> np.ndarray:
    """psi over the leading axes of a validated (..., 2, 2) array."""
    lead = a.shape[:-2]
    flat = a.reshape(lead + (4,))
    outer = (flat[..., :, None] * flat.conj()[..., None, :]).reshape(lead + (16,))
    return (outer @ _PSI).real.reshape(lead + (4, 4))


# Row beta is s = diag psi(sigma_beta): sigma_beta sigma_nu = s_nu sigma_nu sigma_beta
_SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def _preimage(flat: list, ell: float) -> list:
    """The entries a00, a01, a10, a11 of the preimage A under psi, with Tr A >= 0, of the
    4x4 L with row-major entries flat and max|L| = ell > 0 (Penrose & Rindler, Spinors
    and Space-Time, vol. 1, ch. 1).

    psi(A) = L means sum_mu L_{mu nu} sigma_mu = A sigma_nu A†, and sum_nu sigma_nu X sigma_nu
    = 2 Tr(X) I, so M_beta = sum L_{mu nu} sigma_mu sigma_beta sigma_nu = 2 Tr(A† sigma_beta) A.
    With s as in _SIGNS, M_beta = (w I + c . sigma) sigma_beta, w = sum_mu s_mu L_{mu mu}
    = |Tr(sigma_beta A)|^2, c_l = s_l L_{0l} + L_{l0} + i (s_k L_{jk} - s_j L_{kj}), (j, k, l)
    cyclic. The beta with the largest w gives A = M_beta sqrt(1 / w) / 2 up to the phase that
    psi does not carry. L is divided by its largest entry first, so that nothing over- or
    underflows. An L outside the image of psi still yields some A: callers compare psi(A), L.
    """
    (l00, l01, l02, l03, l10, l11, l12, l13,
     l20, l21, l22, l23, l30, l31, l32, l33) = [x / ell for x in flat]
    weights = (l00 + l11 + l22 + l33, l00 + l11 - l22 - l33,
               l00 - l11 + l22 - l33, l00 - l11 - l22 + l33)
    w = max(weights)
    if w <= 0:
        return [0j, 0j, 0j, 0j]
    beta = weights.index(w)
    _, s1, s2, s3 = _SIGNS[beta]
    a1, a2, a3 = s1 * l01 + l10, s2 * l02 + l20, s3 * l03 + l30
    b1, b2, b3 = s3 * l23 - s2 * l32, s1 * l31 - s3 * l13, s2 * l12 - s1 * l21
    m00, m01 = complex(w + a3, b3), complex(a1 + b2, b1 - a2)
    m10, m11 = complex(a1 - b2, b1 + a2), complex(w - a3, -b3)
    if beta == 1:
        m00, m01, m10, m11 = m01, m00, m11, m10
    elif beta == 2:
        m00, m01, m10, m11 = 1j * m01, -1j * m00, 1j * m11, -1j * m10
    elif beta == 3:
        m01, m11 = -m01, -m11
    tr = m00 + m11
    k = math.sqrt(ell / w) / 2 * (tr.conjugate() / abs(tr) if tr else 1)
    a00, a11 = m00 * k, m11 * k
    # Im Tr A is otherwise round-off of max|A|, not of |Tr A|
    return [a00, m01 * k, m10 * k, complex(a11.real, -a00.imag) if tr else a11]


def _boost(v: np.ndarray, g: float) -> np.ndarray:
    """[[1, -v^T], [-v, g I + v v^T / (1 + g)]]: the pure boost of velocity v
    divided by its gamma, for g = 1/gamma = sqrt(1 - |v|^2); g = 0 and |v| = 1
    give its null limit. Every boost matrix of the package is a multiple of this one."""
    x, y, z = v.tolist()
    k = 1.0 + g
    return np.array([[1.0, -x, -y, -z],
                     [-x, g + x * x / k, x * y / k, x * z / k],
                     [-y, x * y / k, g + y * y / k, y * z / k],
                     [-z, x * z / k, y * z / k, g + z * z / k]])


def psi_of_unitary(u) -> np.ndarray:
    """psi restricted to unitaries (U†U = I within TOL): block diag(1, R), R a proper rotation."""
    u = mat2(u)
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > TOL:
        raise NotUnitary("matrix is not unitary within tolerance")
    return _psi(u)


def psi_of_sqrt(e, form: str = "auto") -> np.ndarray:
    """psi of the positive square root of e, from the coordinates of e.

    form:
      "root"   - closed form in the root coordinates [alpha, beta, gamma, delta]
      "square" - the scaled boost (a/2) _boost(-p/a, X/(2a)) in the coordinates [a, p] of
                 e itself, X = 2 sqrt(a^2 - |p|^2) = 4 sqrt(det e); requires e != 0
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
        return (a / 2) * _boost(-p / a, 2 * _sqrt_det(*c) / a)
    if form == "root":
        root = phi(sqrt_psd(e))
        x_root = _minkowski(root, root)
        return (x_root * np.diag([-1.0, 1.0, 1.0, 1.0]) + 2 * np.outer(root, root)) / 4
    raise ValueError(f"unknown form {form!r}")
