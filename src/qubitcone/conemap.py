"""Coordinate isomorphism between hermitian 2x2 matrices and R^4.

phi sends a hermitian matrix to its Pauli coordinates Tr(h sigma_mu);
positive matrices land exactly on the Minkowski future cone, with the
boundary occupied by rank-deficient (generalized pure) matrices. Each
fixed-trace slice of the cone is a Bloch sphere of radius equal to the
trace coordinate. Cone membership reads qmat.TOL, relative to the trace.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveTrace
from .qmat import TOL, _coords, _eigenvalues, _finite, _from_coords, hermitize, is_positive, mat2

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class ConeMembership:
    in_cone: bool
    on_boundary: bool
    minkowski_norm2: float


def fourvector(v) -> np.ndarray:
    return _finite(v, (4,), float, "4-vector")


def phi(h) -> np.ndarray:
    """Pauli coordinates [Tr(h), Tr(hX), Tr(hY), Tr(hZ)] of a hermitian h."""
    return _coords(mat2(h))


def phi_inv(v) -> np.ndarray:
    """Inverse of phi: (1/2) sum_mu v_mu sigma_mu, exactly hermitian."""
    return _from_coords(fourvector(v))


def minkowski(u, v) -> float:
    return float(_minkowski(fourvector(u), fourvector(v)))


def _minkowski(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minkowski pairing over leading axes; .T puts the components on the first axis."""
    t = (u * v).T
    return (t[0] - t[1] - t[2] - t[3]).T


def hs_inner(a, b) -> float:
    """Hilbert-Schmidt inner product Tr(ab) of two hermitian matrices."""
    a = mat2(a)
    b = mat2(b)
    return float(np.real(np.trace(a @ b)))


def cone_membership(v) -> ConeMembership:
    """Future-cone test for a four-vector: is_positive(phi_inv(v)), so the
    smaller eigenvalue (v0 - |v[1:]|)/2 is at least -TOL v0; on the boundary
    when it is also at most TOL v0. Both tests are relative to v0."""
    h = phi_inv(v)
    in_cone = is_positive(h)
    lp, lm = _eigenvalues(h)
    return ConeMembership(in_cone, in_cone and abs(lm) <= TOL * (lp + lm), minkowski(v, v))


def mixedness(v) -> float:
    """Minkowski self-product of a state vector; 0 exactly for pure states.

    Equals 2((Tr rho)^2 - Tr(rho^2)) for rho = phi_inv(v).
    """
    return minkowski(v, v)


def eta_conjugate(h) -> np.ndarray:
    """Index lowering on matrices: h -> Tr(h) I - h.

    Its phi image is the metric applied componentwise (time kept, space
    negated).
    """
    h = mat2(h)
    t = np.real(np.trace(h))
    return hermitize(t * np.eye(2, dtype=complex) - h)


def bloch_section(v) -> tuple[float, np.ndarray]:
    """Radius and Bloch 3-vector of the cone cross-section containing v."""
    v = fourvector(v)
    if v[0] <= 0:
        raise NonPositiveTrace("four-vector has non-positive trace component")
    return float(v[0]), v[1:].copy()
