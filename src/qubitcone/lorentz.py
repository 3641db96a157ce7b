"""Lorentz-group machinery on 4x4 real matrices.

Pure boosts and rescaled null boosts (the finite gamma^{-1}-scaled limits
of boosts at the speed of light), both multiples of the one adjoint._boost
formula; Bloch-block rotations, the psi images of SU(2) spinors and read
back through the same lift; classification of a 4x4 matrix against those
families, the rotation-times-boost decomposition, and the two-to-one spinor
lift back to unit-determinant 2x2 complex matrices. Classification,
decomposition and lift all read the one psi preimage A = _psi_inv(L) and
factor it with _factor, as element_to_lorentz does; only decompose forms
the polar factor.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .adjoint import _boost, _psi, _psi_inv
from .errors import (
    BadAxis,
    DomainError,
    MalformedInput,
    NotDecomposable,
    NotNull,
    NotRestricted,
    NotTimelike,
    ZeroElement,
)
from .qmat import _coords, _finite, _gram, _scaled_entries, _unitary_factor

# Velocities with 1 - TOL_V < |v| < 1 - UNIT_ROUNDOFF are rejected as
# ambiguous rather than silently classified: gamma overflows there. A norm
# within UNIT_ROUNDOFF below 1 is the round-off of a unit vector: null.
TOL_V = 1e-9
UNIT_ROUNDOFF = 4 * np.finfo(float).eps

TIMELIKE = "timelike"
NULL = "null"


@dataclass(frozen=True, eq=False)
class Velocity:
    v: np.ndarray
    kind: str


@dataclass(frozen=True, eq=False)
class LorentzDecomposition:
    rotation: np.ndarray  # 4x4 block-diagonal proper rotation
    velocity: Velocity
    scale: float


def _vec3(v) -> np.ndarray:
    return _finite(v, (3,), float, "3-vector")


def velocity(v) -> Velocity:
    """Classify a 3-velocity as timelike (|v| <= 1 - TOL_V) or as null
    (1 - UNIT_ROUNDOFF <= |v| <= 1 + TOL_V), returned normalized.
    Magnitudes inside (1 - TOL_V, 1 - UNIT_ROUNDOFF) are rejected as
    ambiguous."""
    arr = _vec3(v)
    s = float(np.linalg.norm(arr))
    if s <= 1 - TOL_V:
        return Velocity(v=arr, kind=TIMELIKE)
    if 1 - UNIT_ROUNDOFF <= s <= 1 + TOL_V:
        return Velocity(v=arr / s, kind=NULL)
    if s > 1 + TOL_V:
        raise NotTimelike(f"|v| = {s} is superluminal")
    raise DomainError(f"|v| = {s} is ambiguous between timelike and null")


def _as_velocity(vel) -> Velocity:
    if isinstance(vel, Velocity):
        return vel
    return velocity(vel)


def mat4(entries) -> np.ndarray:
    return _finite(entries, (4, 4), float, "4x4 matrix")


def pure_boost(vel) -> np.ndarray:
    """Pure Lorentz boost of timelike velocity v, gamma = 1/sqrt(1 - v^2)."""
    vel = _as_velocity(vel)
    if vel.kind != TIMELIKE:
        raise NotTimelike("pure_boost requires a timelike velocity")
    g = math.sqrt(1.0 - float(vel.v @ vel.v))
    return _boost(vel.v, g) / g


def null_boost_rescaled(vel) -> np.ndarray:
    """The finite gamma^{-1}-rescaled limit of pure boosts as |v| -> 1.

    A singular rank-1 matrix: [[1, -v^T], [-v, v v^T]].

    For a timelike u = |u| v the difference is exact:
        pure_boost(u)/gamma - N = [[0, (1 - |u|) v^T],
                                   [(1 - |u|) v, gamma^{-1} (I - v v^T)]],
    so the max-norm gap is gamma^{-1} (1 - min_i v_i^2) and pure boosts
    converge to N at rate gamma^{-1} = sqrt(1 - |u|^2).
    """
    vel = _as_velocity(vel)
    if vel.kind != NULL:
        raise NotNull("null_boost_rescaled requires a null velocity")
    return _boost(vel.v, 0.0)


def rotation4(axis, theta: float) -> np.ndarray:
    """Block rotation diag(1, R) about a unit axis, R the block of psi(su2_from_axis_angle)."""
    axis = _vec3(axis)
    n = float(np.linalg.norm(axis))
    if abs(n - 1) > 1e-9:
        raise BadAxis(f"axis norm {n} is not 1 within tolerance")
    out = np.eye(4)
    out[1:, 1:] = _psi(su2_from_axis_angle(axis / n, theta))[1:, 1:]
    return out


RESTRICTED = "restricted"
RESCALED_RESTRICTED = "rescaled_restricted"
RESCALED_NULL_BOOST_PRODUCT = "rescaled_null_boost_product"
OTHER = "other"


def _is_null(speed):
    """The null rule 1 - |v| <= TOL_V on the speed |v| = |e[1:]| / e[0] of an effect
    four-vector e, elementwise on arrays: _factor and sim.report_invariants read it."""
    return speed >= 1 - TOL_V


def _factor(a: np.ndarray) -> tuple[Velocity, float, list, complex]:
    """Velocity and scale of psi(a) = scale * psi(U) * boost(velocity) for a
    validated 2x2 a, and the _scaled_entries n, det n that U = _unitary_factor(n, det n)
    takes. v = -(x, y, z)/t from the effect coordinates of n†n does not underflow
    with a: timelike with scale |det a| when 1 - |v| > TOL_V, else null with Tr(a†a)/2."""
    if not a.any():
        raise ZeroElement("the zero element carries no Lorentz data")
    n, d, mu = _scaled_entries(a)
    n00, n01, n10, n11 = n
    h01 = n00.conjugate() * n01 + n10.conjugate() * n11  # (n†n)_01 = (x - iy)/2
    p0, p1 = abs(n00) ** 2 + abs(n10) ** 2, abs(n01) ** 2 + abs(n11) ** 2
    t = p0 + p1
    v3 = (-2 * h01.real / t, 2 * h01.imag / t, (p1 - p0) / t)
    speed = math.hypot(*v3)
    if _is_null(speed):
        return Velocity(v=np.array(v3) / speed, kind=NULL), float(_coords(_gram(a))[0] / 2), n, d
    return Velocity(v=np.array(v3), kind=TIMELIKE), mu * mu * abs(d), n, d


def _classify(m: np.ndarray, tol: float) -> tuple[str, np.ndarray | None, tuple | None]:
    """The class of a validated m, with its psi preimage A (Tr A >= 0) and
    _factor(A); both None when m is not in the image of psi."""
    norm = float(np.abs(m).max())
    if norm == 0:
        return OTHER, None, None
    a = _psi_inv(m)
    if not np.abs(_psi(a) - m).max() <= tol * norm:
        return OTHER, None, None
    vel, scale, _, _ = parts = _factor(a)
    if vel.kind == NULL:
        return RESCALED_NULL_BOOST_PRODUCT, a, parts
    return (RESTRICTED if abs(scale - 1) <= tol else RESCALED_RESTRICTED), a, parts


def classify(L, tol: float = 1e-9) -> str:
    """Sort a 4x4 matrix into restricted / rescaled restricted /
    rescaled-null-boost product / other.

    L is other when it is 0 or when its psi preimage A misses it by more
    than tol max|L|: tol is relative. Else a null velocity of A's
    factorisation (1 - |v| <= TOL_V) makes a null-boost product, and a
    timelike one a restricted transform when |det A| = 1 within tol.
    """
    return _classify(mat4(L), tol)[0]


def decompose(L, tol: float = 1e-9) -> LorentzDecomposition:
    """Factorization scale * rotation * boost(velocity) of the psi preimage
    A of L (see classify for tol), unique unless L is a null-boost product.

    A has Tr A >= 0, so decompose(psi(M)) = element_to_lorentz(e^{-i arg Tr M} M)
    for every nonzero M, and decompose(R L(v)) = (R, v).
    """
    _, _, parts = _classify(mat4(L), tol)
    if parts is None:
        raise NotDecomposable("matrix is not a (rescaled) restricted transform "
                              "or rescaled null-boost product")
    vel, scale, n, d = parts
    return LorentzDecomposition(rotation=_psi(_unitary_factor(n, d)), velocity=vel, scale=scale)


def _rotation_spinor(rot, tol: float = 1e-9) -> np.ndarray:
    """The U with det U = 1, signed as _unit_det describes, and psi(U) = rot
    within tol for a proper block rotation rot = diag(1, R); else NotDecomposable."""
    rot = mat4(rot)
    edge = rot[0].tolist() + rot[1:, 0].tolist()
    if max(abs(edge[0] - 1.0), *map(abs, edge[1:])) > tol:
        raise NotDecomposable("rotation is not a Bloch-block rotation")
    u = _unit_det(_psi_inv(rot))
    if not np.abs(_psi(u) - rot).max() <= tol:
        raise NotDecomposable("rotation block is not a proper rotation")
    return u


def rotation_axis_angle(r3) -> tuple[np.ndarray, float]:
    """Axis and angle (in [0, pi]) of a proper 3x3 rotation R, read from the lift
    u = cos(theta/2) I - i sin(theta/2) (axis . sigma) of diag(1, R), signed so that
    cos(theta/2) >= 0; the angle 0 has the axis z. NotDecomposable unless R is a
    proper rotation within 1e-9."""
    rot = np.eye(4)
    rot[1:, 1:] = _finite(r3, (3, 3), float, "3x3 rotation matrix")
    (u00, u01), (u10, u11) = _rotation_spinor(rot).tolist()
    s = (-(u01 + u10).imag / 2, (u10 - u01).real / 2, (u11 - u00).imag / 2)
    sin_half = math.hypot(*s)
    if sin_half == 0:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return np.array(s) / sin_half, 2 * math.atan2(sin_half, (u00 + u11).real / 2)


def su2_from_axis_angle(axis, theta: float) -> np.ndarray:
    """cos(theta/2) I - i sin(theta/2) (axis . sigma), a special unitary."""
    x, y, z = _vec3(axis).tolist()
    half = float(theta) / 2
    if not math.isfinite(half):
        raise MalformedInput(f"rotation angle must be finite, got {theta}")
    c, s = math.cos(half), math.sin(half)
    return np.array([[complex(c, -s * z), complex(-s * y, -s * x)],
                     [complex(s * y, -s * x), complex(c, s * z)]])


def _unit_det(a: np.ndarray) -> np.ndarray:
    """a / sqrt(det a), signed so that its polar factor u has Re(u00) >= 0,
    ties to Im(u00) >= 0; u00 is a positive multiple of a00 + conj(a11)."""
    a00, a01, a10, a11 = a.ravel().tolist()
    r = cmath.sqrt(a00 * a11 - a01 * a10)
    s = a00 / r + (a11 / r).conjugate()
    r = -r if s.real < 0 or (s.real == 0 and s.imag < 0) else r
    return np.array([[a00 / r, a01 / r], [a10 / r, a11 / r]])


def spinor_lift(L, tol: float = 1e-9) -> np.ndarray:
    """Lift a restricted transform to the unit-determinant 2x2 matrix A with
    psi(A) = L (see classify for tol). A and -A are the two preimages; the
    returned one is signed as _unit_det describes."""
    kind, a, _ = _classify(mat4(L), tol)
    if kind != RESTRICTED:
        raise NotRestricted("spinor_lift requires a restricted Lorentz transform")
    return _unit_det(a)
