"""Lorentz-group machinery on 4x4 real matrices.

Pure boosts and rescaled null boosts (the finite gamma^{-1}-scaled limits
of boosts at the speed of light), both multiples of the one adjoint._boost
formula; Bloch-block rotations, the psi images of SU(2) spinors and read
back through the same lift; classification of a 4x4 matrix against those
families, the rotation-times-boost decomposition, and the two-to-one spinor
lift back to unit-determinant 2x2 complex matrices. Classification,
decomposition and lift all read the one psi preimage A = _preimage(L) and
factor it with _factor, as element_to_lorentz does; only decompose forms
the polar factor. The chain is scalar: L's entries are listed once, and
_preimage, _unit_det and _factor pass A as four Python complex numbers, so
that arrays are formed only for the one psi residual and the returned result.
The residual and unit-determinant tests read qmat.TOL.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .adjoint import _boost, _preimage, _psi
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
from .qmat import TOL, _finite, _gram_entries, _scaled_entries, _unitary_factor

# Velocities with 1 - TOL_V < |v| < 1 - UNIT_ROUNDOFF are rejected as
# ambiguous rather than silently classified: gamma overflows there. A norm
# within UNIT_ROUNDOFF below 1 is the round-off of a unit vector: null.
# TOL_V bands a speed, not a residual, so it is kept apart from qmat.TOL.
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
    out = np.eye(4)
    out[1:, 1:] = _psi(su2_from_axis_angle(axis, theta))[1:, 1:]
    return out


RESTRICTED = "restricted"
RESCALED_RESTRICTED = "rescaled_restricted"
RESCALED_NULL_BOOST_PRODUCT = "rescaled_null_boost_product"
OTHER = "other"


def _is_null(speed):
    """The null rule 1 - |v| <= TOL_V on the speed |v| = |e[1:]| / e[0] of an effect
    four-vector e, elementwise on arrays: _factor and sim.report_invariants read it."""
    return speed >= 1 - TOL_V


def _factor(a: list, mu: float) -> tuple[Velocity, float, list, complex, list]:
    """Velocity and scale of psi(a) = scale * psi(U) * boost(velocity) for the entries
    a00, a01, a10, a11 of a 2x2 a as Python complex numbers and mu = max|a|, the
    _scaled_entries n, det n that U = _unitary_factor(n, det n) takes, and the effect
    coordinates e = phi(a†a) = mu^2 (t, x, y, z) as floats, where (t, x, y, z) are those
    of n†n. v = -(x, y, z)/t does not underflow with a: timelike with scale |det a|
    when 1 - |v| > TOL_V, else null with e0/2."""
    if not mu:
        raise ZeroElement("the zero element carries no Lorentz data")
    n, d = _scaled_entries(a, mu)
    p0, p1, h01 = _gram_entries(n)  # h01 = (n†n)_01 = (x - iy)/2
    t = p0 + p1
    e = [mu * (mu * c) for c in (t, 2 * h01.real, -2 * h01.imag, p0 - p1)]
    v3 = (-2 * h01.real / t, 2 * h01.imag / t, (p1 - p0) / t)
    speed = math.hypot(*v3)
    if _is_null(speed):
        return Velocity(v=np.array(v3) / speed, kind=NULL), e[0] / 2, n, d, e
    return Velocity(v=np.array(v3), kind=TIMELIKE), mu * mu * abs(d), n, d, e


def _fits(a: list, flat: list, tol: float) -> bool:
    """|psi(A) - L| <= tol entrywise (a NaN fails), for the entries of A and the
    row-major entries of L."""
    psi_a = _psi(np.array(a).reshape(2, 2)).ravel().tolist()
    return all(x <= tol for x in map(abs, map(operator.sub, psi_a, flat)))


def _classify(m: np.ndarray) -> tuple[str, list | None, tuple | None]:
    """The class of a validated m, with the entries of its psi preimage A (Tr A >= 0)
    and _factor(A); both None when m is not in the image of psi."""
    flat = m.ravel().tolist()
    norm = max(map(abs, flat))
    if norm == 0:
        return OTHER, None, None
    a = _preimage(flat, norm)
    if not _fits(a, flat, TOL * norm):
        return OTHER, None, None
    vel, scale, *_ = parts = _factor(a, max(map(abs, a)))
    if vel.kind == NULL:
        return RESCALED_NULL_BOOST_PRODUCT, a, parts
    return (RESTRICTED if abs(scale - 1) <= TOL else RESCALED_RESTRICTED), a, parts


def classify(L) -> str:
    """Sort a 4x4 matrix into restricted / rescaled restricted /
    rescaled-null-boost product / other.

    L is other when it is 0 or when its psi preimage A misses it by more
    than TOL max|L|: the test is relative. Else a null velocity of A's
    factorisation (1 - |v| <= TOL_V) makes a null-boost product, and a
    timelike one a restricted transform when |det A| = 1 within TOL.
    """
    return _classify(mat4(L))[0]


def decompose(L) -> LorentzDecomposition:
    """Factorization scale * rotation * boost(velocity) of the psi preimage
    A of L (see classify), unique unless L is a null-boost product.

    A has Tr A >= 0, so decompose(psi(M)) = element_to_lorentz(e^{-i arg Tr M} M)
    for every nonzero M, and decompose(R L(v)) = (R, v).
    """
    _, _, parts = _classify(mat4(L))
    if parts is None:
        raise NotDecomposable("matrix is not a (rescaled) restricted transform "
                              "or rescaled null-boost product")
    vel, scale, n, d, _ = parts
    return LorentzDecomposition(rotation=_psi(_unitary_factor(n, d)), velocity=vel, scale=scale)


def _rotation_spinor(rot) -> list:
    """The entries of the U with det U = 1, signed as _unit_det describes, and psi(U) = rot
    within TOL for a proper block rotation rot = diag(1, R); else NotDecomposable."""
    flat = mat4(rot).ravel().tolist()
    edge = flat[:4] + flat[4::4]  # row 0 and column 0
    if max(abs(edge[0] - 1.0), *map(abs, edge[1:])) > TOL:
        raise NotDecomposable("rotation is not a Bloch-block rotation")
    u = _unit_det(_preimage(flat, max(map(abs, flat))))
    if not _fits(u, flat, TOL):
        raise NotDecomposable("rotation block is not a proper rotation")
    return u


def rotation_axis_angle(r3) -> tuple[np.ndarray, float]:
    """Axis and angle (in [0, pi]) of a proper 3x3 rotation R, read from the lift
    u = cos(theta/2) I - i sin(theta/2) (axis . sigma) of diag(1, R), signed so that
    cos(theta/2) >= 0; the angle 0 has the axis z. NotDecomposable unless R is a
    proper rotation within TOL."""
    rot = np.eye(4)
    rot[1:, 1:] = _finite(r3, (3, 3), float, "3x3 rotation matrix")
    u00, u01, u10, u11 = _rotation_spinor(rot)
    s = (-(u01 + u10).imag / 2, (u10 - u01).real / 2, (u11 - u00).imag / 2)
    sin_half = math.hypot(*s)
    if sin_half == 0:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return np.array(s) / sin_half, 2 * math.atan2(sin_half, (u00 + u11).real / 2)


def su2_from_axis_angle(axis, theta: float) -> np.ndarray:
    """cos(theta/2) I - i sin(theta/2) (axis . sigma), a special unitary, about
    an axis of norm 1 within TOL (normalised; else BadAxis)."""
    axis = _vec3(axis)
    n = float(np.linalg.norm(axis))
    if abs(n - 1) > TOL:
        raise BadAxis(f"axis norm {n} is not 1 within tolerance")
    x, y, z = (axis / n).tolist()
    half = float(theta) / 2
    if not math.isfinite(half):
        raise MalformedInput(f"rotation angle must be finite, got {theta}")
    c, s = math.cos(half), math.sin(half)
    return np.array([[complex(c, -s * z), complex(-s * y, -s * x)],
                     [complex(s * y, -s * x), complex(c, s * z)]])


def _unit_det(a: list) -> list:
    """The entries of a / sqrt(det a) for the entries of a, signed so that its polar
    factor u has Re(u00) >= 0, ties to Im(u00) >= 0; u00 is a positive multiple of
    a00 + conj(a11)."""
    a00, a01, a10, a11 = a
    r = cmath.sqrt(a00 * a11 - a01 * a10)
    s = a00 / r + (a11 / r).conjugate()
    r = -r if s.real < 0 or (s.real == 0 and s.imag < 0) else r
    return [a00 / r, a01 / r, a10 / r, a11 / r]


def spinor_lift(L) -> np.ndarray:
    """Lift a restricted transform to the unit-determinant 2x2 matrix A with
    psi(A) = L (see classify). A and -A are the two preimages; the returned
    one is signed as _unit_det describes."""
    kind, a, _ = _classify(mat4(L))
    if kind != RESTRICTED:
        raise NotRestricted("spinor_lift requires a restricted Lorentz transform")
    return np.array(_unit_det(a)).reshape(2, 2)
