"""Lorentz-group machinery on 4x4 real matrices.

Pure boosts, rescaled null boosts (the finite gamma^{-1}-scaled limits of
boosts at the speed of light), Bloch-block rotations, classification of a
4x4 matrix against those families, the unique rotation-times-boost
decomposition, and the two-to-one spinor lift back to unit-determinant
2x2 complex matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conemap import ETA
from .errors import (
    BadAxis,
    DomainError,
    MalformedInput,
    NotDecomposable,
    NotNull,
    NotRestricted,
    NotTimelike,
)
from .qmat import SIGMA, _finite, _from_coords, _psd_root

# Velocities with 1 - TOL_V < |v| < 1 are rejected as ambiguous rather than
# silently classified: gamma overflows there.
TOL_V = 1e-9

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


def velocity(v, kind: str | None = None) -> Velocity:
    """Classify a 3-velocity as timelike (|v| < 1) or null (|v| = 1).

    With kind="null" the vector is normalized provided |v| is within TOL_V
    of 1. Without an explicit kind, magnitudes inside (1 - TOL_V, 1) are
    rejected as ambiguous.
    """
    return _velocity(_vec3(v), kind)


def _velocity(arr: np.ndarray, kind: str | None = None) -> Velocity:
    s = float(np.linalg.norm(arr))
    if kind == NULL:
        if abs(s - 1) > TOL_V:
            raise NotNull(f"|v| = {s} is not 1 within tolerance")
        return Velocity(v=arr / s, kind=NULL)
    if kind == TIMELIKE:
        if s >= 1 - TOL_V:
            raise NotTimelike(f"|v| = {s} is not strictly below 1")
        return Velocity(v=arr, kind=TIMELIKE)
    if kind is not None:
        raise MalformedInput(f"unknown velocity kind {kind!r}")
    if s <= 1 - TOL_V:
        return Velocity(v=arr, kind=TIMELIKE)
    if 1 <= s <= 1 + TOL_V:
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
    v = vel.v
    v2 = float(v @ v)
    g = 1.0 / np.sqrt(1.0 - v2)
    out = np.empty((4, 4))
    out[0, 0] = g
    out[0, 1:] = -g * v
    out[1:, 0] = -g * v
    out[1:, 1:] = np.eye(3) + (g * g / (1.0 + g)) * np.outer(v, v)
    return out


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
    v = vel.v
    out = np.empty((4, 4))
    out[0, 0] = 1.0
    out[0, 1:] = -v
    out[1:, 0] = -v
    out[1:, 1:] = np.outer(v, v)
    return out


def _rodrigues(axis: np.ndarray, theta: float) -> np.ndarray:
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def rotation4(axis, theta: float) -> np.ndarray:
    """Block rotation diag(1, R_theta(axis)) about a unit axis."""
    axis = _vec3(axis)
    n = float(np.linalg.norm(axis))
    if abs(n - 1) > 1e-9:
        raise BadAxis(f"axis norm {n} is not 1 within tolerance")
    out = np.eye(4)
    out[1:, 1:] = _rodrigues(axis / n, float(theta))
    return out


RESTRICTED = "restricted"
RESCALED_RESTRICTED = "rescaled_restricted"
RESCALED_NULL_BOOST_PRODUCT = "rescaled_null_boost_product"
OTHER = "other"


def _is_restricted(m: np.ndarray, d: float, tol: float) -> bool:
    if m[0, 0] <= 0:
        return False
    if np.max(np.abs(m.T @ ETA @ m - ETA)) > tol:
        return False
    return abs(d - 1.0) <= tol


def _null_product_parts(m: np.ndarray, tol: float):
    """Try to read m as scale * [1, -v_col] (x) [1, -v_row]; None if it is not."""
    s = m[0, 0]
    if s <= tol:
        return None
    v_row = -m[0, 1:] / s
    v_col = -m[1:, 0] / s
    nr = float(np.linalg.norm(v_row))
    nc = float(np.linalg.norm(v_col))
    if abs(nr - 1) > 1e-6 or abs(nc - 1) > 1e-6:
        return None
    left = np.concatenate([[1.0], -v_col])
    right = np.concatenate([[1.0], -v_row])
    recon = s * np.outer(left, right)
    if np.max(np.abs(m - recon)) > tol * max(1.0, s):
        return None
    return s, v_row / nr, v_col / nc


def classify(L, tol: float = 1e-9) -> str:
    """Sort a 4x4 matrix into restricted / rescaled restricted /
    rescaled-null-boost product / other."""
    return _classify(mat4(L), tol)[0]


def _classify(m: np.ndarray, tol: float) -> tuple[str, float]:
    """The class of m and its determinant."""
    d = float(np.linalg.det(m))
    if _is_restricted(m, d, tol):
        return RESTRICTED, d
    if d > tol:
        s = d ** 0.25
        if m[0, 0] > 0 and _is_restricted(m / s, d / s**4, tol):
            return RESCALED_RESTRICTED, d
    if abs(d) <= max(tol, tol * np.max(np.abs(m)) ** 4):
        if _null_product_parts(m, tol) is not None:
            return RESCALED_NULL_BOOST_PRODUCT, d
    return OTHER, d


def _min_rotation3(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Smallest-angle rotation taking unit vector u to unit vector w."""
    c = float(u @ w)
    ax = np.cross(u, w)
    s = float(np.linalg.norm(ax))
    if c > 1 - 1e-14:
        return np.eye(3)
    if c < -1 + 1e-14:
        # pi rotation about any axis orthogonal to u; pick deterministically
        e = np.zeros(3)
        e[int(np.argmin(np.abs(u)))] = 1.0
        axis = e - (e @ u) * u
        axis = axis / np.linalg.norm(axis)
        return _rodrigues(axis, np.pi)
    return _rodrigues(ax / s, float(np.arctan2(s, c)))


def decompose(L, tol: float = 1e-9) -> LorentzDecomposition:
    """Unique factorization scale * rotation * boost(velocity).

    Restricted (possibly rescaled) input: the boost velocity is read from
    the first row, v_i = -L_{0i}/L_{00}, which is what makes
    decompose(R L(v)) return exactly (R, v). Null-product input: the boost
    velocity comes from the first row and the rotation is the smallest-angle
    rotation carrying it onto the (normalized) first column.
    """
    m = mat4(L)
    return _decompose(m, *_classify(m, tol), tol)


def _decompose(m: np.ndarray, kind: str, d: float, tol: float) -> LorentzDecomposition:
    """decompose for m of class kind and determinant d."""
    if kind == OTHER:
        raise NotDecomposable("matrix is not a (rescaled) restricted transform "
                              "or rescaled null-boost product")
    if kind in (RESTRICTED, RESCALED_RESTRICTED):
        s = d ** 0.25
        m1 = m / s
        v = -m1[0, 1:] / m1[0, 0]
        vel = _velocity(v)
        rot = m1 @ pure_boost(Velocity(v=-vel.v, kind=TIMELIKE))
        return LorentzDecomposition(rotation=rot, velocity=vel, scale=s)
    s, v_row, v_col = _null_product_parts(m, tol)
    rot = np.eye(4)
    rot[1:, 1:] = _min_rotation3(v_row, v_col)
    return LorentzDecomposition(
        rotation=rot, velocity=Velocity(v=v_row, kind=NULL), scale=float(s)
    )


def rotation_axis_angle(r3) -> tuple[np.ndarray, float]:
    """Axis and angle (in [0, pi]) of a proper 3x3 rotation.

    The angle comes from atan2 of the antisymmetric part against the trace;
    near theta = pi the axis is recovered from the symmetric part, whose
    dominant diagonal entry stays well-conditioned there.
    """
    r = np.asarray(r3, dtype=float)
    if r.shape != (3, 3):
        raise MalformedInput("expected a 3x3 rotation matrix")
    a = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin_t = float(np.linalg.norm(a)) / 2
    cos_t = (float(np.trace(r)) - 1.0) / 2
    theta = float(np.arctan2(sin_t, cos_t))
    if theta < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    if theta < 3.0:
        axis = a / (2 * sin_t)
        return axis / np.linalg.norm(axis), theta
    # pi branch: nn^T = (sym(r) - cos I) / (1 - cos)
    outer = ((r + r.T) / 2 - cos_t * np.eye(3)) / (1.0 - cos_t)
    k = int(np.argmax(np.diag(outer)))
    n = outer[:, k] / np.sqrt(max(outer[k, k], 1e-300))
    n = n / np.linalg.norm(n)
    if np.linalg.norm(a) > 1e-12:
        if float(a @ n) < 0:
            n = -n
    else:
        j = int(np.argmax(np.abs(n)))
        if n[j] < 0:
            n = -n
    return n, theta


def su2_from_axis_angle(axis, theta: float) -> np.ndarray:
    """cos(theta/2) I - i sin(theta/2) (axis . sigma), a special unitary."""
    return _su2(_vec3(axis), theta)


def _su2(axis: np.ndarray, theta: float) -> np.ndarray:
    half = float(theta) / 2
    n_dot_sigma = axis[0] * SIGMA[1] + axis[1] * SIGMA[2] + axis[2] * SIGMA[3]
    return np.cos(half) * np.eye(2, dtype=complex) - 1j * np.sin(half) * n_dot_sigma


def _effect_root(v: np.ndarray, g: float) -> np.ndarray:
    """Root of the effect (1, -v), |v| <= 1, whose sqrt(det) is g/2 with
    g = sqrt(1 - |v|^2) (0 when null); lambda times it is the positive
    measurement element of the effect lambda^2 (1, -v)."""
    return _psd_root(_from_coords(1.0, *-v), g / 2)


def boost_root(vel) -> np.ndarray:
    """The unit-determinant positive matrix whose psi image is pure_boost(v)."""
    vel = _as_velocity(vel)
    if vel.kind != TIMELIKE:
        raise NotTimelike("boost_root requires a timelike velocity")
    g = math.sqrt(1.0 - float(vel.v @ vel.v))
    return math.sqrt(2.0 / g) * _effect_root(vel.v, g)


def _fix_unitary_sign(u: np.ndarray) -> np.ndarray:
    """Canonical sign: Re(u00) >= 0, ties broken to Im(u00) >= 0."""
    re = u[0, 0].real
    if re < 0 or (re == 0 and u[0, 0].imag < 0):
        return -u
    return u


def spinor_lift(L, tol: float = 1e-9) -> np.ndarray:
    """Lift a restricted transform to the unit-determinant 2x2 matrix A with
    psi(A) = L. A and -A are the two preimages; the returned sign follows
    the unitary-factor convention of _fix_unitary_sign."""
    m = mat4(L)
    kind, d = _classify(m, tol)
    if kind != RESTRICTED:
        raise NotRestricted("spinor_lift requires a restricted Lorentz transform")
    dec = _decompose(m, kind, d, tol)
    axis, theta = rotation_axis_angle(dec.rotation[1:, 1:])
    return _fix_unitary_sign(_su2(axis, theta)) @ boost_root(dec.velocity)
