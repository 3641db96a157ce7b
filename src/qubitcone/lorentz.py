"""Lorentz-group machinery on 4x4 real matrices.

Pure boosts and rescaled null boosts (the finite gamma^{-1}-scaled limits
of boosts at the speed of light), both multiples of the one adjoint._boost
formula; Bloch-block rotations, the psi images of SU(2) spinors and read
back through the same lift; classification of a 4x4 matrix against those
families, the rotation-times-boost decomposition, and the two-to-one spinor
lift back to unit-determinant 2x2 complex matrices. Classification,
decomposition and lift read the one psi preimage A = _fitting_preimage(L), and
every factorisation the one scalar core _core: _classify takes its speed and
scale alone, while decompose, like element_to_lorentz for M, builds the record
EffectGeometry with _geometry, which alone forms the polar factor.
The chain is scalar: qmat._entries validates L once into 16 floats, A passes as
four Python complex numbers, the psi residual reads _psi_entries, and an array
is formed only for a returned result, as one flat np.array and a reshape. The
residual and unit-determinant tests read qmat.TOL.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .adjoint import _boost, _preimage, _psi, _psi_entries
from .conemap import _HALF_ETA
from .errors import (
    BadAxis,
    MalformedInput,
    NotDecomposable,
    NotNull,
    NotRestricted,
    NotTimelike,
    TooLarge,
    ZeroElement,
)
from .qmat import TOL, _entries, _finite, _scaled_gram, _shaped, _unitary_factor

# The null band 1 - TOL_V <= |v| <= 1 + TOL_V of _is_null and velocity. TOL_V
# bands a speed, not a residual, so it is kept apart from qmat.TOL.
TOL_V = 1e-9

TIMELIKE = "timelike"
NULL = "null"


@dataclass(frozen=True, eq=False)
class Velocity:
    """A 3-velocity v and its kind, checked here and never renormalised: v is a finite
    3-vector, of norm below 1 when timelike and within TOL of 1 when null; else MalformedInput.
    v is kept as a read-only copy, so that no later change to the caller's array escapes the check."""

    v: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in (TIMELIKE, NULL):
            raise MalformedInput(f"velocity kind must be {TIMELIKE!r} or {NULL!r}, got {self.kind!r}")
        v = np.array(_shaped(self.v, (3,), float, "3-vector"))
        v.flags.writeable = False
        s = math.hypot(*v.tolist())  # NaN or inf when an entry is, and fits neither kind
        if not (s < 1 if self.kind == TIMELIKE else abs(s - 1) <= TOL):
            raise MalformedInput(f"|v| = {s} does not fit a {self.kind} velocity")
        object.__setattr__(self, "v", v)


def _velocity(v: np.ndarray, kind: str) -> Velocity:
    """The Velocity of a fresh array v, which no caller holds, that velocity or _geometry has
    just classified as kind by its norm: Velocity's check is not run a second time."""
    vel = object.__new__(Velocity)
    object.__setattr__(vel, "v", v)
    object.__setattr__(vel, "kind", kind)
    return vel


@dataclass(frozen=True, eq=False)
class LorentzDecomposition:
    rotation: np.ndarray  # 4x4 block-diagonal proper rotation
    velocity: Velocity
    scale: float


@dataclass(frozen=True, eq=False)
class EffectGeometry(LorentzDecomposition):
    """The record of the forward maps: the factorisation psi(M) = scale * rotation *
    boost(velocity), the effect four-vector e_vec = phi(M†M) it was read from, and
    V = v_vec = eta e_vec / 2."""

    e_vec: np.ndarray

    @property
    def v_vec(self) -> np.ndarray:
        return self.e_vec * _HALF_ETA

    @property
    def kind(self) -> str:
        return self.velocity.kind


def _is_null(speed):
    """The null rule 1 - |v| <= TOL_V on a speed |v|, such as |e[1:]| / e[0] of an effect
    four-vector e, elementwise on arrays: velocity, _core and correspond._information read it."""
    return speed >= 1 - TOL_V


def velocity(v) -> Velocity:
    """Classify a 3-velocity by the null rule _is_null: null, returned normalized, up
    to |v| = 1 + TOL_V, timelike below 1 - TOL_V, and NotTimelike above 1 + TOL_V.
    A Velocity is returned as it is."""
    if isinstance(v, Velocity):
        return v
    arr = _finite(v, (3,), float, "3-vector")
    with np.errstate(over="ignore"):  # a norm beyond the float range reads inf: superluminal
        s = math.sqrt(arr.dot(arr))  # np.linalg.norm of a real 1-D array, its warning text included
    if s > 1 + TOL_V:
        raise NotTimelike(f"|v| = {s} is superluminal")
    return _velocity(arr / s, NULL) if _is_null(s) else _velocity(arr.copy(), TIMELIKE)


def pure_boost(vel) -> np.ndarray:
    """Pure Lorentz boost of timelike velocity v, gamma = 1/sqrt(1 - v^2)."""
    vel = velocity(vel)
    if vel.kind != TIMELIKE:
        raise NotTimelike("pure_boost requires a timelike velocity")
    g = math.sqrt(1.0 - float(vel.v.dot(vel.v)))
    return np.array([x / g for x in _boost(vel.v, g)]).reshape(4, 4)


def null_boost_rescaled(vel) -> np.ndarray:
    """The finite gamma^{-1}-rescaled limit of pure boosts as |v| -> 1.

    A singular rank-1 matrix: [[1, -v^T], [-v, v v^T]].

    For a timelike u = |u| v the difference is exact:
        pure_boost(u)/gamma - N = [[0, (1 - |u|) v^T],
                                   [(1 - |u|) v, gamma^{-1} (I - v v^T)]],
    so the max-norm gap is gamma^{-1} (1 - min_i v_i^2) and pure boosts
    converge to N at rate gamma^{-1} = sqrt(1 - |u|^2).
    """
    vel = velocity(vel)
    if vel.kind != NULL:
        raise NotNull("null_boost_rescaled requires a null velocity")
    return np.array(_boost(vel.v, 0.0)).reshape(4, 4)


def rotation4(axis, theta: float) -> np.ndarray:
    """Block rotation diag(1, R) about a unit axis, R the block of psi(su2_from_axis_angle)."""
    out = np.eye(4)
    out[1:, 1:] = _psi(su2_from_axis_angle(axis, theta))[1:, 1:]
    return out


RESTRICTED = "restricted"
RESCALED_RESTRICTED = "rescaled_restricted"
RESCALED_NULL_BOOST_PRODUCT = "rescaled_null_boost_product"
OTHER = "other"


def _core(a: list, mu: float) -> tuple:
    """The scalars of psi(a) = scale * psi(U) * boost(v), for the entries of a 2x2 a as Python
    complex numbers and mu = max|a|: the _scaled_gram n, det n that U = _unitary_factor takes
    and p0, p1, h01 of n†n, of Pauli coordinates (t, x, y, z) = (p0 + p1, 2 Re h01,
    -2 Im h01, p0 - p1), v = -(x, y, z)/t, which does not underflow with a, |v| and the scale:
    |det a| timelike (1 - |v| > TOL_V), else e0/2 = Tr(a†a)/2, formed as mu (mu |det n|) and
    mu (mu t / 2) so that they are finite whenever representable, as e0 may not be."""
    if not mu:
        raise ZeroElement("the zero element carries no Lorentz data")
    n, d, p0, p1, h01 = _scaled_gram(a, mu)
    t = p0 + p1
    v3 = (-2 * h01.real / t, 2 * h01.imag / t, (p1 - p0) / t)
    speed = math.hypot(*v3)
    return n, d, p0, p1, h01, v3, speed, mu * (mu * t / 2) if _is_null(speed) else mu * (mu * abs(d))


def _geometry(a: list, mu: float) -> EffectGeometry:
    """The record of the _core of a with mu = max|a|: the velocity v, a null one divided by its
    speed, the scale, the rotation psi of the unitary polar factor of n with det n, and the effect
    coordinates e = phi(a†a) = mu^2 (t, x, y, z). TooLarge when e[0], which bounds e, overflows."""
    n, d, p0, p1, h01, v3, speed, scale = _core(a, mu)
    e = [mu * (mu * c) for c in (p0 + p1, 2 * h01.real, -2 * h01.imag, p0 - p1)]
    if not math.isfinite(e[0]):
        raise TooLarge("an element's effect M†M overflows")
    null = _is_null(speed)
    vel = _velocity(np.array([c / speed for c in v3] if null else v3), NULL if null else TIMELIKE)
    rotation = np.array(_psi_entries(_unitary_factor(n, d))).reshape(4, 4)
    return EffectGeometry(rotation=rotation, velocity=vel, scale=scale, e_vec=np.array(e))


def _fits(a: list, flat: list) -> bool:
    """|psi(A) - L| <= TOL entrywise, for the entries of A and the row-major entries
    of a finite L. A non-finite A fails: psi(A)_00 = (|a00|^2 + ... + |a11|^2)/2, the
    first difference, is then inf or NaN, and max keeps it."""
    return max(map(abs, map(operator.sub, _psi_entries(a), flat))) <= TOL


def _fitting_preimage(L) -> list | None:
    """The entries of the psi preimage A (Tr A >= 0) of a 4x4 L, validated here;
    None when L is 0 or not in the image of psi."""
    flat = _entries(L, (4, 4), float, "4x4 matrix")
    norm = max(map(abs, flat))
    if norm == 0:
        return None
    unit = [x / norm for x in flat]
    a = _preimage(unit, norm)
    r = 1 / math.sqrt(norm)  # psi(A r) against L / norm: nothing over- or underflows
    return a if _fits([x * r for x in a], unit) else None


def _classify(L) -> tuple[str, list | None]:
    """The class of a 4x4 L and the entries of its psi preimage A (None when other), read
    off the speed and scale of _core(A): no Velocity, record or effect coordinates are formed."""
    a = _fitting_preimage(L)
    if a is None:
        return OTHER, None
    *_, speed, scale = _core(a, max(map(abs, a)))
    if _is_null(speed):
        return RESCALED_NULL_BOOST_PRODUCT, a
    return (RESTRICTED if abs(scale - 1) <= TOL else RESCALED_RESTRICTED), a


def classify(L) -> str:
    """Sort a 4x4 matrix into restricted / rescaled restricted /
    rescaled-null-boost product / other.

    L is other when it is 0 or when its psi preimage A misses it by more
    than TOL max|L|: the test is relative. Else a null velocity of A's
    factorisation (1 - |v| <= TOL_V) makes a null-boost product, and a
    timelike one a restricted transform when |det A| = 1 within TOL.
    """
    return _classify(L)[0]


def decompose(L) -> EffectGeometry:
    """Factorization scale * rotation * boost(velocity) of the psi preimage
    A of L (see classify), unique unless L is a null-boost product, with the
    effect four-vector e_vec = phi(A†A); TooLarge where e_vec[0] = 2 L_00 overflows.

    A has Tr A >= 0, so decompose(psi(M)) = element_to_lorentz(e^{-i arg Tr M} M)
    for every nonzero M, and decompose(R L(v)) = (R, v).
    """
    a = _fitting_preimage(L)
    if a is None:
        raise NotDecomposable("matrix is not a (rescaled) restricted transform "
                              "or rescaled null-boost product")
    return _geometry(a, max(map(abs, a)))


def _rotation_spinor(flat: list) -> list:
    """The entries of the U with det U = 1, signed as _unit_det describes, and psi(U) = rot within
    TOL, for the 16 entries flat of a proper block rotation rot = diag(1, R); else NotDecomposable."""
    edge = flat[:4] + flat[4::4]  # row 0 and column 0
    if max(abs(edge[0] - 1.0), *map(abs, edge[1:])) > TOL:
        raise NotDecomposable("rotation is not a Bloch-block rotation")
    ell = max(map(abs, flat))
    u = _unit_det(_preimage([x / ell for x in flat], ell))
    if not _fits(u, flat):
        raise NotDecomposable("rotation block is not a proper rotation")
    return u


def rotation_axis_angle(r3) -> tuple[np.ndarray, float]:
    """Axis and angle (in [0, pi]) of a proper 3x3 rotation R, read from the lift
    u = cos(theta/2) I - i sin(theta/2) (axis . sigma) of diag(1, R), signed so that
    cos(theta/2) >= 0; the angle 0 has the axis z. NotDecomposable unless R is a
    proper rotation within TOL."""
    r = _entries(r3, (3, 3), float, "3x3 rotation matrix")
    u00, u01, u10, u11 = _rotation_spinor([1.0, 0.0, 0.0, 0.0, 0.0, *r[:3], 0.0, *r[3:6], 0.0, *r[6:]])
    s = (-(u01 + u10).imag / 2, (u10 - u01).real / 2, (u11 - u00).imag / 2)
    sin_half = math.hypot(*s)
    if sin_half == 0:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return np.array(s) / sin_half, 2 * math.atan2(sin_half, (u00 + u11).real / 2)


def su2_from_axis_angle(axis, theta: float) -> np.ndarray:
    """cos(theta/2) I - i sin(theta/2) (axis . sigma), a special unitary, about
    an axis of norm 1 within TOL (normalised; else BadAxis)."""
    axis = _finite(axis, (3,), float, "3-vector")
    with np.errstate(over="ignore"):  # a norm beyond the float range reads inf: BadAxis
        n = math.sqrt(axis.dot(axis))  # np.linalg.norm, as in velocity
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
    kind, a = _classify(L)
    if kind != RESTRICTED:
        raise NotRestricted("spinor_lift requires a restricted Lorentz transform")
    return np.array(_unit_det(a)).reshape(2, 2)
