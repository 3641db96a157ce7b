"""Both directions of the measurement / Lorentz correspondence.

Forward: a nonzero measurement element M factors through its polar
decomposition into psi(M) = scale * R * L(v), a rescaled restricted
transform (or rescaled null boost when the effect M†M is projective).
Backward: a decomposed transform yields a one-parameter family of
admissible measurement elements M(lambda). The mixedness and probability
identities tying the two pictures together live here as well.

A measurement keeps its psi(M) stack: the post vector phi(M rho M†) is
psi(M) phi(rho), its time component the probability Tr(M†M rho), and row 0
of psi(M) is phi(M†M)/2. Only prop2_invariants forms Tr(M†M rho) directly.
A state is validated once, into its cone vector: _state_vector forms phi(rho)
and reads positivity and the trace off those four coordinates. Positivity,
unit trace and completeness are tested within qmat.TOL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import _psi
from .conemap import ETA, _minkowski, fourvector
from .errors import (
    InvalidMeasurement,
    LambdaOutOfRange,
    NotNormalized,
    NotPositive,
    NullOrSpacelike,
    TooLarge,
)
from .lorentz import NULL, LorentzDecomposition, Velocity, _factor, _is_null, _rotation_spinor
from .qmat import (
    TOL,
    _coords,
    _eigenvalues,
    _finite,
    _from_coords,
    _gram,
    _positive,
    _sqrt_psd,
    _unitary_factor,
    mat2,
)

# V = eta phi(M†M) / 2 of an effect four-vector phi(M†M)
_HALF_ETA = 0.5 * ETA.diagonal()


def _completeness(elements: np.ndarray) -> float:
    """max |sum M†M - I| over the entries, of a (K, 2, 2) element array;
    inf or nan when an effect overflows."""
    total = (elements.conj().swapaxes(-1, -2) @ elements).sum(axis=0)
    return float(np.max(np.abs(total - np.eye(2))))


@dataclass(frozen=True, eq=False)
class Measurement:
    elements: np.ndarray  # (K, 2, 2) complex, K >= 1, a read-only copy of the input
    deviation: float = field(init=False)  # _completeness(elements), formed once
    transforms: np.ndarray = field(init=False)  # _psi(elements), (K, 4, 4), formed once

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        # a copy, so that no later change to the caller's array makes the fields below stale
        object.__setattr__(self, "elements", np.array(self.elements, dtype=complex))
        self.elements.flags.writeable = False
        object.__setattr__(self, "deviation", _completeness(self.elements))
        object.__setattr__(self, "transforms", _psi(self.elements))
        self.transforms.flags.writeable = False  # engines hand out its rows


def measurement(elements) -> Measurement:
    """Validate the elements once, as one (K, 2, 2) complex array, K >= 1."""
    return Measurement(elements=_finite(elements, (None, 2, 2), complex, "stack of 2x2 matrices"))


@dataclass(frozen=True, eq=False)
class EffectGeometry:
    e_vec: np.ndarray
    v_vec: np.ndarray
    velocity: Velocity
    scale: float
    rotation: np.ndarray
    kind: str


@dataclass(frozen=True, eq=False)
class ElementFamily:
    rotation_u: np.ndarray
    velocity: Velocity
    lambda_max: float
    kind: str


@dataclass(frozen=True)
class Prop2Report:
    lhs_norm: float
    rhs_norm: float
    p_from_minkowski: float
    p_direct: float


def validate(meas: Measurement, tol: float = TOL) -> bool:
    """True iff the elements satisfy sum M†M = identity within tol."""
    return meas.deviation <= tol


def effect(m) -> np.ndarray:
    """The effect M†M of a measurement element, exactly hermitian."""
    return _gram(mat2(m))


def _state_vector(rho: np.ndarray, unit_trace: bool = False) -> np.ndarray:
    """phi(rho) of a 2x2 array rho that passes mat2, validated on those coordinates:
    positive by qmat._positive, and of trace phi(rho)[0] within TOL of 1 when
    unit_trace is set."""
    rho_vec = _coords(rho)
    if not _positive(rho_vec):
        raise NotPositive("state is not positive")
    if unit_trace and abs(rho_vec[0] - 1.0) > TOL:
        raise NotNormalized("state must have unit trace")
    return rho_vec


def apply_element(m, rho) -> tuple[float, np.ndarray]:
    """Outcome probability Tr(M†M rho) and unrescaled post state M rho M†, from psi(M) phi(rho)."""
    m, rho_vec = mat2(m), _state_vector(mat2(rho))
    post = _psi(m) @ rho_vec
    return float(post[0]), _from_coords(post)


def element_to_lorentz(m) -> EffectGeometry:
    """Forward correspondence: psi(M) = scale * rotation * boost(velocity)."""
    m = mat2(m)
    vel, scale, n, d, e = _factor(m.ravel().tolist(), float(np.abs(m).max()))
    e_vec = np.array(e)
    return EffectGeometry(
        e_vec=e_vec,
        v_vec=e_vec * _HALF_ETA,
        velocity=vel,
        scale=scale,
        rotation=_psi(_unitary_factor(n, d)),
        kind=vel.kind,
    )


def lambda_max(vel: Velocity) -> float:
    """Largest admissible element scale: sqrt(2/(1+v)) timelike, 1 null."""
    if vel.kind == NULL:
        return 1.0
    return math.sqrt(2.0 / (1.0 + math.hypot(*vel.v.tolist())))


def element_family(decomp: LorentzDecomposition) -> ElementFamily:
    """The lambda-family of elements equivalent (up to scale) to a transform."""
    return ElementFamily(
        rotation_u=np.array(_rotation_spinor(decomp.rotation)).reshape(2, 2),
        velocity=decomp.velocity,
        lambda_max=lambda_max(decomp.velocity),
        kind=decomp.velocity.kind,
    )


def lorentz_to_element(decomp: LorentzDecomposition, lam: float | None = None) -> np.ndarray:
    """Backward correspondence: the measurement element M(lambda) = U sqrt(E(lambda)).

    Default lambda is lambda_max, which maximizes the element's probability
    weight; any admissible lambda yields the same transform up to scale.
    """
    u00, u01, u10, u11 = _rotation_spinor(decomp.rotation)
    lam_max = lambda_max(decomp.velocity)
    if lam is None:
        lam = lam_max
    lam = float(lam)
    if not (0.0 < lam <= lam_max * (1.0 + 1e-12)):
        raise LambdaOutOfRange(f"lambda = {lam} outside (0, {lam_max}]")
    v = decomp.velocity.v
    g = 0.0 if decomp.velocity.kind == NULL else math.sqrt(1.0 - v @ v)
    # lam sqrt(E) = lam (E + (g/2) I) / sqrt(1 + g) for the effect E with coordinates
    # (1, -v), sqrt(det E) = g/2: the positive element of the effect lam^2 (1, -v)
    vx, vy, vz = v.tolist()
    k = lam / (2 * math.sqrt(1.0 + g))
    r00, r01, r10, r11 = k * (1.0 - vz + g), k * complex(-vx, vy), k * complex(-vx, -vy), k * (1.0 + vz + g)
    return np.array([[u00 * r00 + u01 * r10, u00 * r01 + u01 * r11],
                     [u10 * r00 + u11 * r10, u10 * r01 + u11 * r11]])


def complete_to_measurement(m) -> Measurement:
    """Pad a single admissible element, M†M <= I within TOL, to a
    two-outcome measurement.

    TOL bounds the largest eigenvalue of M†M above 1, so it is relative to
    I rather than to I - M†M, which is round-off for a unitary M. The
    complement sqrt(I - M†M) is dropped when it vanishes.
    """
    e = effect(m)
    if _eigenvalues(e)[0] > 1 + TOL:
        raise TooLarge("I - M†M is not positive; element cannot be completed")
    comp = _sqrt_psd(np.eye(2) - e)
    if np.max(np.abs(comp)) <= 1e-12:
        return measurement([m])
    return measurement([m, comp])


def prop2_invariants(meas_element, rho) -> Prop2Report:
    """The mixedness and probability identities for one element and state.

    lhs_norm and rhs_norm are the two sides of
    eta(rho_m, rho_m) = eta(V, V) eta(rho, rho); the two p values are the
    invariant-probability form eta(V, rho), V = eta psi(M)[0], and the direct Tr(E rho).
    """
    m, rho = mat2(meas_element), mat2(rho)
    rho_vec = _state_vector(rho)
    t = _psi(m)
    v_vec = 2 * t[0] * _HALF_ETA
    post_vec = t @ rho_vec
    return Prop2Report(
        lhs_norm=float(_minkowski(post_vec, post_vec)),
        rhs_norm=float(_minkowski(v_vec, v_vec) * _minkowski(rho_vec, rho_vec)),
        p_from_minkowski=float(_minkowski(v_vec, rho_vec)),
        p_direct=float(np.trace(_gram(m) @ rho).real),
    )


@np.errstate(all="ignore")  # a vector that is not timelike reads NaN, whatever its entries give
def _information(vecs: np.ndarray) -> np.ndarray:
    """log2 of the Minkowski self-products of the four-vectors v along the last
    axis, formed on v / 2^k with 1/2 <= v0 / 2^k < 1 so that no square over- or
    underflows; NaN unless v is timelike: v0 > 0 and a speed |v[1:]| / v0 that
    lorentz._is_null reads as timelike, so that round-off of a null v never decides."""
    t = vecs[..., 0]
    live = (t > 0) & ~_is_null(np.hypot(np.hypot(vecs[..., 1], vecs[..., 2]), vecs[..., 3]) / t)
    k = np.frexp(t)[1]
    w = np.ldexp(vecs, -k[..., None])
    return 2 * k + np.log2(_minkowski(w, w), out=np.full_like(t, np.nan), where=live)


def info_measure(v) -> float:
    """_information of one four-vector, additive under measurement:
    I(rho_m) = I(V_m) + I(rho) whenever all three are timelike."""
    info = float(_information(fourvector(v)))
    if math.isnan(info):
        raise NullOrSpacelike("information measure requires a timelike vector")
    return info


def require_valid(meas: Measurement) -> None:
    if not validate(meas):
        raise InvalidMeasurement(f"measurement completeness deviation {meas.deviation} exceeds {TOL}")
