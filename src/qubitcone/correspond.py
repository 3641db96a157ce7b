"""Both directions of the measurement / Lorentz correspondence.

Forward: a nonzero measurement element M factors through its polar
decomposition into psi(M) = scale * R * L(v), a rescaled restricted
transform (or rescaled null boost when the effect M†M is projective).
Backward: a decomposed transform yields a one-parameter family of
admissible measurement elements M(lambda). The mixedness and probability
identities tying the two pictures together live here as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import _psi
from .conemap import ETA, _minkowski, minkowski
from .errors import (
    InvalidMeasurement,
    LambdaOutOfRange,
    NotPositive,
    NullOrSpacelike,
    TooLarge,
)
from .lorentz import NULL, LorentzDecomposition, Velocity, _factor, _rotation_spinor
from .qmat import (
    _coords,
    _eigenvalues,
    _finite,
    _gram,
    _hermitize,
    _is_positive,
    _sqrt_psd,
    _unitary_factor,
    mat2,
)

COMPLETENESS_TOL = 1e-9

# V = eta phi(M†M) / 2 of an effect four-vector phi(M†M)
_HALF_ETA = 0.5 * ETA.diagonal()


@np.errstate(over="ignore", invalid="ignore")
def _completeness(elements: np.ndarray) -> float:
    """max |sum M†M - I| over the entries, of a (K, 2, 2) element array;
    inf or nan when an effect overflows."""
    total = (elements.conj().swapaxes(-1, -2) @ elements).sum(axis=0)
    return float(np.max(np.abs(total - np.eye(2))))


@dataclass(frozen=True, eq=False)
class Measurement:
    elements: np.ndarray  # (K, 2, 2) complex, K >= 1
    deviation: float = field(init=False)  # _completeness(elements), formed once

    def __post_init__(self):
        object.__setattr__(self, "deviation", _completeness(self.elements))


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


def completeness_deviation(meas: Measurement) -> float:
    return meas.deviation


def validate(meas: Measurement, tol: float = COMPLETENESS_TOL) -> bool:
    """True iff the elements satisfy sum M†M = identity within tol."""
    return meas.deviation <= tol


def effect(m) -> np.ndarray:
    """The effect M†M of a measurement element, exactly hermitian."""
    return _gram(mat2(m))


def _effect_vectors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Four-vectors of the effects of validated (..., 2, 2) elements:
    e_vec = phi(M†M) and its index-lowered half v_vec = eta e_vec / 2."""
    e_vec = _coords(_gram(m))
    return e_vec, e_vec * _HALF_ETA


def _probabilities(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr(M†M rho) of validated (..., 2, 2) elements m and state rho."""
    return np.real(np.trace(_gram(m) @ rho, axis1=-2, axis2=-1))


def _post_state(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Unrescaled post-measurement states M rho M† of validated m and rho."""
    return _hermitize(m @ rho @ m.conj().swapaxes(-1, -2))


def _post_vector(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return _coords(_post_state(m, rho))


def _state(rho, tol: float = 1e-9) -> np.ndarray:
    """Validate a positive state."""
    rho = mat2(rho)
    if not _is_positive(rho, tol):
        raise NotPositive("state is not positive")
    return rho


def apply_element(m, rho, tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Outcome probability Tr(M†M rho) and unrescaled post state M rho M†."""
    m, rho = mat2(m), _state(rho, tol)
    return float(_probabilities(m, rho)), _post_state(m, rho)


def element_to_lorentz(m) -> EffectGeometry:
    """Forward correspondence: psi(M) = scale * rotation * boost(velocity)."""
    m = mat2(m)
    vel, scale, n, d = _factor(m)
    e_vec, v_vec = _effect_vectors(m)
    return EffectGeometry(
        e_vec=e_vec,
        v_vec=v_vec,
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
        rotation_u=_rotation_spinor(decomp.rotation),
        velocity=decomp.velocity,
        lambda_max=lambda_max(decomp.velocity),
        kind=decomp.velocity.kind,
    )


def lorentz_to_element(decomp: LorentzDecomposition, lam: float | None = None) -> np.ndarray:
    """Backward correspondence: the measurement element M(lambda) = U sqrt(E(lambda)).

    Default lambda is lambda_max, which maximizes the element's probability
    weight; any admissible lambda yields the same transform up to scale.
    """
    family = element_family(decomp)
    if lam is None:
        lam = family.lambda_max
    lam = float(lam)
    if not (0.0 < lam <= family.lambda_max * (1.0 + 1e-12)):
        raise LambdaOutOfRange(f"lambda = {lam} outside (0, {family.lambda_max}]")
    v = family.velocity.v
    g = 0.0 if family.kind == NULL else math.sqrt(1.0 - v @ v)
    # lam sqrt(E) = lam (E + (g/2) I) / sqrt(1 + g) for the effect E with coordinates
    # (1, -v), sqrt(det E) = g/2: the positive element of the effect lam^2 (1, -v)
    vx, vy, vz = v.tolist()
    root = np.array([[1.0 - vz + g, complex(-vx, vy)], [complex(-vx, -vy), 1.0 + vz + g]])
    return family.rotation_u @ (lam / (2 * math.sqrt(1.0 + g)) * root)


def complete_to_measurement(m, tol: float = 1e-9) -> Measurement:
    """Pad a single admissible element, M†M <= I within tol, to a
    two-outcome measurement.

    tol bounds the largest eigenvalue of M†M above 1, so it is relative to
    I rather than to I - M†M, which is round-off for a unitary M. The
    complement sqrt(I - M†M) is dropped when it vanishes.
    """
    e = effect(m)
    if _eigenvalues(e)[0] > 1 + tol:
        raise TooLarge("I - M†M is not positive; element cannot be completed")
    comp = _sqrt_psd(np.eye(2) - e)
    if np.max(np.abs(comp)) <= 1e-12:
        return measurement([m])
    return measurement([m, comp])


def prop2_invariants(meas_element, rho, tol: float = 1e-9) -> Prop2Report:
    """The mixedness and probability identities for one element and state.

    lhs_norm and rhs_norm are the two sides of
    eta(rho_m, rho_m) = eta(V, V) eta(rho, rho); the two p values are the
    invariant-probability form eta(V, rho) and the direct Tr(E rho).
    """
    m, rho = mat2(meas_element), _state(rho, tol)
    rho_vec = _coords(rho)
    _, v_vec = _effect_vectors(m)
    post_vec = _post_vector(m, rho)
    return Prop2Report(
        lhs_norm=float(_minkowski(post_vec, post_vec)),
        rhs_norm=float(_minkowski(v_vec, v_vec) * _minkowski(rho_vec, rho_vec)),
        p_from_minkowski=float(_minkowski(v_vec, rho_vec)),
        p_direct=float(_probabilities(m, rho)),
    )


def info_measure(v) -> float:
    """log2 of the Minkowski self-product; additive under measurement:
    I(rho_m) = I(V_m) + I(rho) whenever all three are timelike."""
    n2 = minkowski(v, v)
    if n2 <= 0:
        raise NullOrSpacelike("information measure requires a timelike vector")
    return float(np.log2(n2))


def require_valid(meas: Measurement, tol: float = COMPLETENESS_TOL) -> None:
    if not validate(meas, tol):
        raise InvalidMeasurement(f"measurement completeness deviation {meas.deviation} exceeds {tol}")
