"""The group law as an independent oracle: two measurements in sequence.

A positive element M_i = lorentz_to_element(LorentzDecomposition(I, v_i, 1))
maps to a pure boost, and psi(M2 M1) = psi(M2) psi(M1). The product of two
positive elements is not positive: its polar decomposition splits
B(v2) B(v1) into the boost of the Einstein sum v1 + v2 and the
Thomas-Wigner rotation of the pair. The oracles below are written from
special relativity, not from the package: Ungar, "Thomas rotation and the
parametrization of the Lorentz transformation group", Found. Phys. Lett. 1
(1988); Jackson, Classical Electrodynamics, section 11.8. Each product is
swept over element scales 1e-150 to 1e150, split between its two factors.

Bounds are in units of eps times the condition of what is compared: the
Einstein sum loses 1 / (1 + v1.v2), and the polar factor of a product near
the null band, and the factors' scales, lose about gamma1 gamma2.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import directions
from qubitcone import element_to_lorentz, lorentz_to_element, velocity
from qubitcone.lorentz import NULL, TIMELIKE, LorentzDecomposition, rotation_axis_angle

EPS = np.finfo(float).eps


def gamma(v: np.ndarray) -> float:
    return 1 / math.sqrt(1 - v @ v)


def einstein_sum(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u + v, the velocity of a frame moving at v in a frame moving at u."""
    gu = gamma(u)
    return (u + v / gu + gu / (1 + gu) * (u @ v) * u) / (1 + u @ v)


def half_rapidity_vector(v: np.ndarray) -> np.ndarray:
    """w = sqrt(gamma - 1) v / |v| = gamma v / sqrt(gamma + 1): gamma - 1 is formed
    as gamma^2 v^2 / (gamma + 1), which does not cancel at small speeds."""
    g = gamma(v)
    return g * v / math.sqrt(g + 1)


def wigner_angle(v1: np.ndarray, v2: np.ndarray) -> float:
    """2 atan2(sin t, k + cos t), t the angle between v1 and v2 and
    k = sqrt((g1 + 1)(g2 + 1) / ((g1 - 1)(g2 - 1))); both arguments are
    multiplied by sqrt((g1 - 1)(g2 - 1)), so that nothing divides by zero."""
    w1, w2 = half_rapidity_vector(v1), half_rapidity_vector(v2)
    g1, g2 = gamma(v1), gamma(v2)
    return 2 * math.atan2(np.linalg.norm(np.cross(w1, w2)), math.sqrt((g1 + 1) * (g2 + 1)) + w1 @ w2)


def positive_element(v: np.ndarray) -> np.ndarray:
    return lorentz_to_element(LorentzDecomposition(rotation=np.eye(4), velocity=velocity(v), scale=1.0))


def split_scale(exponent: float, share: float) -> tuple[float, float]:
    """Factors s1, s2 of the element scale 10^exponent, s1 = 10^(share * exponent)."""
    return 10.0 ** (share * exponent), 10.0 ** ((1 - share) * exponent)


speeds = st.floats(min_value=0.0, max_value=0.99)
fast_speeds = st.floats(min_value=0.0, max_value=1 - 1e-6)
exponents = st.floats(min_value=-150, max_value=150)
shares = st.floats(min_value=0.0, max_value=1.0)
Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


@settings(max_examples=300, deadline=None)
@given(directions, speeds, directions, speeds, exponents, shares)
@example(Z, 0.99, -Z, 0.99, 150.0, 0.5)
@example(Z, 0.99, Z, 0.99, -150.0, 0.0)
@example(Z, 0.99, X, 0.99, 150.0, 1.0)
@example(Z, 0.0, X, 0.0, 0.0, 0.5)
def test_sequential_boosts_compose_by_velocity_addition(n1, s1, n2, s2, exponent, share):
    """The product's velocity is the Einstein sum v1 + v2, and its scale is the
    product of the two factors' scales."""
    v1, v2 = s1 * n1, s2 * n2
    m1, m2 = positive_element(v1), positive_element(v2)
    a, b = split_scale(exponent, share)
    g = element_to_lorentz((b * m2) @ (a * m1))
    assert g.kind == TIMELIKE
    assert np.abs(g.velocity.v - einstein_sum(v1, v2)).max() <= 8 * EPS / (1 + v1 @ v2)
    expect = element_to_lorentz(m1).scale * element_to_lorentz(m2).scale * (a * b) ** 2
    assert abs(g.scale / expect - 1) <= 16 * EPS * gamma(v1) * gamma(v2)


@settings(max_examples=300, deadline=None)
@given(directions, fast_speeds, directions, fast_speeds, exponents, shares)
@example(Z, 1 - 1e-6, X, 1 - 1e-6, 150.0, 0.5)
@example(Z, 1 - 1e-6, -Z, 1 - 1e-6, -150.0, 0.5)
@example(Z, 1 - 1e-6, Z, 1 - 1e-6, 0.0, 0.5)
@example(Z, 1e-3, X, 1e-3, 0.0, 0.5)
def test_the_polar_factor_is_the_thomas_wigner_rotation(n1, s1, n2, s2, exponent, share):
    """The rotation of M2 M1 turns about +(v1 x v2) / |v1 x v2| by the Wigner angle.
    The axis is ill-conditioned as the angle goes to 0, so it is checked as the
    rotation vector angle * axis."""
    v1, v2 = s1 * n1, s2 * n2
    a, b = split_scale(exponent, share)
    g = element_to_lorentz((b * positive_element(v2)) @ (a * positive_element(v1)))
    axis, angle = rotation_axis_angle(g.rotation[1:, 1:])
    expect_angle = wigner_angle(v1, v2)
    bound = 4 * EPS * gamma(v1) * gamma(v2)
    assert abs(angle - expect_angle) <= bound
    cross = np.cross(v1, v2)
    norm = np.linalg.norm(cross)
    expect_axis = cross / norm if norm else cross  # parallel speeds: no rotation
    assert np.linalg.norm(angle * axis - expect_angle * expect_axis) <= bound


@settings(max_examples=200, deadline=None)
@given(directions, directions, speeds, exponents, shares)
@example(Z, X, 0.99, 150.0, 0.5)
@example(Z, -Z, 0.0, -150.0, 0.5)
def test_a_rank_one_factor_makes_the_product_null(null_dir, n, s, exponent, share):
    """A rank-one element times any element is rank one, so the product reads
    null in either order; with the rank-one factor applied first, the product's
    effect is that factor's, up to scale, and so is its velocity."""
    m_null, m = positive_element(null_dir), positive_element(s * n)
    assert element_to_lorentz(m_null).kind == NULL
    a, b = split_scale(exponent, share)
    first = element_to_lorentz((b * m) @ (a * m_null))
    assert first.kind == NULL
    assert np.abs(first.velocity.v - null_dir).max() <= 8 * EPS * gamma(s * n)
    assert element_to_lorentz((b * m_null) @ (a * m)).kind == NULL
