import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import directions, rand_restricted, rand_rotation4, rand_timelike, rand_unit3
from qubitcone.adjoint import psi
from qubitcone.conemap import ETA
from qubitcone.errors import (
    BadAxis,
    DomainError,
    MalformedInput,
    NotDecomposable,
    NotNull,
    NotRestricted,
    NotTimelike,
)
from qubitcone.lorentz import (
    NULL,
    OTHER,
    RESCALED_NULL_BOOST_PRODUCT,
    RESCALED_RESTRICTED,
    RESTRICTED,
    TIMELIKE,
    TOL_V,
    UNIT_ROUNDOFF,
    Velocity,
    classify,
    decompose,
    null_boost_rescaled,
    pure_boost,
    rotation4,
    rotation_axis_angle,
    spinor_lift,
    su2_from_axis_angle,
    velocity,
)

I4 = np.eye(4)


def test_velocity_classification():
    assert velocity([0.1, 0.2, 0.3]).kind == TIMELIKE
    v = velocity([0, 0, 1])
    assert v.kind == NULL and np.allclose(v.v, [0, 0, 1])
    with pytest.raises(NotTimelike):
        velocity([0, 0, 1.5])
    with pytest.raises(DomainError):
        velocity([0, 0, 1 - 1e-10])  # ambiguous band


def test_normalised_vectors_read_as_null():
    """The norm of a normalised vector rounds to within a few ulps of 1,
    below as often as above; it is null either way."""
    g = np.random.default_rng(16).normal(size=(1000, 3))
    units = g / np.linalg.norm(g, axis=1, keepdims=True)
    assert min(np.linalg.norm(units, axis=1)) < 1  # the case that used to fail
    for u in units:
        vel = velocity(u)
        assert vel.kind == NULL and abs(np.linalg.norm(vel.v) - 1) <= UNIT_ROUNDOFF


@pytest.mark.parametrize("gap", [1e-12, 1e-14, 8 * UNIT_ROUNDOFF, 2 * UNIT_ROUNDOFF, TOL_V / 2])
def test_speeds_in_the_ambiguous_band_still_raise(gap):
    with pytest.raises(DomainError):
        velocity([0, 0, 1 - gap])


def test_pure_boost_examples():
    assert np.allclose(pure_boost(velocity([0, 0, 0])), I4)

    b = pure_boost(velocity([0, 0, -0.5]))
    g = 2 / np.sqrt(3)
    assert np.allclose(b[0], [g, 0, 0, g / 2])

    v = velocity([0.3, -0.2, 0.4])
    back = Velocity(v=-v.v, kind=TIMELIKE)
    assert np.allclose(pure_boost(v) @ pure_boost(back), I4, atol=1e-14)


def test_pure_boost_properties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        vel = rand_timelike(rng)
        b = pure_boost(vel)
        assert np.max(np.abs(b.T @ ETA @ b - ETA)) < 1e-10
        assert np.linalg.det(b) == pytest.approx(1, abs=1e-10)
        assert b[0, 0] >= 1
        assert np.allclose(b, b.T)
    with pytest.raises(NotTimelike):
        pure_boost(velocity([0, 0, 1]))


def test_null_boost_examples():
    n = null_boost_rescaled(velocity([0, 0, -1]))
    assert np.allclose(
        n, [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]
    )
    n = null_boost_rescaled(velocity([1, 0, 0]))
    assert np.allclose(
        n, [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    v = rand_unit3(np.random.default_rng(1))
    n = null_boost_rescaled(Velocity(v=v, kind=NULL))
    assert np.allclose(n @ np.array([1, 0, 0, 0]), np.concatenate([[1], -v]))
    assert np.linalg.matrix_rank(n) == 1
    with pytest.raises(NotNull):
        null_boost_rescaled(velocity([0, 0, 0.5]))


def test_rotation4_examples():
    assert np.allclose(rotation4([0, 0, 1], 0.0), I4)
    r = rotation4([0, 0, 1], np.pi / 2)
    assert np.allclose(r @ np.array([0, 1, 0, 0]), [0, 0, 1, 0], atol=1e-15)
    assert np.allclose(rotation4([0, 1, 0], 2 * np.pi), I4, atol=1e-15)
    with pytest.raises(BadAxis):
        rotation4([0, 0, 2], 1.0)


def test_rotation4_rejects_a_non_finite_angle():
    """Before sin and cos see it, so nothing is warned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (np.inf, -np.inf, np.nan):
            with pytest.raises(MalformedInput):
                rotation4([0, 0, 1], theta)


def test_rotation4_properties():
    rng = np.random.default_rng(2)
    for _ in range(100):
        r = rand_rotation4(rng)
        assert np.allclose(r.T @ r, I4, atol=1e-13)
        assert np.linalg.det(r) == pytest.approx(1, abs=1e-12)
        assert np.allclose(r[0], [1, 0, 0, 0])


def test_classify_examples():
    assert classify(I4) == RESTRICTED
    assert classify(2 * I4) == RESCALED_RESTRICTED
    assert classify(null_boost_rescaled(velocity([0, 0, -1]))) == RESCALED_NULL_BOOST_PRODUCT
    assert classify(np.diag([1.0, 1, 1, 2])) == OTHER
    assert classify(-I4) == OTHER  # improper / non-orthochronous
    assert classify(np.zeros((4, 4))) == OTHER
    rng = np.random.default_rng(3)
    for _ in range(50):
        L = rand_restricted(rng)
        assert classify(L) == RESTRICTED
        assert classify(rng.uniform(0.2, 3.0) * L) in (RESTRICTED, RESCALED_RESTRICTED)


def test_decompose_examples():
    v = velocity([0.1, -0.2, 0.3])
    d = decompose(pure_boost(v))
    assert np.allclose(d.rotation, I4, atol=1e-12)
    assert np.allclose(d.velocity.v, v.v, atol=1e-12)
    assert d.scale == pytest.approx(1, abs=1e-12)

    r = rotation4([0, 0, 1], np.pi / 3)
    d = decompose(r)
    assert np.allclose(d.rotation, r, atol=1e-12)
    assert np.linalg.norm(d.velocity.v) < 1e-12
    assert d.scale == pytest.approx(1, abs=1e-12)

    s = np.sqrt(3) / 4
    d = decompose(s * pure_boost(velocity([0, 0, -0.5])))
    assert np.allclose(d.rotation, I4, atol=1e-12)
    assert np.allclose(d.velocity.v, [0, 0, -0.5], atol=1e-12)
    assert d.scale == pytest.approx(s, abs=1e-12)

    # small scale: det L = 1e-12 is below any absolute threshold
    d = decompose(1e-3 * pure_boost(velocity([0.1, 0, 0])))
    assert np.allclose(d.rotation, I4, atol=1e-15)
    assert np.allclose(d.velocity.v, [0.1, 0, 0], atol=1e-15)
    assert d.scale == pytest.approx(1e-3, rel=1e-14)


def test_decompose_uniqueness():
    rng = np.random.default_rng(4)
    for _ in range(200):
        r = rand_rotation4(rng)
        v = rand_timelike(rng)
        s = rng.uniform(0.2, 3.0)
        d = decompose(s * r @ pure_boost(v))
        assert np.max(np.abs(d.rotation - r)) < 1e-9
        assert np.max(np.abs(d.velocity.v - v.v)) < 1e-9
        assert d.scale == pytest.approx(s, abs=1e-9)
        recon = d.scale * d.rotation @ pure_boost(d.velocity)
        assert np.max(np.abs(recon - s * r @ pure_boost(v))) < 1e-9


def test_decompose_null_product():
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = rand_rotation4(rng)
        vel = Velocity(v=rand_unit3(rng), kind=NULL)
        s = rng.uniform(0.2, 3.0)
        L = s * r @ null_boost_rescaled(vel)
        assert classify(L) == RESCALED_NULL_BOOST_PRODUCT
        d = decompose(L)
        assert d.velocity.kind == NULL
        assert np.allclose(d.velocity.v, vel.v, atol=1e-9)
        assert d.scale == pytest.approx(s, abs=1e-9)
        recon = d.scale * d.rotation @ null_boost_rescaled(d.velocity)
        assert np.max(np.abs(recon - L)) < 1e-9


def test_decompose_rejects_other():
    with pytest.raises(NotDecomposable):
        decompose(np.diag([1.0, 1, 1, 2]))


def test_rotation_axis_angle():
    rng = np.random.default_rng(6)
    for theta in [1e-9, 1e-4, 0.5, 1.5, 3.0, np.pi - 1e-4, np.pi - 1e-9, np.pi]:
        n = rand_unit3(rng)
        r = rotation4(n, theta)[1:, 1:]
        axis, angle = rotation_axis_angle(r)
        assert angle == pytest.approx(theta, abs=1e-9)
        if theta > 1e-6:
            align = abs(float(axis @ n))
            assert align == pytest.approx(1, abs=1e-7)


@settings(max_examples=300, deadline=None)
@given(directions, st.floats(min_value=0, max_value=math.pi))
@example(np.array([0.0, 0.0, 1.0]), 0.0)
@example(np.array([0.6, 0.0, 0.8]), 1e-12)
@example(np.array([0.0, 0.6, -0.8]), math.pi - 1e-9)
@example(np.array([-0.48, 0.6, 0.64]), math.pi)
def test_rotation_axis_angle_reproduces_the_rotation(n, theta):
    """rotation4 of the axis and angle read back is R within 8 eps; away from
    0 and pi, where the axis is determined only up to sign, it has n's sign."""
    r = rotation4(n, theta)[1:, 1:]
    axis, angle = rotation_axis_angle(r)
    assert 0 <= angle <= math.pi
    assert np.max(np.abs(rotation4(axis, angle)[1:, 1:] - r)) <= 8 * np.finfo(float).eps
    if 1e-6 < theta < math.pi - 1e-6:
        assert float(axis @ n) > 0


def test_rotation_axis_angle_rejects_a_non_rotation():
    with pytest.raises(MalformedInput):
        rotation_axis_angle(np.full((3, 3), np.nan))
    for r in [np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3)), 2 * np.eye(3)]:
        with pytest.raises(NotDecomposable):
            rotation_axis_angle(r)


def test_spinor_lift_examples():
    a = spinor_lift(I4)
    assert np.allclose(a, np.eye(2), atol=1e-12)

    a = spinor_lift(rotation4([0, 0, 1], np.pi / 2))
    expected = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * np.diag([1, -1])
    assert np.allclose(a, expected, atol=1e-12)

    a = spinor_lift(pure_boost(velocity([0, 0, -0.5])))
    assert np.allclose(a, a.conj().T, atol=1e-12)  # positive factor only
    d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    assert d == pytest.approx(1, abs=1e-12)
    assert abs(a[0, 1]) < 1e-12  # Bloch vector along z only


def test_spinor_lift_properties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        L = rand_restricted(rng)
        a = spinor_lift(L)
        assert np.max(np.abs(psi(a) - L)) < 1e-9
        d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        assert abs(d - 1) < 1e-12
        # two-to-one: the negation lifts to the same transform
        assert np.max(np.abs(psi(-a) - L)) < 1e-9
    with pytest.raises(NotRestricted):
        spinor_lift(2 * I4)


def test_su2_from_axis_angle_is_special_unitary():
    rng = np.random.default_rng(8)
    for _ in range(100):
        u = su2_from_axis_angle(rand_unit3(rng), rng.uniform(0, 2 * np.pi))
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-13)
        d = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        assert d == pytest.approx(1, abs=1e-13)


def test_null_boost_is_limit_of_pure_boosts():
    vhat = np.array([0.6, 0.0, 0.8])
    n = null_boost_rescaled(Velocity(v=vhat, kind=NULL))
    diffs = []
    for k in range(2, 7):
        speed = 1 - 10.0 ** (-k)
        b = pure_boost(velocity(speed * vhat))
        diffs.append(np.max(np.abs(b / b[0, 0] - n)))
    assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
