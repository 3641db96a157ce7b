import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import (
    CORNERS,
    rand_element,
    rand_null_element,
    rand_rotation4,
    rand_state,
    rand_timelike,
    rand_unit3,
    swept_elements,
)
from qubitcone.adjoint import psi
from qubitcone.conemap import minkowski, phi, phi_inv
from qubitcone.correspond import (
    apply_element,
    effect,
    element_to_lorentz,
    info_measure,
    lambda_max,
    lorentz_to_element,
    measurement,
    prop2_invariants,
    validate,
)
from qubitcone.errors import (
    LambdaOutOfRange,
    MalformedInput,
    NotDecomposable,
    NotPositive,
    NullOrSpacelike,
    TooLarge,
    ZeroElement,
)
from qubitcone.lorentz import (
    NULL,
    TIMELIKE,
    LorentzDecomposition,
    Velocity,
    null_boost_rescaled,
    pure_boost,
    rotation4,
    velocity,
)
from qubitcone.qmat import SIGMA, TOL, eigenvalues, is_positive, polar_decompose, sqrt_psd

I2 = np.eye(2, dtype=complex)
Z = SIGMA[3]
PROJ0 = (I2 + Z) / 2
PROJ1 = (I2 - Z) / 2


def test_validate_examples():
    assert validate(measurement([I2]))
    assert validate(measurement([PROJ0, PROJ1]))
    assert not validate(measurement([PROJ0]))
    for bad in ([], [I2, np.eye(3)], [np.eye(3)], I2, [I2 * np.nan], [[["a", 0], [0, 1]]]):
        with pytest.raises(MalformedInput):
            measurement(bad)


def test_validate_at_tol_zero():
    """{I} is complete exactly, deviation 0, so it passes validate at tol = 0: the test is
    deviation <= tol, not <."""
    meas = measurement([I2])
    assert meas.deviation == 0.0 and validate(meas, tol=0)
    assert not validate(measurement([PROJ0, PROJ1 * (1 + 2**-52)]), tol=0)


def test_apply_element_examples():
    rho = rand_state(np.random.default_rng(0))
    p, post = apply_element(I2, rho)
    assert p == pytest.approx(1)
    assert np.allclose(post, rho)

    p, post = apply_element(PROJ0, I2 / 2)
    assert p == pytest.approx(0.5)
    assert np.allclose(post, (I2 + Z) / 4)

    p, post = apply_element(np.zeros((2, 2)), rho)
    assert p == 0 and np.allclose(post, 0)

    with pytest.raises(NotPositive):
        apply_element(I2, Z)


def test_element_to_lorentz_timelike_example():
    m = np.diag([np.sqrt(3) / 2, 1 / 2]).astype(complex)
    geom = element_to_lorentz(m)
    assert geom.kind == TIMELIKE
    assert np.allclose(geom.velocity.v, [0, 0, -0.5], atol=1e-12)
    assert geom.scale == pytest.approx(np.sqrt(3) / 4, abs=1e-12)
    assert np.allclose(geom.rotation, np.eye(4), atol=1e-10)
    assert np.allclose(geom.e_vec, [1, 0, 0, 0.5], atol=1e-12)
    assert np.allclose(geom.v_vec, [0.5, 0, 0, -0.25], atol=1e-12)


def test_element_to_lorentz_null_example():
    geom = element_to_lorentz(PROJ0)
    assert geom.kind == NULL
    assert np.allclose(geom.velocity.v, [0, 0, -1], atol=1e-12)
    assert geom.scale == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(geom.rotation, np.eye(4), atol=1e-10)
    recon = geom.scale * geom.rotation @ null_boost_rescaled(geom.velocity)
    assert np.max(np.abs(psi(PROJ0) - recon)) < 1e-12


def test_element_to_lorentz_scalar_example():
    for c in (0.3, 1.0):
        geom = element_to_lorentz(c * I2)
        assert geom.kind == TIMELIKE
        assert np.linalg.norm(geom.velocity.v) < 1e-12
        assert geom.scale == pytest.approx(c * c, abs=1e-12)
        assert np.allclose(geom.rotation, np.eye(4), atol=1e-10)
    with pytest.raises(ZeroElement):
        element_to_lorentz(np.zeros((2, 2)))


def test_element_to_lorentz_rejects_an_overflowing_effect():
    """Tr(M†M) = e_vec[0] bounds the other entries of e_vec: it is finite up to
    the float limit, and TooLarge past it, whatever the entries of M."""
    geom = element_to_lorentz(9e153 * I2)
    assert geom.e_vec[0] == pytest.approx(1.62e308, rel=1e-15)
    assert np.isfinite(geom.e_vec).all() and np.isfinite(geom.v_vec).all()
    for m in (1.2e154 * I2, np.diag([1.4e154, 0.0]), [[1e154, 1e154], [1e154, 1e154]]):
        with pytest.raises(TooLarge, match="overflows"):
            element_to_lorentz(m)


def test_prop1_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(150):
        m = rand_element(rng)
        geom = element_to_lorentz(m)
        assert geom.kind == TIMELIKE
        recon = geom.scale * geom.rotation @ pure_boost(geom.velocity)
        assert np.max(np.abs(psi(m) - recon)) < 1e-9
        assert geom.scale == pytest.approx(
            np.sqrt(minkowski(geom.v_vec, geom.v_vec)), abs=1e-10
        )
    for _ in range(150):
        m = rand_null_element(rng)
        geom = element_to_lorentz(m)
        assert geom.kind == NULL
        recon = geom.scale * geom.rotation @ null_boost_rescaled(geom.velocity)
        assert np.max(np.abs(psi(m) - recon)) < 1e-9
        assert geom.scale == pytest.approx(geom.e_vec[0] / 2, abs=1e-10)


def test_lambda_max_examples():
    assert lambda_max(velocity([0, 0, 0])) == pytest.approx(np.sqrt(2))
    assert lambda_max(velocity([0, 0, 1])) == 1
    assert lambda_max(velocity([0.5, 0, 0])) == pytest.approx(np.sqrt(4 / 3))


def test_lorentz_to_element_examples():
    rest = LorentzDecomposition(
        rotation=np.eye(4), velocity=velocity([0, 0, 0]), scale=1.0
    )
    m = lorentz_to_element(rest, 1.0)
    assert np.allclose(m, I2 / np.sqrt(2), atol=1e-12)
    assert np.allclose(m.conj().T @ m, I2 / 2, atol=1e-12)
    assert np.allclose(lorentz_to_element(rest), I2, atol=1e-12)  # default lambda_max

    null_dec = LorentzDecomposition(
        rotation=np.eye(4), velocity=velocity([0, 0, -1]), scale=1.0
    )
    assert np.allclose(lorentz_to_element(null_dec, 1.0), PROJ0, atol=1e-12)


def test_lorentz_to_element_saturates_at_lambda_max():
    rng = np.random.default_rng(2)
    for _ in range(50):
        vel = rand_timelike(rng)
        dec = LorentzDecomposition(rotation=rand_rotation4(rng), velocity=vel, scale=1.0)
        m = lorentz_to_element(dec, lambda_max(vel))
        rest = I2 - m.conj().T @ m
        _, lm = eigenvalues(rest)
        assert abs(lm) < 1e-12
    with pytest.raises(LambdaOutOfRange):
        lorentz_to_element(dec, lambda_max(vel) * 1.01)
    with pytest.raises(LambdaOutOfRange):
        lorentz_to_element(dec, 0.0)


def test_lambda_slack_reads_tol():
    """lambda is admissible up to lambda_max sqrt(1 + TOL), where the top eigenvalue
    (lambda/lambda_max)^2 of M†M is 1 + TOL: 1e-11 above lambda_max is round-off and
    is taken, 1e-6 above is not."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        vel = rand_timelike(rng)
        dec = LorentzDecomposition(rotation=rand_rotation4(rng), velocity=vel, scale=1.0)
        m = lorentz_to_element(dec, lambda_max(vel) * (1 + 1e-11))
        assert abs(eigenvalues(m.conj().T @ m)[0] - 1) <= TOL
        edge = lambda_max(vel) * math.sqrt(1 + TOL)
        lorentz_to_element(dec, edge)
        for lam in (math.nextafter(edge, 2), lambda_max(vel) * (1 + 1e-6)):
            with pytest.raises(LambdaOutOfRange):
                lorentz_to_element(dec, lam)


def test_lambda_bound_sharpness():
    rng = np.random.default_rng(3)
    for _ in range(50):
        vel = rand_timelike(rng)
        lmax = lambda_max(vel)
        for lam, expect_ok in [(lmax * (1 - 1e-6), True), (lmax * (1 + 1e-6), False)]:
            coords = np.concatenate([[lam**2], -(lam**2) * vel.v])
            e = phi_inv(coords)
            assert is_positive(I2 - e) is expect_ok


def test_round_trip_element_lorentz_element():
    rng = np.random.default_rng(4)
    for _ in range(100):
        r = rand_rotation4(rng)
        vel = rand_timelike(rng)
        dec = LorentzDecomposition(rotation=r, velocity=vel, scale=1.0)
        lam = rng.uniform(0.1, 1.0) * lambda_max(vel)
        m = lorentz_to_element(dec, lam)
        geom = element_to_lorentz(m)
        assert np.max(np.abs(geom.rotation - r)) < 1e-9
        assert np.max(np.abs(geom.velocity.v - vel.v)) < 1e-9
        g = np.sqrt(1 - vel.v @ vel.v)
        assert geom.scale == pytest.approx(lam**2 / 2 * g, abs=1e-10)
        assert np.max(np.abs(psi(m) - lam**2 / 2 * g * r @ pure_boost(vel))) < 1e-9
    for _ in range(100):
        r = rand_rotation4(rng)
        vel = Velocity(v=rand_unit3(rng), kind=NULL)
        dec = LorentzDecomposition(rotation=r, velocity=vel, scale=1.0)
        lam = rng.uniform(0.1, 1.0)
        m = lorentz_to_element(dec, lam)
        geom = element_to_lorentz(m)
        assert geom.kind == NULL
        assert np.max(np.abs(geom.rotation - r)) < 1e-9
        assert np.max(np.abs(geom.velocity.v - vel.v)) < 1e-9
        assert geom.scale == pytest.approx(lam**2 / 2, abs=1e-10)


@pytest.mark.parametrize("make, kind", [(rand_element, TIMELIKE), (rand_null_element, NULL)])
def test_lorentz_to_element_takes_the_forward_record(make, kind):
    """lorentz_to_element takes the EffectGeometry of element_to_lorentz as it is:
    bit for bit the element of the LorentzDecomposition rebuilt from it, at element
    scales 1e-150 to 1e150, at lambda_max and below it."""
    rng = np.random.default_rng(25)
    for _ in range(100):
        geom = element_to_lorentz(10.0 ** rng.uniform(-150, 150) * make(rng))
        assert geom.kind == kind
        rebuilt = LorentzDecomposition(rotation=geom.rotation, velocity=geom.velocity, scale=geom.scale)
        for lam in (None, rng.uniform(0.1, 1.0) * lambda_max(geom.velocity)):
            assert np.array_equal(lorentz_to_element(geom, lam), lorentz_to_element(rebuilt, lam))


def test_element_family():
    """The lambda-family of a transform: lambda_max = sqrt(2 / (1 + |v|)), and every
    element M(lambda) = U sqrt(E(lambda)) is timelike with the rotation's spinor U as
    its polar factor."""
    dec = LorentzDecomposition(
        rotation=rotation4([0, 0, 1], np.pi / 2),
        velocity=velocity([0, 0, 0.5]),
        scale=1.0,
    )
    lam_max = lambda_max(dec.velocity)
    assert lam_max == pytest.approx(np.sqrt(4 / 3))
    expected_u = np.cos(np.pi / 4) * I2 - 1j * np.sin(np.pi / 4) * Z
    for lam in (0.25 * lam_max, lam_max):
        m = lorentz_to_element(dec, lam)
        assert element_to_lorentz(m).kind == TIMELIKE
        assert np.allclose(polar_decompose(m)[0], expected_u, atol=1e-12)


def complement(m):
    """sqrt(I - M†M): the element that completes M to a two-outcome measurement."""
    return sqrt_psd(I2 - effect(m))


def test_complete_to_measurement():
    assert validate(measurement([I2]))

    comp = complement(PROJ0)
    # spectral oracle for the complement of a projector effect
    vals, vecs = np.linalg.eigh(I2 - PROJ0)
    oracle = vecs @ np.diag(np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    assert np.allclose(comp, oracle, atol=1e-12)
    assert np.allclose(comp, PROJ1, atol=1e-12)
    assert validate(measurement([PROJ0, comp]))

    comp = complement(0.5 * I2)
    assert np.allclose(comp, np.sqrt(0.75) * I2, atol=1e-12)
    assert validate(measurement([0.5 * I2, comp]))

    with pytest.raises(NotPositive):  # M†M > I has no complement
        complement(2 * I2)


def test_complete_haar_unitaries_to_one_element():
    """I - M†M of a unitary is round-off: each of 1,000 Haar unitaries is
    a valid one-element measurement."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = q * (r.diagonal() / np.abs(r.diagonal()))
        assert validate(measurement([u]))


def test_complete_unitary_elements():
    """I - M†M is round-off for a unitary M; TOL is relative to I, so validate
    accepts M and a slightly too large M alone, and rejects a larger one."""
    rng = np.random.default_rng(6)
    for _ in range(100):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        for s in (1.0, 1 + 1e-12):
            assert validate(measurement([s * u]))
        assert not validate(measurement([(1 + 1e-6) * u]))


def test_complete_random_elements_validate():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rand_element(rng)
        assert validate(measurement([m, complement(m)]))


def test_prop2_examples():
    rho = rand_state(np.random.default_rng(6))
    rep = prop2_invariants(PROJ0, rho)
    assert rep.lhs_norm == pytest.approx(0, abs=1e-12)
    assert rep.rhs_norm == pytest.approx(0, abs=1e-12)

    rep = prop2_invariants(I2, rho)
    mix = minkowski(phi(rho), phi(rho))
    assert rep.lhs_norm == pytest.approx(mix, abs=1e-12)
    assert rep.rhs_norm == pytest.approx(mix, abs=1e-12)
    assert rep.p_direct == pytest.approx(np.trace(rho).real, abs=1e-12)

    m = np.diag([np.sqrt(3) / 2, 1 / 2]).astype(complex)
    rep = prop2_invariants(m, I2 / 2)
    assert rep.lhs_norm == pytest.approx(3 / 16, abs=1e-12)
    assert rep.rhs_norm == pytest.approx(3 / 16, abs=1e-12)
    assert rep.p_from_minkowski == pytest.approx(0.5, abs=1e-12)
    assert rep.p_direct == pytest.approx(0.5, abs=1e-12)


def test_prop2_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rand_element(rng) if rng.random() < 0.7 else rand_null_element(rng)
        rho = rand_state(rng, unit_trace=False)
        rep = prop2_invariants(m, rho)
        assert abs(rep.lhs_norm - rep.rhs_norm) < 1e-10
        assert abs(rep.p_from_minkowski - rep.p_direct) < 1e-12
        # mixedness never increases under a valid element
        assert rep.lhs_norm <= minkowski(phi(rho), phi(rho)) + 1e-12


def test_info_measure():
    assert info_measure([1, 0, 0, 0]) == pytest.approx(0)
    assert info_measure([2, 0, 0, 0]) == pytest.approx(2)
    with pytest.raises(NullOrSpacelike):
        info_measure([1, 0, 0, 1])
    with pytest.raises(NullOrSpacelike):
        info_measure([0, 0, 0, 1])


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_info_measure_reads_the_null_rule(scale):
    """Pure states are null, however round-off falls; states of Bloch radius
    up to 0.99 are timelike, at scales 1e-150 to 1e150."""
    rng = np.random.default_rng(0)
    for _ in range(500):
        psi_ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        with pytest.raises(NullOrSpacelike):
            info_measure(scale * phi(np.outer(psi_ket, psi_ket.conj())))
        r = 0.99 * rng.uniform()
        got = info_measure(scale * np.concatenate([[1.0], r * rand_unit3(rng)]))
        assert got == pytest.approx(2 * math.log2(scale) + math.log2(1 - r * r), rel=1e-14, abs=1e-13)


def test_information_conservation():
    m = np.diag([np.sqrt(3) / 2, 1 / 2]).astype(complex)
    rho = I2 / 2
    _, post = apply_element(m, rho)
    lhs = info_measure(phi(post))
    geom = element_to_lorentz(m)
    rhs = info_measure(geom.v_vec) + info_measure(phi(rho))
    assert lhs == pytest.approx(np.log2(3 / 16), abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=1e-12)

    rng = np.random.default_rng(8)
    for _ in range(100):
        m = rand_element(rng)
        rho = rand_state(rng, unit_trace=False)
        if minkowski(phi(rho), phi(rho)) <= 1e-6:
            continue
        _, post = apply_element(m, rho)
        geom = element_to_lorentz(m)
        residual = (
            info_measure(phi(post))
            - info_measure(geom.v_vec)
            - info_measure(phi(rho))
        )
        assert abs(residual) < 1e-9


def real_rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def test_element_to_lorentz_inside_the_old_polar_band():
    # singular-value ratio 1e-5: an inverse-based polar factor lost
    # unitarity here and the forward map raised NotUnitary
    m = real_rotation(0.3) @ np.diag([1, 1e-5]) @ np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    geom = element_to_lorentz(m)
    # 1 - |v| = 2e-10 is below TOL_V, so the effect reads as null
    assert geom.kind == NULL
    r3 = geom.rotation[1:, 1:]
    assert np.max(np.abs(r3.T @ r3 - np.eye(3))) <= 1e-14
    recon = geom.scale * geom.rotation @ null_boost_rescaled(geom.velocity)
    assert np.max(np.abs(recon - psi(m))) <= 1e-4  # the ratio's order


@settings(max_examples=300, deadline=None)
@given(swept_elements)
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
def test_effect_vectors_from_the_factorisation(case):
    """element_to_lorentz reads e_vec, v_vec and the null scale off the scaled
    entries of its factorisation, not off M†M: they equal phi(M†M), eta phi(M†M)/2
    and Tr(M†M)/2 within 4 eps max|e_vec|, at element scales 1e-150 to 1e150."""
    m, _ = case
    geom = element_to_lorentz(m)
    e_vec = phi(m.conj().T @ m)
    v_vec = e_vec * np.array([0.5, -0.5, -0.5, -0.5])
    bound = 4 * np.finfo(float).eps * np.max(np.abs(e_vec))
    assert np.max(np.abs(geom.e_vec - e_vec)) <= bound
    assert np.max(np.abs(geom.v_vec - v_vec)) <= bound
    if geom.kind == NULL:
        assert abs(geom.scale - np.trace(m.conj().T @ m).real / 2) <= bound


def test_element_to_lorentz_tiny_element():
    m = np.array([[0.8, 0.1j], [0.2, 0.5]])
    ref = element_to_lorentz(m)
    geom = element_to_lorentz(1e-80 * m)
    assert np.allclose(geom.rotation, ref.rotation, atol=1e-14)
    assert np.allclose(geom.velocity.v, ref.velocity.v, atol=1e-14)
    assert geom.scale == pytest.approx(1e-160 * ref.scale, rel=1e-14)


# Below an element scale of about 1e-154 the effect M†M, and with it e_vec
# and scale, underflows; the velocity, kind and rotation are read from M/max|M|.
@pytest.mark.parametrize(
    "base",
    [np.array([[0.8, 0.1j], [0.2, 0.5]]), np.outer([0.6, 0.8j], [1.0, 0.3 - 0.2j])],
    ids=["timelike", "null"],
)
@pytest.mark.parametrize("k", range(150, 301, 10))
def test_element_to_lorentz_at_tiny_element_scales(base, k):
    ref = element_to_lorentz(base)
    geom = element_to_lorentz(10.0**-k * base)
    assert geom.kind == ref.kind
    assert np.max(np.abs(geom.velocity.v - ref.velocity.v)) <= 1e-14
    assert np.max(np.abs(geom.rotation - ref.rotation)) <= 1e-14


# 2^1060 as two exact factors: 2.0**1060 is beyond the float range
LIFT_HALF = 2.0**530


@pytest.mark.parametrize("rank", [1, 2])
def test_element_to_lorentz_of_subnormal_elements(rank):
    """max|M| below 2^-1022, where 1/max|M| overflows: the kind, velocity and
    rotation are those of the exactly lifted 2^1060 M, with no warning, and the
    effect and scale underflow to finite values."""
    rng = np.random.default_rng(40 + rank)
    for _ in range(500):
        base = rand_element(rng) if rank == 2 else rand_null_element(rng)
        m = 10.0 ** rng.uniform(-323, -308) * base
        if not m.any():
            continue
        geom = element_to_lorentz(m)
        ref = element_to_lorentz(m * LIFT_HALF * LIFT_HALF)
        assert geom.kind == ref.kind
        assert np.array_equal(geom.velocity.v, ref.velocity.v)
        assert np.array_equal(geom.rotation, ref.rotation)
        assert np.isfinite(geom.e_vec).all() and np.isfinite(geom.scale)


def test_measurement_keeps_its_own_elements():
    """measurement copies a complex (K, 2, 2) array it is given and stores it
    read-only: changing the caller's array afterwards changes nothing."""
    arr = np.array([PROJ0, PROJ1], dtype=complex)
    meas = measurement(arr)
    transforms = meas.transforms.copy()
    arr[0] = 0
    assert np.array_equal(meas.elements, [PROJ0, PROJ1])
    assert validate(meas) and meas.deviation == 0.0
    assert np.array_equal(meas.transforms, transforms)
    with pytest.raises(ValueError):
        meas.elements[0] = 0


ROTATION = rotation4([0.36, 0.48, 0.8], 1.1)


def nudged(r, d):
    out = r.copy()
    out[2, 2] += d
    return out


@pytest.mark.parametrize(
    "rot",
    [
        pure_boost(velocity([0, 0, 0.3])),
        pure_boost(velocity([0, 0, 4e-5])),
        np.diag([1.0, -1, -1, -1]),
        np.diag([1.0, 1, 1, -1]),
        1.001 * ROTATION,
        np.zeros((4, 4)),
        nudged(ROTATION, 1e-6),
    ],
    ids=["boost", "small-boost", "parity", "reflection", "scaled", "zero", "nudged-1e-6"],
)
def test_lorentz_to_element_rejects_a_non_rotation(rot):
    dec = LorentzDecomposition(rotation=rot, velocity=velocity([0.1, -0.2, 0.3]), scale=1.0)
    with pytest.raises(NotDecomposable):
        lorentz_to_element(dec)


def test_lorentz_to_element_accepts_rotation_round_off():
    vel = velocity([0.1, -0.2, 0.3])
    m = lorentz_to_element(LorentzDecomposition(rotation=nudged(ROTATION, 1e-10), velocity=vel, scale=1.0))
    ref = lorentz_to_element(LorentzDecomposition(rotation=ROTATION, velocity=vel, scale=1.0))
    assert np.max(np.abs(m - ref)) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(swept_elements)
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
def test_element_to_lorentz_domain_sweep(case):
    m, _ = case
    geom = element_to_lorentz(m)  # raises no NotUnitary anywhere in the sweep
    if geom.kind == TIMELIKE:
        assert geom.scale == pytest.approx(abs(np.linalg.det(m)), rel=1e-10)
    else:
        assert geom.scale == geom.e_vec[0] / 2
    r3 = geom.rotation[1:, 1:]
    assert np.max(np.abs(r3.T @ r3 - np.eye(3))) <= 1e-14
