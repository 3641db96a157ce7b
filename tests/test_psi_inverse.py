"""The closed-form psi inverse and the class test, factorisation, lift and
lambda-family that read it: classify, decompose, spinor_lift and
lorentz_to_element. The sweeps run over
element scales 1e-150..1e150, singular-value ratios down to exactly rank
one, speeds up to 1 - 1e-8 and rotations up to pi."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORNERS, directions, rand_element, rand_null_element, rand_unit3, swept_elements, unitaries
from qubitcone.adjoint import _psi_inv, psi
from qubitcone.correspond import element_family, element_to_lorentz, lambda_max, lorentz_to_element
from qubitcone.errors import NotRestricted
from qubitcone.lorentz import (
    NULL,
    RESCALED_NULL_BOOST_PRODUCT,
    RESCALED_RESTRICTED,
    RESTRICTED,
    TIMELIKE,
    TOL_V,
    LorentzDecomposition,
    classify,
    decompose,
    null_boost_rescaled,
    pure_boost,
    rotation4,
    spinor_lift,
    su2_from_axis_angle,
    velocity,
)
from qubitcone.qmat import SIGMA, polar_decompose

EPS = np.finfo(float).eps


# speed 1 - 10^-k, k in [0, 8]: from rest up to 1 - 1e-8
speeds = st.floats(min_value=0, max_value=8).map(lambda k: 1 - 10.0**-k)


def boost_spinor(n, speed):
    """The positive unit-determinant A whose psi image is a pure boost of speed along -n or n."""
    half = math.atanh(speed) / 2
    return math.cosh(half) * np.eye(2) - math.sinh(half) * (n[0] * SIGMA[1] + n[1] * SIGMA[2] + n[2] * SIGMA[3])


# det A = 1: an SU(2) rotation by up to pi times a boost up to 1 - 1e-8
unimodular = st.builds(
    lambda axis, theta, n, speed: su2_from_axis_angle(axis, theta) @ boost_spinor(n, speed),
    directions,
    st.floats(min_value=0, max_value=math.pi),
    directions,
    speeds,
)


def max_abs(x):
    return float(np.max(np.abs(x)))


@settings(max_examples=300, deadline=None)
@given(swept_elements)
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
def test_psi_inv_is_a_preimage(case):
    m, _ = case
    L = psi(m)
    a = _psi_inv(L)
    assert max_abs(psi(a) - L) <= 1e-14 * max_abs(L)
    tr = a[0, 0] + a[1, 1]
    assert tr.real >= 0 and abs(tr.imag) <= 4 * EPS * abs(tr)


@settings(max_examples=300, deadline=None)
@given(unimodular)
@example(np.eye(2, dtype=complex))
@example(su2_from_axis_angle([0, 0, 1], math.pi))
def test_spinor_lift_inverts_psi_up_to_sign(a):
    lift = spinor_lift(psi(a))
    sign = 1 if np.vdot(a, lift).real >= 0 else -1
    # det A cancels like gamma ~ max|A|^2, so the lift's relative error grows so
    assert max_abs(lift - sign * a) <= 16 * EPS * max_abs(a) ** 3


# Re u00 >= 0 is decided by round-off when |Re u00| is itself round-off
SIGN_TIE = 1e-6


@settings(max_examples=300, deadline=None)
@given(directions, st.floats(min_value=0, max_value=math.pi), directions, speeds, st.sampled_from([1, -1]))
@example(np.array([0.0, 0.0, 1.0]), 2.0, np.array([1.0, 0.0, 0.0]), 1 - 1e-8, -1)
def test_spinor_lift_sign_rule(axis, theta, n, speed, sign):
    """A = U P with U = su2(axis, theta), theta in [0, pi], and P a positive
    boost spinor has the polar factor U, with Re u00 = cos(theta/2) >= 0. So
    whichever of A and -A psi is given, the lift is A: its polar factor has
    Re u00 >= 0."""
    a = su2_from_axis_angle(axis, theta) @ boost_spinor(n, speed)
    lift = spinor_lift(psi(sign * a))
    u00 = polar_decompose(lift)[0][0, 0]
    if math.cos(theta / 2) > SIGN_TIE:
        assert max_abs(lift - a) <= 16 * EPS * max_abs(a) ** 3
        assert u00.real > 0
    else:
        assert u00.real >= -SIGN_TIE


@settings(max_examples=300, deadline=None)
@given(directions, st.floats(min_value=0, max_value=math.pi), st.sampled_from([1, -1]))
def test_element_family_rotation_sign_rule(axis, theta, sign):
    """The lambda-family's rotation_u is the unitary U with Re u00 >= 0."""
    u = su2_from_axis_angle(axis, theta)
    decomp = LorentzDecomposition(rotation=psi(sign * u), velocity=velocity([0.1, -0.2, 0.3]), scale=1.0)
    rotation_u = element_family(decomp).rotation_u
    if math.cos(theta / 2) > SIGN_TIE:
        assert max_abs(rotation_u - u) <= 8 * EPS
    else:
        assert rotation_u[0, 0].real >= -SIGN_TIE


# Re u00 = 0 exactly: a pi rotation about z, alone and times a boost along z
@pytest.mark.parametrize(
    "a, lift", [(np.diag([-1j, 1j]), np.diag([1j, -1j])), (np.diag([-2j, 0.5j]), np.diag([2j, -0.5j]))]
)
def test_sign_ties_go_to_im_u00_nonnegative(a, lift):
    assert max_abs(spinor_lift(psi(a)) - lift) <= 4 * EPS * max_abs(lift)
    if abs(a[0, 0]) == 1:
        decomp = LorentzDecomposition(rotation=psi(a), velocity=velocity([0.0, 0.0, 0.5]), scale=1.0)
        assert max_abs(element_family(decomp).rotation_u - lift) <= 4 * EPS


@settings(max_examples=300, deadline=None)
@given(
    directions,
    st.floats(min_value=0, max_value=math.pi),
    directions,
    speeds | st.just(1.0),
    st.floats(min_value=-3, max_value=0),
)
@example(np.array([0.0, 0.0, 1.0]), math.pi, np.array([1.0, 0.0, 0.0]), 1 - 1e-8, -3)
def test_lorentz_to_element_then_element_to_lorentz(axis, theta, direction, speed, log_scale):
    """The backward then the forward map returns the rotation and the
    velocity, timelike up to 1 - 1e-8 or null, at element scales 1e-3 to 1
    of lambda_max: within 32 gamma eps, 32 eps when null."""
    vel = velocity(speed * direction)
    rotation = rotation4(axis, theta)
    decomp = LorentzDecomposition(rotation=rotation, velocity=vel, scale=1.0)
    geom = element_to_lorentz(lorentz_to_element(decomp, 10.0**log_scale * lambda_max(vel)))
    gamma = 1.0 if vel.kind == NULL else 1 / math.sqrt(1 - vel.v @ vel.v)
    assert geom.kind == vel.kind
    assert max_abs(geom.velocity.v - vel.v) <= 32 * gamma * EPS
    assert max_abs(geom.rotation - rotation) <= 32 * gamma * EPS


# singular-value ratio 0 or 10^k, k in [-4, 0]
forward_ratios = st.just(0.0) | st.floats(min_value=-4, max_value=0).map(lambda k: 10.0**k)


@settings(max_examples=300, deadline=None)
@given(unitaries, unitaries, forward_ratios, st.floats(min_value=-150, max_value=150))
@example(np.eye(2), np.eye(2), 1e-4, -150.0)
@example(np.eye(2), np.eye(2), 0.0, 150.0)
def test_element_to_lorentz_then_lorentz_to_element(u, v, ratio, log_scale):
    """The forward then the backward map returns the element up to a positive
    scale c: psi(M') = c psi(M), within 32 gamma eps of max|psi| (32 eps when
    null), for M = 10^k U diag(1, ratio) V†, k in [-150, 150], ratio 0 or in
    [1e-4, 1]. Ratios below about 2.2e-5 are left out: there 1 - |v| <= TOL_V,
    so the forward map reads the element as null by design and M' is the
    rank-one element of that null velocity."""
    m = 10.0**log_scale * u @ np.diag([1.0, ratio]) @ v.conj().T
    geom = element_to_lorentz(m)
    decomp = LorentzDecomposition(rotation=geom.rotation, velocity=geom.velocity, scale=geom.scale)
    back = lorentz_to_element(decomp)
    assert geom.kind == (NULL if ratio == 0 else TIMELIKE)
    vel = geom.velocity.v
    gamma = 1.0 if geom.kind == NULL else 1 / math.sqrt(1 - vel @ vel)
    want, got = psi(m), psi(back)
    assert max_abs(got / max_abs(got) - want / max_abs(want)) <= 32 * gamma * EPS


@settings(max_examples=300, deadline=None)
@given(swept_elements)
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
def test_decompose_of_psi_is_the_phase_fixed_forward_map(case):
    """decompose(psi(M)) = element_to_lorentz(e^{-i arg Tr M} M), for both ranks."""
    m, ratio = case
    tr = m[0, 0] + m[1, 1]
    geom = element_to_lorentz(m * (tr.conjugate() / abs(tr)) if tr else m)
    L = psi(m)
    d = decompose(L)
    assert d.velocity.kind == geom.kind
    assert max_abs(d.velocity.v - geom.velocity.v) <= 1e-14
    assert abs(d.scale - geom.scale) <= 1e-12 * geom.scale
    # the polar factor's conditioning is 1/ratio; a rank-one one depends on
    # the phase, which Tr A >= 0 fixes to within EPS max|M| / |Tr M|
    cond = 1 / ratio if ratio else max_abs(m) / abs(tr) if tr else math.inf
    if math.isfinite(cond):
        assert max_abs(d.rotation - geom.rotation) <= 64 * EPS * (1 + cond)
    if ratio == 0:
        recon = d.scale * d.rotation @ null_boost_rescaled(d.velocity)
        assert max_abs(recon - L) <= 1e-13 * max_abs(L)


@settings(max_examples=300, deadline=None)
@given(unimodular, st.sampled_from([1.0, 1 + 1e-12, 1 + 1e-6, 0.5, 1e-100, 1e100]))
def test_classify_restricted_iff_spinor_lift_succeeds(a, s):
    L = s * psi(a)
    kind = classify(L)
    assert kind == (RESTRICTED if abs(s - 1) <= 1e-9 else RESCALED_RESTRICTED)
    try:
        spinor_lift(L)
        lifted = True
    except NotRestricted:
        lifted = False
    assert lifted == (kind == RESTRICTED)


@pytest.mark.parametrize("k", [6, 7, 8])
def test_spinor_lift_near_light_speed(k):
    rng = np.random.default_rng(k)
    for n in [np.array([0.0, 0.0, 1.0])] + [rand_unit3(rng) for _ in range(20)]:
        L = rotation4(rand_unit3(rng), rng.uniform(0, np.pi)) @ pure_boost(velocity((1 - 10.0**-k) * n))
        a = spinor_lift(L)
        assert max_abs(psi(a) - L) <= 1e-11 * max_abs(L)
        assert abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] - 1) <= 1e-11


@pytest.mark.parametrize("make", [rand_element, rand_null_element])
def test_decompose_of_psi_on_sampler_draws(make):
    rng = np.random.default_rng(2000)
    for _ in range(1000):
        m = make(rng)
        d = decompose(psi(m))
        assert d.velocity.kind == element_to_lorentz(m).kind


def test_class_tests_agree_at_the_tol_v_boundary():
    """At |v| = 1 - TOL_V round-off decides timelike against null; classify,
    decompose and spinor_lift read the same factorisation, so they agree."""
    rng = np.random.default_rng(9)
    kinds = []
    for _ in range(200):
        v = (1 - TOL_V) * rand_unit3(rng)
        while np.linalg.norm(v) > 1 - TOL_V:  # the largest speed velocity() reads as timelike
            v *= 1 - EPS
        L = pure_boost(velocity(v))
        kind = classify(L)
        kinds.append(kind)
        assert kind in (RESTRICTED, RESCALED_NULL_BOOST_PRODUCT)
        assert (decompose(L).velocity.kind == NULL) == (kind == RESCALED_NULL_BOOST_PRODUCT)
        try:
            spinor_lift(L)
            lifted = True
        except NotRestricted:
            lifted = False
        assert lifted == (kind == RESTRICTED)
    assert set(kinds) == {RESTRICTED, RESCALED_NULL_BOOST_PRODUCT}
