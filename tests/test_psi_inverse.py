"""The closed-form psi inverse and the class test, factorisation, lift and
lambda-family that read it: classify, decompose, spinor_lift and
lorentz_to_element. The sweeps run over
element scales 1e-150..1e150, singular-value ratios down to exactly rank
one, speeds up to 1 - 1e-8 and rotations up to pi."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORNERS, directions, rand_element, rand_null_element, rand_unit3, swept_elements, unitaries
from qubitcone import lorentz
from qubitcone.adjoint import _preimage, _psi, psi
from qubitcone.correspond import element_to_lorentz, lambda_max, lorentz_to_element
from qubitcone.errors import NotDecomposable, NotRestricted, TooLarge
from qubitcone.lorentz import (
    NULL,
    OTHER,
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


def rotation_spinor(decomp):
    """The spinor U of a record's rotation, as lorentz_to_element lifts it."""
    return np.array(lorentz._rotation_spinor(decomp.rotation.ravel().tolist())).reshape(2, 2)


# s (sigma_beta + sigma_{beta+1} e^{0.7i} / 4): |Tr(sigma_beta A)|^2 has the largest
# weight, so _preimage builds A from M_beta, for each beta at scales 1e-150 and 1e150
BRANCH_CORNERS = [
    (s * (SIGMA[b] + np.exp(0.7j) * SIGMA[(b + 1) % 4] / 4), 1.0) for b in range(4) for s in (1e-150, 1e150)
]


def test_branch_corners_reach_every_beta():
    weights = [[abs(np.trace(SIGMA[b] @ m)) for b in range(4)] for m, _ in BRANCH_CORNERS]
    assert [int(np.argmax(w)) for w in weights] == [0, 0, 1, 1, 2, 2, 3, 3]


def branch_examples(test):
    for case in BRANCH_CORNERS:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(swept_elements)
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
@branch_examples
def test_psi_inv_is_a_preimage(case):
    m, _ = case
    L = psi(m)
    flat = L.ravel().tolist()
    ell = max(map(abs, flat))
    a = np.array(_preimage([x / ell for x in flat], ell)).reshape(2, 2)
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
    """The spinor U that lorentz_to_element gives every element of the lambda-family
    is the unitary with Re u00 >= 0."""
    u = su2_from_axis_angle(axis, theta)
    decomp = LorentzDecomposition(rotation=psi(sign * u), velocity=velocity([0.1, -0.2, 0.3]), scale=1.0)
    rotation_u = rotation_spinor(decomp)
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
        assert max_abs(rotation_spinor(decomp) - lift) <= 4 * EPS


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


# Both e_vec are phi(X†X), formed by lorentz._geometry, of X = A, the psi preimage of
# L = psi(M), and of X = e^{-i arg Tr M} M. In eps e0, e0 = ||M||_F^2 = max|phi(M†M)|:
#   8  the stack psi: 2 L[0] within 2 * 4 eps max|M|^2 of phi(M†M) (test_psi_against_trace_oracle);
#  46  the preimage: phi(A†A) / 2 is row 0 of psi(A), within 1e-14 max|L| = 1e-14 e0 / 2 of L[0]
#      (test_psi_inv_is_a_preimage);
#   4  the phase: each entry of e^{-i arg Tr M} M within 4u of its modulus, u = eps / 2;
#   8  _geometry, on each side: 7 roundings of u on sums of non-negative squares, 4 eps.
E_VEC_BOUND = 8 + 46 + 4 + 8


@settings(max_examples=300, deadline=None)
@given(swept_elements)
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
def test_decompose_of_psi_is_the_phase_fixed_forward_map(case):
    """decompose(psi(M)) = element_to_lorentz(e^{-i arg Tr M} M), for both ranks,
    the effect four-vector e_vec = phi(M†M) included."""
    m, ratio = case
    tr = m[0, 0] + m[1, 1]
    geom = element_to_lorentz(m * (tr.conjugate() / abs(tr)) if tr else m)
    L = psi(m)
    d = decompose(L)
    assert d.velocity.kind == geom.kind
    assert max_abs(d.e_vec - geom.e_vec) <= E_VEC_BOUND * EPS * max_abs(geom.e_vec)
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
        while np.linalg.norm(v) >= 1 - TOL_V:  # the largest speeds velocity() reads as timelike
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


# The earlier psi inverse, through two constant tensors: the oracle of the subnormal sweep.
SANDWICH = np.einsum("mik,bkl,nlj->mnbij", SIGMA, SIGMA, SIGMA).reshape(16, 16)
TRACE_SIGNS = _psi(SIGMA).diagonal(axis1=1, axis2=2).copy()


def tensor_psi_inv(L):
    ell = float(np.abs(L).max())
    flat = L.reshape(16) / ell
    weights = TRACE_SIGNS @ flat[::5]
    beta = int(weights.argmax())
    w = float(weights[beta])
    if w <= 0:
        return np.zeros((2, 2), dtype=complex)
    m00, m01, m10, m11 = (flat @ SANDWICH[:, 4 * beta : 4 * beta + 4]).tolist()
    tr = m00 + m11
    k = math.sqrt(ell / w) / 2 * (tr.conjugate() / abs(tr) if tr else 1)
    a00, a11 = m00 * k, m11 * k
    return np.array([[a00, m01 * k], [m10 * k, complex(a11.real, -a00.imag) if tr else a11]])


def classes_and_errors(transforms):
    """classify of each L, and |scale R B(v) - L| of decompose(L) (None when it raises)."""
    out = []
    for L in transforms:
        try:
            d = decompose(L)
        except NotDecomposable:
            out.append((classify(L), None))
            continue
        boost = null_boost_rescaled(d.velocity) if d.velocity.kind == NULL else pure_boost(d.velocity)
        out.append((classify(L), max_abs(d.scale * d.rotation @ boost - L)))
    return out


SUBNORMAL = 4.9e-324


def test_classify_and_decompose_of_subnormal_transforms(monkeypatch):
    """L = s psi(U diag(1, r)), s log-uniform in [1e-323, 1e-290], r = 0 or
    log-uniform in [1e-3, 1]: the closed-form psi inverse gives the class the
    tensor oracle gives, and a reconstruction within the oracle's plus
    512 (4.9e-324 + eps max|L|), with no warning."""
    rng = np.random.default_rng(31)
    transforms = []
    for _ in range(3000):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        r = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-3, 0)
        transforms.append(10.0 ** rng.uniform(-323, -290) * psi(u @ np.diag([1.0, r])))
    got = classes_and_errors(transforms)
    oracle_calls = []

    def tensor_preimage(unit, ell):
        oracle_calls.append(ell)
        return tensor_psi_inv(np.array(unit).reshape(4, 4) * ell).ravel().tolist()

    monkeypatch.setattr(lorentz, "_preimage", tensor_preimage)
    want = classes_and_errors(transforms)
    # classify and decompose each read the preimage once per transform
    assert len(oracle_calls) == 2 * len(transforms)
    assert {kind for kind, _ in want} - {OTHER}
    for L, (kind, err), (want_kind, want_err) in zip(transforms, got, want):
        assert kind == want_kind
        if want_err is not None:
            assert err <= want_err + 512 * (SUBNORMAL + EPS * max_abs(L))


@pytest.mark.parametrize("top", [1e300, 1e307, 8e307, 1.7e308])
def test_classify_and_decompose_near_the_float_limit(top):
    """L = psi(U diag(1, r) V) scaled to max|L| = top, r = 0 or log-uniform in
    [1e-3, 1]: the psi residual is formed without overflow, so every L keeps
    its class, with no warning, and decompose returns top times the scale of
    L / top, within 8 eps max|L|, unless its e_vec[0] = 2 L_00 = 2 top overflows:
    then it raises TooLarge, as element_to_lorentz does on such an element."""
    overflows = math.isinf(2 * top)
    rng = np.random.default_rng(37)
    for i in range(200):
        u, v = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(2))
        r = 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-3, 0)
        unit_L = psi(u @ np.diag([1.0, r]) @ v)
        unit_L = unit_L / max_abs(unit_L)
        L = unit_L * top
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kind = classify(L)
            if overflows:
                with pytest.raises(TooLarge, match="an element's effect M†M overflows"):
                    decompose(L)
            else:
                d = decompose(L)
        assert kind == (RESCALED_NULL_BOOST_PRODUCT if r == 0 else RESCALED_RESTRICTED)
        assert overflows or abs(d.scale / top - decompose(unit_L).scale) <= 8 * EPS


@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, math.nan)])
@pytest.mark.parametrize("i", range(4))
def test_psi_residual_fails_a_non_finite_preimage(i, bad):
    """The residual test reads max over the 16 differences, so a NaN must
    reach the first one: psi(A)_00 holds every |a_ij|^2."""
    a = [1 + 0j, 0j, 0j, 1 + 0j]
    assert lorentz._fits(a, np.eye(4).ravel().tolist())
    a[i] = bad
    assert not lorentz._fits(a, np.eye(4).ravel().tolist())


def test_classify_reads_an_overflowing_preimage_as_other():
    """All four trace weights of L / max|L| are 1e-320, so the preimage's
    sqrt(max|L| / w) overflows: L is other, with no warning."""
    L = np.zeros((4, 4))
    L[0, 0], L[0, 1], L[1, 0] = 1e-320, 1.0, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify(L) == OTHER
