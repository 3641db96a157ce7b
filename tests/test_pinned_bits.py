"""The flat forms of the scalar chain keep the bits of the forms they replaced.

pure_boost divides the 16 floats of adjoint._boost by g before it forms one flat
array; lorentz_to_element forms its result flat and takes v.dot(v); the null
branch of lorentz._geometry divides v3 by the speed as floats; classify and
spinor_lift read the class off lorentz._core without forming a Velocity;
qmat._entries tests its entries finite by their sum first; the kernels that were
folded into qmat._scaled_gram and lorentz._geometry are kept here as they were. The
earlier expressions are kept here as oracles, and every result is compared bit for
bit, every exception by type and message. The rotation lift alone is compared within
bounds: it reads the spinor of diag(1, R) by its quaternion closed form where it took
the psi preimage and _unit_det, so lorentz_to_element and rotation_axis_angle must
raise the same exception and message as before, or return within 4 eps max|M| (the
element), 4 eps (the angle) and 4 eps / sin(theta/2) (the axis).
"""
import cmath
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import directions, unitaries, unitary
from qubitcone import qmat
from qubitcone.adjoint import _preimage, _psi_entries, psi
from qubitcone.correspond import element_to_lorentz, lambda_max, lorentz_to_element
from qubitcone.errors import MalformedInput, NotDecomposable, NotNull, NotRestricted, NotTimelike, TooLarge
from qubitcone.lorentz import (
    NULL,
    OTHER,
    RESCALED_NULL_BOOST_PRODUCT,
    RESCALED_RESTRICTED,
    RESTRICTED,
    TIMELIKE,
    TOL_V,
    EffectGeometry,
    LorentzDecomposition,
    Velocity,
    _fits,
    _is_null,
    _rotation_spinor,
    _unit_det,
    classify,
    decompose,
    null_boost_rescaled,
    pure_boost,
    rotation4,
    rotation_axis_angle,
    spinor_lift,
    velocity,
)
from qubitcone.qmat import TOL, _unit_scaled, _unitary_factor


def nested_boost(v: np.ndarray, g: float) -> np.ndarray:
    """adjoint._boost as a nested 4x4 array, as it was formed before the flat form."""
    x, y, z = v.tolist()
    k = 1.0 + g
    return np.array([[1.0, -x, -y, -z],
                     [-x, g + x * x / k, x * y / k, x * z / k],
                     [-y, x * y / k, g + y * y / k, y * z / k],
                     [-z, x * z / k, y * z / k, g + z * z / k]])


def pure_boost_oracle(vel) -> np.ndarray:
    """pure_boost as it was: g from v @ v, then a whole-array division by g."""
    vel = velocity(vel)
    if vel.kind != TIMELIKE:
        raise NotTimelike("pure_boost requires a timelike velocity")
    g = math.sqrt(1.0 - float(vel.v @ vel.v))
    return nested_boost(vel.v, g) / g


def null_boost_oracle(vel) -> np.ndarray:
    vel = velocity(vel)
    if vel.kind != NULL:
        raise NotNull("null_boost_rescaled requires a null velocity")
    return nested_boost(vel.v, 0.0)


def rotation_spinor_oracle(flat: list) -> list:
    """lorentz._rotation_spinor as it was, through the psi preimage and _unit_det, with the
    fit test absolute in TOL, not the relative one of lorentz._fitting_preimage (see the
    perturbed rotations below)."""
    edge = flat[:4] + flat[4::4]
    if max(abs(edge[0] - 1.0), *map(abs, edge[1:])) > TOL:
        raise NotDecomposable("rotation is not a Bloch-block rotation")
    ell = max(map(abs, flat))
    u = _unit_det(_preimage([x / ell for x in flat], ell))
    if not _fits(u, flat):
        raise NotDecomposable("rotation block is not a proper rotation")
    return u


def lorentz_to_element_oracle(decomp: LorentzDecomposition) -> np.ndarray:
    """lorentz_to_element at lambda_max as it was: v @ v and a nested 2x2 array."""
    u00, u01, u10, u11 = rotation_spinor_oracle(qmat._entries(decomp.rotation, (4, 4), float, "4x4 matrix"))
    lam = lambda_max(decomp.velocity)
    v = decomp.velocity.v
    g = 0.0 if decomp.velocity.kind == NULL else math.sqrt(1.0 - v @ v)
    vx, vy, vz = v.tolist()
    k = lam / (2 * math.sqrt(1.0 + g))
    r00, r01, r10, r11 = k * (1.0 - vz + g), k * complex(-vx, vy), k * complex(-vx, -vy), k * (1.0 + vz + g)
    return np.array([[u00 * r00 + u01 * r10, u00 * r01 + u01 * r11],
                     [u10 * r00 + u11 * r10, u10 * r01 + u11 * r11]])


def scaled_entries_oracle(m: list, mu: float) -> tuple[list, complex]:
    """qmat._scaled_entries as it was: n = m / mu and det n."""
    n00, n01, n10, n11 = n = _unit_scaled(m, mu, lambda m: float(np.abs(m).max()))
    return n, n00 * n11 - n01 * n10


def gram_entries_oracle(n: list) -> tuple[float, float, complex]:
    """qmat._gram_entries as it was: (n†n)_00, (n†n)_11 and (n†n)_01."""
    n00, n01, n10, n11 = n
    p0, p1 = abs(n00) ** 2 + abs(n10) ** 2, abs(n01) ** 2 + abs(n11) ** 2
    return p0, p1, n00.conjugate() * n01 + n10.conjugate() * n11


def factor_oracle(a: list, mu: float) -> tuple:
    """lorentz._factor as it was, before the scalar core was split out of it: the null
    velocity divided by the speed as an array."""
    n, d = scaled_entries_oracle(a, mu)
    p0, p1, h01 = gram_entries_oracle(n)
    t = p0 + p1
    e = [mu * (mu * c) for c in (t, 2 * h01.real, -2 * h01.imag, p0 - p1)]
    v3 = (-2 * h01.real / t, 2 * h01.imag / t, (p1 - p0) / t)
    speed = math.hypot(*v3)
    if _is_null(speed):
        return Velocity(v=np.array(v3) / speed, kind=NULL), mu * (mu * t / 2), n, d, e
    return Velocity(v=np.array(v3), kind=TIMELIKE), mu * (mu * abs(d)), n, d, e


def geometry_oracle(vel: Velocity, scale: float, n: list, d: complex, e: list) -> EffectGeometry:
    """lorentz._geometry as it was, on the parts of factor_oracle."""
    if not math.isfinite(e[0]):
        raise TooLarge("an element's effect M†M overflows")
    rotation = np.array(_psi_entries(_unitary_factor(n, d))).reshape(4, 4)
    return EffectGeometry(rotation=rotation, velocity=vel, scale=scale, e_vec=np.array(e))


def polar_decompose_oracle(m) -> tuple[np.ndarray, np.ndarray]:
    """qmat.polar_decompose as it was, on scaled_entries_oracle and gram_entries_oracle."""
    m = qmat._entries(m, (2, 2), complex, "2x2 matrix")
    mu = max(np.abs(m).tolist())
    if not mu:
        return np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    n, d = scaled_entries_oracle(m, mu)
    p0, p1, h01 = gram_entries_oracle(n)
    abs_det = abs(d)
    k = mu / math.sqrt(p0 + p1 + 2 * abs_det)
    u = np.array(_unitary_factor(n, d)).reshape(2, 2)
    return u, np.array([[k * (p0 + abs_det), k * h01], [k * h01.conjugate(), k * (p1 + abs_det)]])


def rotation_axis_angle_oracle(r3) -> tuple[np.ndarray, float]:
    """rotation_axis_angle as it was, on rotation_spinor_oracle."""
    r = qmat._entries(r3, (3, 3), float, "3x3 rotation matrix")
    u00, u01, u10, u11 = rotation_spinor_oracle([1.0, 0.0, 0.0, 0.0, 0.0, *r[:3], 0.0, *r[3:6], 0.0, *r[6:]])
    s = (-(u01 + u10).imag / 2, (u10 - u01).real / 2, (u11 - u00).imag / 2)
    sin_half = math.hypot(*s)
    if sin_half == 0:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return np.array(s) / sin_half, 2 * math.atan2(sin_half, (u00 + u11).real / 2)


def classify_oracle(L) -> tuple:
    """lorentz._classify as it was: the class read off the Velocity and scale of
    factor_oracle, with the preimage A and the parts of the record."""
    flat = qmat._entries(L, (4, 4), float, "4x4 matrix")
    norm = max(map(abs, flat))
    if norm == 0:
        return OTHER, None, None
    unit = [x / norm for x in flat]
    a = _preimage(unit, norm)
    r = 1 / math.sqrt(norm)
    if not _fits([x * r for x in a], unit):
        return OTHER, None, None
    vel, scale, *_ = parts = factor_oracle(a, max(map(abs, a)))
    if vel.kind == NULL:
        return RESCALED_NULL_BOOST_PRODUCT, a, parts
    return (RESTRICTED if abs(scale - 1) <= TOL else RESCALED_RESTRICTED), a, parts


def decompose_oracle(L) -> EffectGeometry:
    _, _, parts = classify_oracle(L)
    if parts is None:
        raise NotDecomposable("matrix is not a (rescaled) restricted transform or rescaled null-boost product")
    return geometry_oracle(*parts)


def spinor_lift_oracle(L) -> np.ndarray:
    kind, a, _ = classify_oracle(L)
    if kind != RESTRICTED:
        raise NotRestricted("spinor_lift requires a restricted Lorentz transform")
    return np.array(_unit_det(a)).reshape(2, 2)


def element_to_lorentz_oracle(m) -> EffectGeometry:
    m = qmat._entries(m, (2, 2), complex, "2x2 matrix")
    return geometry_oracle(*factor_oracle(m, max(np.abs(m).tolist())))


def bits(x):
    """x as comparable bits: an array by dtype, shape and bytes, a record by its fields,
    a tuple by its items and a float by its hex form."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, tuple):
        return tuple(map(bits, x))
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, LorentzDecomposition):
        out = (bits(x.rotation), x.velocity.kind, bits(x.velocity.v), float(x.scale).hex())
        return out + (bits(x.e_vec),) if isinstance(x, EffectGeometry) else out
    return x


def attempt(fn, *args):
    """(None, what fn returns), or (the type and message of what it raises, None), with
    every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return None, fn(*args)
        except Exception as exc:  # noqa: BLE001 - compared as type and message
            return (type(exc).__name__, str(exc)), None


def outcome(fn, *args):
    """The bits of what fn returns, or the type and message of what it raises, with every
    warning an error."""
    error, result = attempt(fn, *args)
    return ("ok", bits(result)) if error is None else error


EPS = 2.0**-52


def assert_element_near_oracle(decomp):
    """lorentz_to_element raises as its oracle does, with the same message, or returns
    within 4 eps max|M| of it."""
    (error, m), (error_o, m_o) = attempt(lorentz_to_element, decomp), attempt(lorentz_to_element_oracle, decomp)
    assert error == error_o
    if error is None:
        assert (m.dtype, m.shape) == (m_o.dtype, m_o.shape)
        assert np.abs(m - m_o).max() <= 4 * EPS * np.abs(m_o).max()


def assert_axis_angle_near_oracle(r3):
    """rotation_axis_angle raises as its oracle does, with the same message, or returns the
    angle within 4 eps and the axis within 4 eps / sin(theta/2) of it."""
    (error, got), (error_o, want) = attempt(rotation_axis_angle, r3), attempt(rotation_axis_angle_oracle, r3)
    assert error == error_o
    if error is None:
        (axis, angle), (axis_o, angle_o) = got, want
        assert abs(angle - angle_o) <= 4 * EPS
        assert np.abs(axis - axis_o).max() * math.sin(angle_o / 2) <= 4 * EPS


PAIRS = [
    (pure_boost, pure_boost_oracle),
    (null_boost_rescaled, null_boost_oracle),
]
MAPS_OF_L = [
    (classify, lambda L: classify_oracle(L)[0]),
    (decompose, decompose_oracle),
    (spinor_lift, spinor_lift_oracle),
]

U0, V0 = unitary(0.1, 0.2, 0.3, 0.4), unitary(0.5, 0.6, 0.7, 0.8)
Z = np.array([0.0, 0.0, 1.0])
# singular-value ratios: exactly rank 1, or log-uniform over 1e-16 to 1
ratios = st.one_of(st.just(0.0), st.floats(-16, 0).map(lambda x: 10.0**x))
# element and transform scales 1e-150 to 1e150
exponents = st.floats(-150, 150)


@settings(max_examples=300, deadline=None)
@given(u=unitaries, v=unitaries, ratio=ratios, k=exponents, speed=st.floats(0, 1 - TOL_V),
       direction=directions, j=st.one_of(st.just(0.0), exponents))
@example(u=U0, v=V0, ratio=0.0, k=0.0, speed=0.5, direction=Z, j=0.0)  # rank 1
@example(u=U0, v=V0, ratio=0.3, k=2.0, speed=1 - TOL_V, direction=Z, j=0.0)  # |v| exactly 1 - TOL_V
@example(u=U0, v=V0, ratio=0.3, k=2.0, speed=math.nextafter(1 - TOL_V, 0), direction=Z, j=0.0)
@example(u=U0, v=V0, ratio=1e-16, k=-150.0, speed=0.9, direction=Z, j=-150.0)  # det M = 1e-316, subnormal
@example(u=U0, v=V0, ratio=1.0, k=150.0, speed=0.0, direction=Z, j=150.0)
# psi of this element's polar factor is 1 - 6.4e-15 times a rotation: the rotation lift reads
# its weights off r00, where 1 + tr R would put lorentz_to_element 12 eps*max|M| off
@example(u=unitary(5.580896228261273, 1.8851639605797, 2.2001431228615105, 1.0038502791337682),
         v=unitary(4.349617794701731, 5.09445290022638, 1.356361683975255, 0.9777120271100703),
         ratio=1.6690329317193966e-15, k=0.0, speed=0.5, direction=Z, j=0.0)
def test_rewritten_sites_keep_their_bits(u, v, ratio, k, speed, direction, j):
    """element_to_lorentz, polar_decompose, pure_boost, null_boost_rescaled, classify, decompose
    and spinor_lift give the bits, or the exception and message, of the expressions they
    replaced, and lorentz_to_element and rotation_axis_angle come within the rotation lift's
    bounds of theirs, for M = 10^k U diag(1, ratio) V†, the velocity speed * direction and the
    transforms psi(M), R B(v) of M and 10^j R B(velocity)."""
    m = 10.0**k * u @ np.diag([1.0, ratio]) @ v.conj().T
    assert outcome(element_to_lorentz, m) == outcome(element_to_lorentz_oracle, m)
    assert outcome(qmat.polar_decompose, m) == outcome(polar_decompose_oracle, m)
    geom = element_to_lorentz(m)
    assert_axis_angle_near_oracle(geom.rotation[1:, 1:])
    vel = velocity(speed * direction)
    for fn, oracle in PAIRS:
        assert outcome(fn, vel) == outcome(oracle, vel)
        assert outcome(fn, geom.velocity) == outcome(oracle, geom.velocity)
    for decomp in (geom, LorentzDecomposition(rotation=geom.rotation, velocity=vel, scale=1.0)):
        assert_element_near_oracle(decomp)
    transforms = [psi(m), 10.0**j * geom.rotation @ (pure_boost(vel) if vel.kind == TIMELIKE else null_boost_rescaled(vel))]
    if geom.kind == TIMELIKE:
        transforms.append(geom.rotation @ pure_boost(geom.velocity))
    for L in transforms:
        for fn, oracle in MAPS_OF_L:
            assert outcome(fn, L) == outcome(oracle, L)


# perturbation sizes 0.1 to 10 TOL
perturbations = st.floats(-1, 1).map(lambda x: TOL * 10.0**x)


def perturbed(axis, theta, size, seed, block=None) -> np.ndarray:
    """block, or the block of rotation4(axis, theta) when it is None, plus size times a seeded
    normal 3x3 over 3."""
    r3 = rotation4(axis, theta)[1:, 1:] if block is None else block
    return r3 + size * np.random.default_rng(seed).normal(size=(3, 3)) / 3


@settings(max_examples=200, deadline=None)
@given(axis=directions, theta=st.floats(0, math.pi), size=perturbations, seed=st.integers(0, 2**32 - 1))
@example(axis=Z, theta=0.0, size=1.2 * TOL, seed=0)
def test_perturbed_rotations_are_accepted_as_before(axis, theta, size, seed):
    """A rotation block perturbed by 0.1 to 10 TOL is accepted or rejected, and lifted,
    by the rotation lift's own absolute fit test, through lorentz_to_element and
    rotation_axis_angle; the relative fit of lorentz._fitting_preimage flips about 3% of them."""
    r3 = perturbed(axis, theta, size, seed)
    rotation = np.eye(4)
    rotation[1:, 1:] = r3
    assert_element_near_oracle(LorentzDecomposition(rotation=rotation, velocity=velocity([0.0, 0.0, 0.5]), scale=1.0))
    assert_axis_angle_near_oracle(r3)


def half_turn(axis) -> np.ndarray:
    """The block 2 n n^T - I of the half turn about a unit axis n, symmetric in its bits, so that
    the lift reads w = 0 off it exactly, as no rotation4(axis, math.pi) gives it."""
    n = np.array(axis)
    return 2 * np.outer(n, n) - np.eye(3)


# The rotation lift's examples, (axis, theta, block) as perturbed takes them: theta = 0; the
# half turns about x, y and z, (0.6, 0.8, 0) and (0.6, 0, 0.8), at the sign rule's tie w = 0,
# with z = 0 and z > 0; a turn 1e-8 short of a half turn; and a block of entries near 1e308,
# which is no rotation.
LIFT_EXAMPLES = [
    (Z, 0.0, None),
    (Z, 0.0, half_turn([1.0, 0.0, 0.0])),
    (Z, 0.0, half_turn([0.0, 1.0, 0.0])),
    (Z, 0.0, half_turn([0.0, 0.0, 1.0])),
    (Z, 0.0, half_turn([0.6, 0.8, 0.0])),
    (Z, 0.0, half_turn([0.6, 0.0, 0.8])),
    (np.array([0.0, 0.8, 0.6]), math.pi - 1e-8, None),
    (Z, 0.0, 1e308 * np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])),
]


def lift_examples(test):
    for axis, theta, block in LIFT_EXAMPLES:
        test = example(axis=axis, theta=theta, size=0.0, seed=0, block=block)(test)
    return test


def pivot(r3) -> int:
    """The index of the largest weight of the rotation lift, 4 w^2, 4 x^2, 4 y^2 or 4 z^2
    of diag(1, R), the first of equal ones."""
    (r11, _, _), (_, r22, _), (_, _, r33) = r3.tolist()
    weights = [1 + r11 + r22 + r33, 1 + r11 - r22 - r33, 1 - r11 + r22 - r33, 1 - r11 - r22 + r33]
    return weights.index(max(weights))


def block_entries(r3) -> list:
    """The 16 entries of diag(1, r3), as Python floats, as qmat._entries gives them."""
    row1, row2, row3 = r3.tolist()
    return [1.0, 0.0, 0.0, 0.0, 0.0, *row1, 0.0, *row2, 0.0, *row3]


def test_the_lift_examples_reach_every_pivot_and_the_sign_tie():
    """The examples make each of the four weights the largest, and lift with U_00 = w - i z on
    the sign rule: w > 0, or w = 0 and Im U_00 = -z >= 0, which the half turns about z and
    (0.6, 0, 0.8) meet with z != 0, the tie."""
    blocks = [perturbed(axis, theta, 0.0, 0, block) for axis, theta, block in LIFT_EXAMPLES]
    assert [pivot(r3) for r3 in blocks] == [0, 1, 2, 3, 2, 3, 2, 0]
    u00 = [_rotation_spinor(block_entries(r3))[0] for r3 in blocks[:-1]]
    assert all(u.real > 0 or (u.real == 0 and u.imag >= 0) for u in u00), u00
    assert [u.imag for u in u00 if u.real == 0] == [0.0, 0.0, 1.0, 0.0, 0.8]


@settings(max_examples=300, deadline=None)
@given(axis=directions, theta=st.floats(0, math.pi), size=st.just(0.0) | perturbations,
       seed=st.integers(0, 2**32 - 1), block=st.none())
@lift_examples
def test_the_rotation_lift_reads_the_old_spinor(axis, theta, size, seed, block):
    """The quaternion closed form of lorentz._rotation_spinor gives the spinor of the psi
    preimage and _unit_det within 4 eps, signed alike, ties included, or raises as they did,
    with the same message, on exact rotations and rotations perturbed by 0.1 to 10 TOL, and
    rotation_axis_angle keeps its bounds on them. A block with an entry beyond 1 + 2 TOL is
    no rotation: NotDecomposable, with no warning."""
    r3 = perturbed(axis, theta, size, seed, block)
    flat = block_entries(r3)
    (error, u), (error_o, u_o) = attempt(_rotation_spinor, flat), attempt(rotation_spinor_oracle, flat)
    assert error == error_o
    if error is None:
        assert max(map(abs, map(operator.sub, u, u_o))) <= 4 * EPS
    if np.abs(r3).max() > 1 + 2 * TOL:
        assert error == ("NotDecomposable", "rotation block is not a proper rotation")
    assert_axis_angle_near_oracle(r3)


def test_a_rotation_fits_its_unit_det_lift_absolutely():
    """diag(1, (1 + 1.2 TOL) I) is 1.2 TOL away from psi of its unit-det lift I, so it is no
    rotation, as before; classify fits it within TOL max|L| to psi(1.00000000045 I) and reads
    a restricted transform, which the rotation lift would pass on that fit."""
    rotation = np.diag([1.0] + [1 + 1.2 * TOL] * 3)
    with pytest.raises(NotDecomposable, match="not a proper rotation"):
        rotation_axis_angle(rotation[1:, 1:])
    assert classify(rotation) == RESTRICTED


def test_the_class_oracle_meets_every_class():
    """classify and its oracle agree on a transform of each class, so that the property
    above compares them on every branch of the class rule."""
    boost = pure_boost(velocity([0.0, 0.0, 0.9]))
    transforms = [rotation4(Z, 0.7) @ boost, 3 * boost, psi(np.diag([1.0, 0.0])), np.diag([1.0, -1.0, 1.0, 1.0])]
    kinds = [classify(L) for L in transforms]
    assert kinds == [classify_oracle(L)[0] for L in transforms]
    assert kinds == [RESTRICTED, RESCALED_RESTRICTED, RESCALED_NULL_BOOST_PRODUCT, OTHER]


# finite entries whose sum overflows: _entries tests each entry and accepts them
OVERFLOWING_SUMS = [
    (np.array([1.7e308] * 8 + [-1.7e308] * 8).reshape(4, 4), ((4, 4), float, "4x4 matrix")),
    (np.full((2, 2), 1e308 + 1e308j), ((2, 2), complex, "2x2 matrix")),
]


@pytest.mark.parametrize("entries, spec", OVERFLOWING_SUMS, ids=["4x4 of +-1.7e308", "2x2 of 1e308+1e308j"])
def test_entries_accepts_finite_entries_whose_sum_overflows(entries, spec):
    """The sum of these finite entries overflows, so _entries falls back to testing each
    entry, and returns them all, bit for bit."""
    flat = qmat._entries(entries, *spec)
    assert not cmath.isfinite(sum(flat))
    assert np.array(flat).tobytes() == entries.ravel().tobytes()


def test_maps_take_finite_entries_whose_sum_overflows():
    """Through the maps, such input is validated and reaches the domain checks: an
    overflowing effect is TooLarge and a 4x4 outside the image of psi is other."""
    (big4, _), (big2, _) = OVERFLOWING_SUMS
    with pytest.raises(TooLarge, match="effect M†M overflows"):
        element_to_lorentz(big2)
    u, p = qmat.polar_decompose(big2)
    assert np.isfinite(u).all() and np.isfinite(p).all()
    assert classify(big4) == OTHER
    with pytest.raises(NotDecomposable):
        decompose(big4)
    with pytest.raises(NotRestricted):
        spinor_lift(big4)
    with pytest.raises(NotDecomposable, match="Bloch-block"):
        lorentz_to_element(LorentzDecomposition(rotation=big4, velocity=velocity([0.0, 0.0, 0.5]), scale=1.0))


def with_bad(shape, dtype, bad: dict) -> np.ndarray:
    """A matrix of ones of shape and dtype with the entries of bad, {flat index: value}."""
    out = np.ones(shape, dtype=dtype).ravel()
    for i, x in bad.items():
        out[i] = x
    return out.reshape(shape)


# an inf, a NaN, and an inf beside a -inf, whose sum is NaN
NON_FINITE = {"inf": {1: math.inf}, "nan": {2: math.nan}, "inf and -inf": {0: math.inf, 3: -math.inf}}


@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_entries_raise_malformed_input(bad):
    """A non-finite entry is MalformedInput with the one message of its shape, through
    element_to_lorentz, lorentz_to_element and spinor_lift, as in _finite."""
    m = with_bad((2, 2), complex, bad)
    L = with_bad((4, 4), float, bad)
    decomp = LorentzDecomposition(rotation=L, velocity=velocity([0.0, 0.0, 0.5]), scale=1.0)
    for fn, arg, message in [(element_to_lorentz, m, "2x2 matrix entries must be finite"),
                             (lorentz_to_element, decomp, "4x4 matrix entries must be finite"),
                             (spinor_lift, L, "4x4 matrix entries must be finite")]:
        with pytest.raises(MalformedInput) as info:
            fn(arg)
        assert str(info.value) == message
    for entries, spec in [(m, ((2, 2), complex, "2x2 matrix")), (L, ((4, 4), float, "4x4 matrix"))]:
        with pytest.raises(MalformedInput) as info:
            qmat._finite(entries, *spec)
        assert str(info.value) == f"{spec[2]} entries must be finite"
