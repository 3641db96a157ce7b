"""The flat forms of the scalar chain keep the bits of the forms they replaced.

pure_boost divides the 16 floats of adjoint._boost by g before it forms one flat
array; lorentz_to_element forms its result flat and takes v.dot(v); the null
branch of lorentz._factor divides v3 by the speed as floats; classify and
spinor_lift read the class off lorentz._core without forming a Velocity; and
qmat._entries tests its entries finite by their sum first. The earlier
expressions are kept here as oracles, and every result is compared bit for bit,
every exception by type and message.
"""
import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import directions, unitaries, unitary
from qubitcone import qmat
from qubitcone.adjoint import _preimage, psi
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
    _geometry,
    _is_null,
    _rotation_spinor,
    _unit_det,
    classify,
    decompose,
    null_boost_rescaled,
    pure_boost,
    rotation4,
    spinor_lift,
    velocity,
)
from qubitcone.qmat import TOL, _gram_entries, _scaled_entries


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


def lorentz_to_element_oracle(decomp: LorentzDecomposition) -> np.ndarray:
    """lorentz_to_element at lambda_max as it was: v @ v and a nested 2x2 array."""
    u00, u01, u10, u11 = _rotation_spinor(qmat._entries(decomp.rotation, (4, 4), float, "4x4 matrix"))
    lam = lambda_max(decomp.velocity)
    v = decomp.velocity.v
    g = 0.0 if decomp.velocity.kind == NULL else math.sqrt(1.0 - v @ v)
    vx, vy, vz = v.tolist()
    k = lam / (2 * math.sqrt(1.0 + g))
    r00, r01, r10, r11 = k * (1.0 - vz + g), k * complex(-vx, vy), k * complex(-vx, -vy), k * (1.0 + vz + g)
    return np.array([[u00 * r00 + u01 * r10, u00 * r01 + u01 * r11],
                     [u10 * r00 + u11 * r10, u10 * r01 + u11 * r11]])


def factor_oracle(a: list, mu: float) -> tuple:
    """lorentz._factor as it was, before the scalar core was split out of it: the null
    velocity divided by the speed as an array."""
    n, d = _scaled_entries(a, mu)
    p0, p1, h01 = _gram_entries(n)
    t = p0 + p1
    e = [mu * (mu * c) for c in (t, 2 * h01.real, -2 * h01.imag, p0 - p1)]
    v3 = (-2 * h01.real / t, 2 * h01.imag / t, (p1 - p0) / t)
    speed = math.hypot(*v3)
    if _is_null(speed):
        return Velocity(v=np.array(v3) / speed, kind=NULL), mu * (mu * t / 2), n, d, e
    return Velocity(v=np.array(v3), kind=TIMELIKE), mu * (mu * abs(d)), n, d, e


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
    return _geometry(*parts)


def spinor_lift_oracle(L) -> np.ndarray:
    kind, a, _ = classify_oracle(L)
    if kind != RESTRICTED:
        raise NotRestricted("spinor_lift requires a restricted Lorentz transform")
    return np.array(_unit_det(a)).reshape(2, 2)


def element_to_lorentz_oracle(m) -> EffectGeometry:
    m = qmat._entries(m, (2, 2), complex, "2x2 matrix")
    return _geometry(*factor_oracle(m, max(np.abs(m).tolist())))


def bits(x):
    """x as comparable bits: an array by dtype, shape and bytes, a record by its fields."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, LorentzDecomposition):
        out = (bits(x.rotation), x.velocity.kind, bits(x.velocity.v), float(x.scale).hex())
        return out + (bits(x.e_vec),) if isinstance(x, EffectGeometry) else out
    return x


def outcome(fn, *args):
    """The bits of what fn returns, or the type and message of what it raises, with every
    warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", bits(fn(*args))
        except Exception as exc:  # noqa: BLE001 - compared as type and message
            return type(exc).__name__, str(exc)


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
def test_rewritten_sites_keep_their_bits(u, v, ratio, k, speed, direction, j):
    """element_to_lorentz, pure_boost, null_boost_rescaled, lorentz_to_element, classify,
    decompose and spinor_lift give the bits, or the exception and message, of the
    expressions they replaced, for M = 10^k U diag(1, ratio) V†, the velocity
    speed * direction and the transforms psi(M), R B(v) of M and 10^j R B(velocity)."""
    m = 10.0**k * u @ np.diag([1.0, ratio]) @ v.conj().T
    assert outcome(element_to_lorentz, m) == outcome(element_to_lorentz_oracle, m)
    geom = element_to_lorentz(m)
    vel = velocity(speed * direction)
    for fn, oracle in PAIRS:
        assert outcome(fn, vel) == outcome(oracle, vel)
        assert outcome(fn, geom.velocity) == outcome(oracle, geom.velocity)
    for decomp in (geom, LorentzDecomposition(rotation=geom.rotation, velocity=vel, scale=1.0)):
        assert outcome(lorentz_to_element, decomp) == outcome(lorentz_to_element_oracle, decomp)
    transforms = [psi(m), 10.0**j * geom.rotation @ (pure_boost(vel) if vel.kind == TIMELIKE else null_boost_rescaled(vel))]
    if geom.kind == TIMELIKE:
        transforms.append(geom.rotation @ pure_boost(geom.velocity))
    for L in transforms:
        for fn, oracle in MAPS_OF_L:
            assert outcome(fn, L) == outcome(oracle, L)


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
