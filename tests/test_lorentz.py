import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORNERS, directions, rand_restricted, rand_rotation4, rand_timelike, rand_unit3, swept_elements
from qubitcone.adjoint import psi
from qubitcone.cli import main
from qubitcone.conemap import ETA
from qubitcone.correspond import element_to_lorentz, lorentz_to_element
from qubitcone.errors import (
    BadAxis,
    MalformedInput,
    NotDecomposable,
    NotNull,
    NotRestricted,
    NotTimelike,
    TooLarge,
)
from qubitcone.lorentz import (
    NULL,
    OTHER,
    RESCALED_NULL_BOOST_PRODUCT,
    RESCALED_RESTRICTED,
    RESTRICTED,
    TIMELIKE,
    TOL_V,
    LorentzDecomposition,
    Velocity,
    _is_null,
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
from qubitcone.qmat import TOL, _finite

I4 = np.eye(4)
# the round-off of the norm of a normalised vector
ROUNDOFF = 4 * np.finfo(float).eps


def test_velocity_classification():
    assert velocity([0.1, 0.2, 0.3]).kind == TIMELIKE
    v = velocity([0, 0, 1])
    assert v.kind == NULL and np.allclose(v.v, [0, 0, 1])
    with pytest.raises(NotTimelike):
        velocity([0, 0, 1.5])
    assert velocity([0, 0, 1 - 1e-10]).kind == NULL  # within TOL_V of 1, as _is_null reads it


@pytest.mark.parametrize("v, kind", [
    ([2.0, 0.0, 0.0], TIMELIKE),  # pure_boost raised "math domain error" on it
    ([1.0, 0.0, 0.0], TIMELIKE),
    ([0.5, 0.0, 0.0], NULL),  # lorentz_to_element returned a non-projective element of it
    ([0.5, 0.0, 0.0], "bogus"),  # read as timelike
    ([math.nan, 0.0, 0.0], TIMELIKE),
    ([math.inf, 0.0, 0.0], NULL),
    ([0.5, 0.0], TIMELIKE),
    ([True, 0.0, 0.0], TIMELIKE),
], ids=["timelike |v| = 2", "timelike |v| = 1", "null |v| = 1/2", "unknown kind", "NaN", "inf", "2-vector",
        "bool leaf"])
def test_a_velocity_checks_itself(v, kind):
    """A Velocity built by hand is MalformedInput unless v is a finite 3-vector whose norm
    fits its kind, so that pure_boost and lorentz_to_element never read a bad one."""
    with pytest.raises(MalformedInput):
        Velocity(v=v, kind=kind)


def test_a_velocity_is_never_renormalised():
    """The checked v is kept bit for bit, and a null v within TOL of unit norm keeps its norm."""
    arr = np.array([0.1, 0.2, 0.3])
    assert Velocity(v=arr, kind=TIMELIKE).v.tobytes() == arr.tobytes()
    near = np.array([0.0, 0.0, 1 + 0.5e-9])
    assert Velocity(v=near, kind=NULL).v[2] == 1 + 0.5e-9
    assert Velocity(v=[0.0, 0.6, 0.8], kind=NULL).v.tolist() == [0.0, 0.6, 0.8]


def test_a_velocity_keeps_a_read_only_copy():
    """A change to the caller's array after the check reaches no record: pure_boost and
    lorentz_to_element read the checked v, and the record's own v cannot be written."""
    arr = np.array([0.1, 0.0, 0.0])
    vel = Velocity(v=arr, kind=TIMELIKE)
    decomp = LorentzDecomposition(rotation=np.eye(4), velocity=vel, scale=1.0)
    before = pure_boost(vel), lorentz_to_element(decomp)
    arr[0] = 2.0
    assert vel.v.tolist() == [0.1, 0.0, 0.0]
    assert pure_boost(vel).tobytes() == before[0].tobytes()
    assert lorentz_to_element(decomp).tobytes() == before[1].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        vel.v[0] = 2.0


@settings(max_examples=300, deadline=None)
@given(swept=swept_elements, direction=directions, speed=st.floats(0, 1 + TOL_V))
@example(swept=CORNERS[0], direction=np.array([0.0, 0.0, 1.0]), speed=1 - TOL_V)
@example(swept=CORNERS[1], direction=np.array([0.0, 0.6, 0.8]), speed=1 + TOL_V)
def test_built_velocities_pass_the_check(swept, direction, speed):
    """velocity and element_to_lorentz build their records without running Velocity's
    check again: each record passes it and keeps its bits through it."""
    for vel in [velocity(speed * direction), element_to_lorentz(swept[0]).velocity]:
        assert Velocity(v=vel.v, kind=vel.kind).v.tobytes() == vel.v.tobytes()


def test_velocity_copies_the_callers_array():
    """A timelike velocity keeps a copy, so that a later change to the caller's array
    cannot make it superluminal."""
    arr = np.array([0.1, 0.0, 0.0])
    vel = velocity(arr)
    arr[0] = 2.0
    assert vel.v.tolist() == [0.1, 0.0, 0.0]


def norm_velocity(v) -> Velocity:
    """velocity as it was written with np.linalg.norm, kept as the oracle of its norm."""
    arr = _finite(v, (3,), float, "3-vector")
    with np.errstate(over="ignore"):
        s = float(np.linalg.norm(arr))
    if s > 1 + TOL_V:
        raise NotTimelike(f"|v| = {s} is superluminal")
    return Velocity(v=arr / s, kind=NULL) if _is_null(s) else Velocity(v=arr, kind=TIMELIKE)


def norm_su2(axis, theta: float) -> np.ndarray:
    """su2_from_axis_angle as it was written with np.linalg.norm, for a finite theta,
    under the errstate that su2_from_axis_angle takes its norm in."""
    axis = _finite(axis, (3,), float, "3-vector")
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(axis))
    if abs(n - 1) > TOL:
        raise BadAxis(f"axis norm {n} is not 1 within tolerance")
    x, y, z = (axis / n).tolist()
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[complex(c, -s * z), complex(-s * y, -s * x)],
                     [complex(s * y, -s * x), complex(c, s * z)]])


def outcome(fn, *args):
    """What fn returns, as bits, or the type and message of what it raises, with every
    warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - compared as type and message
            return type(exc).__name__, str(exc)
    return (out.kind, out.v.dtype.str, out.v.tobytes()) if isinstance(out, Velocity) else (out.dtype.str, out.tobytes())


def scaled(direction: list, exponent: float, unit: bool) -> np.ndarray:
    """direction times 10^exponent, first normalised when unit is set and it is not 0."""
    d, n = np.array(direction), math.hypot(*direction)
    return (d / n if unit and n else d) * 10.0**exponent


# scales 1e-160 to 1e160, and speeds within about 2.3e-8 of 1, the null band included
vectors = st.builds(scaled, st.lists(st.floats(-1, 1), min_size=3, max_size=3),
                    st.one_of(st.floats(-160, 160), st.floats(-1e-8, 1e-8)), st.booleans())


@settings(max_examples=300, deadline=None)
@given(v=vectors, theta=st.floats(-10, 10))
@example(v=np.array([5e-324, -1e-310, 0.0]), theta=0.5)  # subnormal
@example(v=np.array([0.0, 0.0, 1 - TOL_V]), theta=0.5)  # |v| exactly 1 - TOL_V
@example(v=np.array([2e154, 0.0, 1e154]), theta=0.5)  # v . v overflows
def test_norm_is_numpys_norm_bit_for_bit(v, theta):
    """velocity and su2_from_axis_angle take the norm as math.sqrt(v.dot(v)): the same
    kind, returned bits, exception and message (warnings included) as np.linalg.norm."""
    assert outcome(velocity, v) == outcome(norm_velocity, v)
    assert outcome(su2_from_axis_angle, v, theta) == outcome(norm_su2, v, theta)


def test_norm_edges():
    """A subnormal velocity is timelike, one of speed exactly 1 - TOL_V null, and one
    whose v . v overflows superluminal, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert velocity([5e-324, -1e-310, 0.0]).kind == TIMELIKE
        assert velocity([0.0, 0.0, 1 - TOL_V]).kind == NULL
        with pytest.raises(NotTimelike, match=r"^\|v\| = inf is superluminal$"):
            velocity([2e154, 0.0, 1e154])


@pytest.mark.parametrize("axis", [[1e200, 0.0, 0.0], [2e154, 0.0, 0.0], [0.0, 2e154, 1e154]])
def test_an_axis_whose_norm_overflows_is_bad(axis):
    """An axis whose a . a overflows has norm inf: BadAxis through su2_from_axis_angle
    and rotation4, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (su2_from_axis_angle, rotation4):
            with pytest.raises(BadAxis, match=r"^axis norm inf is not 1 within tolerance$"):
                fn(axis, 0.5)


def test_normalised_vectors_read_as_null():
    """The norm of a normalised vector rounds to within a few ulps of 1,
    below as often as above; it is null either way."""
    g = np.random.default_rng(16).normal(size=(1000, 3))
    units = g / np.linalg.norm(g, axis=1, keepdims=True)
    assert min(np.linalg.norm(units, axis=1)) < 1  # the case that used to fail
    for u in units:
        vel = velocity(u)
        assert vel.kind == NULL and abs(np.linalg.norm(vel.v) - 1) <= ROUNDOFF


@pytest.mark.parametrize("gap", [1e-12, 1e-14, 8 * ROUNDOFF, 2 * ROUNDOFF, TOL_V / 2])
def test_speeds_within_tol_v_below_1_read_as_null(gap):
    """The band (1 - TOL_V, 1 - 4 eps) once raised as ambiguous; it is null by the one
    null rule, lorentz._is_null, and returned normalised."""
    vel = velocity([0, 0, 1 - gap])
    assert vel.kind == NULL and vel.v.tolist() == [0.0, 0.0, 1.0]


# speeds on both sides of each edge of the null band, the round-off of a unit norm, and 1
EDGE_SPEEDS = [x for edge in (1 - TOL_V, 1 + TOL_V) for x in (math.nextafter(edge, 0), edge, math.nextafter(edge, 2))]
EDGE_SPEEDS += [1 - ROUNDOFF, 1.0]
AXES = [sign * row for row in np.eye(3) for sign in (1.0, -1.0)]  # |s u| = s exactly


@settings(deadline=None)
@given(st.sampled_from(EDGE_SPEEDS) | st.floats(0, 2), st.sampled_from(AXES))
@example(1 - TOL_V, AXES[4])
@example(math.nextafter(1 + TOL_V, 2), AXES[4])
def test_velocity_and_to_element_read_the_one_null_rule(s, u):
    """velocity(s u) is null iff _is_null(s), up to 1 + TOL_V, and superluminal above;
    to-element exits 0 up to 1 + TOL_V and 3 above it, with no traceback."""
    if s > 1 + TOL_V:
        with pytest.raises(NotTimelike):
            velocity(s * u)
    else:
        vel = velocity(s * u)
        assert (vel.kind == NULL) == _is_null(s)
        assert np.array_equal(vel.v, u if vel.kind == NULL else s * u)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "0.5",
                     "--velocity=" + ",".join(map(repr, (s * u).tolist()))])
    assert code == (0 if s <= 1 + TOL_V else 3), (s, err.getvalue())
    assert "Traceback" not in err.getvalue() and (out.getvalue() == "") == bool(code)


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


def test_decompose_raises_where_the_effect_overflows():
    """e_vec[0] = 2 L_00 of L = x I: decompose raises TooLarge once it overflows, as
    element_to_lorentz does on the element whose effect overflows the same way, and
    returns a finite e_vec at the largest x below that edge."""
    edge = np.finfo(float).max / 2
    for L in (1e308 * I4, np.nextafter(edge, np.inf) * I4):
        with pytest.raises(TooLarge, match="an element's effect M†M overflows"):
            decompose(L)
    with pytest.raises(TooLarge, match="an element's effect M†M overflows"):
        element_to_lorentz(1e154 * np.eye(2))
    d = decompose(edge * I4)
    assert d.e_vec[0] == pytest.approx(2 * edge, rel=4 * np.finfo(float).eps) and not d.e_vec[1:].any()
    assert d.velocity.kind == TIMELIKE and not d.velocity.v.any()
    assert d.scale == pytest.approx(edge, rel=4 * np.finfo(float).eps)
    assert np.array_equal(d.rotation, I4)


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


@pytest.mark.parametrize("L, lift", [
    (np.diag([1.0, 1.0, -1.0, -1.0]), [[0, -1j], [-1j, 0]]),
    (np.diag([1.0, -1.0, 1.0, -1.0]), [[0, -1], [1, 0]]),
], ids=["half turn about x", "half turn about y"])
def test_spinor_lift_sign_at_a_half_turn(L, lift):
    """At a half turn about x or y, u00 = 0 and the sign test of _unit_det reads
    s = a00 + conj(a11) = 0 exactly: neither Re s < 0 nor the tie Im s < 0 flips the root,
    so the lift is A / sqrt(det A) on the principal root, these entries exactly."""
    assert spinor_lift(L).tolist() == np.array(lift, dtype=complex).tolist()


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


@pytest.mark.parametrize("axis", [[0, 0, 2], [0.5, 0, 0], [1, 1, 0], [0, 0, 0]])
def test_su2_from_axis_angle_rejects_a_non_unit_axis(axis):
    with pytest.raises(BadAxis):
        su2_from_axis_angle(axis, 1.0)


def test_su2_from_axis_angle_normalises_a_near_unit_axis():
    """An axis of norm 1 within 1e-9 is normalised, so the spinor is unitary to
    round-off; rotation4 is psi of that spinor."""
    axis = (1 + 5e-10) * np.array([0.36, 0.48, 0.8])
    u = su2_from_axis_angle(axis, 1.0)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 4 * np.finfo(float).eps
    assert np.array_equal(rotation4(axis, 1.0)[1:, 1:], psi(u)[1:, 1:])


def test_null_boost_is_limit_of_pure_boosts():
    vhat = np.array([0.6, 0.0, 0.8])
    n = null_boost_rescaled(Velocity(v=vhat, kind=NULL))
    diffs = []
    for k in range(2, 7):
        speed = 1 - 10.0 ** (-k)
        b = pure_boost(velocity(speed * vhat))
        diffs.append(np.max(np.abs(b / b[0, 0] - n)))
    assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
