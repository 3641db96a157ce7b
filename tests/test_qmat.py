import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORNERS, rand_complex, rand_herm, rand_positive, swept_elements
from qubitcone import qmat
from qubitcone.errors import MalformedInput, NotPositive
from qubitcone.qmat import (
    SIGMA,
    eigenvalues,
    herm2,
    is_positive,
    mat2,
    polar_decompose,
    sqrt_psd,
)

I2 = np.eye(2, dtype=complex)
X, Y, Z = SIGMA[1], SIGMA[2], SIGMA[3]
PROJ0 = (I2 + Z) / 2

finite_coords = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=4
)


def spectral_sqrt(e):
    """Independent oracle: square root through the spectral decomposition."""
    vals, vecs = np.linalg.eigh(e)
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.conj().T


def test_pauli_basis_orthogonality():
    for mu in range(4):
        for nu in range(4):
            assert np.trace(SIGMA[mu] @ SIGMA[nu]).real == pytest.approx(
                2.0 if mu == nu else 0.0, abs=1e-15
            )
            assert abs(np.trace(SIGMA[mu] @ SIGMA[nu]).imag) < 1e-15


def test_eigenvalues_examples():
    assert eigenvalues(I2) == pytest.approx((1, 1))
    assert eigenvalues(Z) == pytest.approx((1, -1))
    assert eigenvalues(PROJ0) == pytest.approx((1, 0))


@settings(max_examples=200, deadline=None)
@given(finite_coords)
def test_eigenvalues_match_characteristic_polynomial_oracle(coords):
    a, x, y, z = coords
    h = np.array(
        [[(a + z) / 2, (x - 1j * y) / 2], [(x + 1j * y) / 2, (a - z) / 2]],
        dtype=complex,
    )
    lp, lm = eigenvalues(h)
    oracle = np.linalg.eigvalsh(h)
    assert lp == pytest.approx(oracle[1], abs=1e-12)
    assert lm == pytest.approx(oracle[0], abs=1e-12)
    assert lp + lm == pytest.approx(np.trace(h).real, abs=1e-12)
    assert lp * lm == pytest.approx(np.linalg.det(h).real, abs=1e-11)


def test_is_positive_examples():
    assert is_positive(I2)
    assert not is_positive(Z)
    assert is_positive(PROJ0)


def test_sqrt_psd_examples():
    assert np.allclose(sqrt_psd(I2), I2)
    assert np.allclose(sqrt_psd(PROJ0), PROJ0, atol=1e-12)
    e = np.diag([9 / 4, 1 / 4]).astype(complex)
    expected = spectral_sqrt(e)
    assert np.allclose(expected, np.diag([3 / 2, 1 / 2]))
    assert np.allclose(sqrt_psd(e), expected, atol=1e-12)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPositive):
        sqrt_psd(Z)


def test_sqrt_psd_zero():
    assert np.allclose(sqrt_psd(np.zeros((2, 2))), 0)


def test_sqrt_psd_properties():
    rng = np.random.default_rng(3)
    for _ in range(300):
        e = rand_positive(rng, scale=rng.uniform(0.1, 5.0))
        r = sqrt_psd(e)
        assert is_positive(r)
        assert np.max(np.abs(r @ r - e)) < 1e-10
        assert np.allclose(r, spectral_sqrt(e), atol=1e-9)


def test_sqrt_psd_det_relation():
    # 4 det(sqrt(E)) = 2 sqrt(eta(E_vec, E_vec))
    rng = np.random.default_rng(4)
    for _ in range(200):
        e = rand_positive(rng)
        c = np.real(np.einsum("ij,kji->k", e, SIGMA))
        lhs = 4 * np.linalg.det(sqrt_psd(e)).real
        rhs = 2 * np.sqrt(max(c[0] ** 2 - c[1] ** 2 - c[2] ** 2 - c[3] ** 2, 0))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_polar_examples():
    u, p = polar_decompose(I2)
    assert np.allclose(u, I2) and np.allclose(p, I2)

    u, p = polar_decompose(1j * Z)
    assert np.allclose(p, I2, atol=1e-12)
    assert np.allclose(u, 1j * Z, atol=1e-12)

    u, p = polar_decompose(PROJ0)
    assert np.allclose(u, I2, atol=1e-10)
    assert np.allclose(p, PROJ0, atol=1e-12)


def test_polar_zero_matrix():
    u, p = polar_decompose(np.zeros((2, 2)))
    assert np.allclose(u, I2)
    assert np.allclose(p, 0)


def test_polar_properties():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = rand_complex(rng)
        u, p = polar_decompose(m)
        assert np.max(np.abs(u.conj().T @ u - I2)) < 1e-10
        assert np.max(np.abs(u @ p - m)) < 1e-10
        assert is_positive(p)


def test_polar_singular_completion():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = np.outer(a, b)  # rank 1
        u, p = polar_decompose(m)
        assert np.max(np.abs(u.conj().T @ u - I2)) < 1e-9
        assert np.max(np.abs(u @ p - m)) < 1e-9
        # phase convention pins the determinant to 1
        d = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        assert d == pytest.approx(1, abs=1e-9)


def test_mat2_rejects_bad_input():
    with pytest.raises(MalformedInput):
        mat2([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(MalformedInput):
        mat2([[np.nan, 0], [0, 0]])
    with pytest.raises(MalformedInput):
        mat2([[np.inf * 1j, 0], [0, 0]])
    with pytest.raises(MalformedInput):
        mat2([[10**400, 0], [0, 0]])  # beyond float range


def test_herm2_enforces_exact_invariants():
    m = np.array([[1.0 + 1e-12j, 2 + 1j], [2 - 1j + 1e-12, 3.0]])
    h = herm2(m)
    assert h[0, 0].imag == 0 and h[1, 1].imag == 0
    assert h[1, 0] == np.conj(h[0, 1])
    with pytest.raises(MalformedInput):
        herm2([[0, 1], [2, 0]])


@pytest.mark.parametrize("scale", [1e-150, 1e-12, 1.0, 1e150])
def test_herm2_tolerance_is_relative_at_every_scale(scale):
    """herm2 accepts a hermitian matrix plus a 1e-11 relative skew part and
    rejects a 1e-7 one, at element scales 1e-150 to 1e150."""
    rng = np.random.default_rng(21)
    skew = scale * np.array([[0, 1], [-1, 0]])
    for _ in range(50):
        h = rand_herm(rng, scale)
        assert np.allclose(herm2(h + 1e-11 * skew), h, rtol=0, atol=1e-10 * scale)
        with pytest.raises(MalformedInput):
            herm2(h + 1e-7 * skew)


def test_herm2_rejects_a_huge_skew_part_without_overflow():
    """The hermiticity test runs on m / max|m|: m - m† would overflow here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedInput):
            herm2([[1, 1e308], [-1e308, 1]])
        with pytest.raises(MalformedInput):
            herm2([[1.5e308 + 1.5e308j, 0], [0, 1]])


def test_herm2_of_a_huge_hermitian_matrix_without_overflow():
    """The hermitian part is m/2 + m†/2: m + m† would overflow here."""
    m = [[1, 1e308], [1e308, 1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(herm2(m), m)


def test_herm2_below_unit_scale():
    with pytest.raises(MalformedInput):
        herm2([[1e-12, 1e-11], [0, 1e-12]])
    assert not herm2(np.zeros((2, 2))).any()


@pytest.mark.parametrize("scale", [1e-310, 5e-324])
def test_herm2_rejects_a_subnormal_matrix_that_is_not_hermitian(scale):
    """Below 1/DBL_MAX, 1/max|m| overflows; herm2 lifts m by 2^1000 first, as
    _scaled_entries does, so the test stays relative: the upper-triangular
    matrix is rejected and its hermitian counterpart accepted."""
    with pytest.raises(MalformedInput, match="not hermitian"):
        herm2(scale * np.array([[1, 1], [0, 1]]))
    h = scale * np.array([[1, 1j], [-1j, 1]])
    assert herm2(h).tobytes() == qmat._hermitize(mat2(h)).tobytes()


def test_hermitize_is_projection():
    rng = np.random.default_rng(7)
    m = rand_complex(rng)
    h = qmat._hermitize(m)
    assert np.array_equal(qmat._hermitize(h), h)


def test_eigenvalue_closed_form_matches_coordinates():
    # lam_pm = (coords_0 +- |bloch|)/2
    rng = np.random.default_rng(8)
    for _ in range(200):
        h = rand_herm(rng)
        c = np.real(np.einsum("ij,kji->k", h, SIGMA))
        r = np.linalg.norm(c[1:])
        lp, lm = eigenvalues(h)
        assert lp == pytest.approx((c[0] + r) / 2, abs=1e-12)
        assert lm == pytest.approx((c[0] - r) / 2, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(swept_elements)
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
def test_polar_domain_sweep(case):
    m, ratio = case
    u, p = polar_decompose(m)
    assert np.linalg.norm(u.conj().T @ u - I2) <= 1e-14
    assert np.linalg.norm(u @ p - m) <= 1e-14 * np.linalg.norm(m)
    assert is_positive(p / np.linalg.norm(p))
    if ratio == 0:
        # round-off branch: the phase convention pins det u to 1
        assert abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1) <= 1e-14


def haar_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (r.diagonal() / np.abs(r.diagonal()))


def test_polar_off_scale_sweep():
    """m = s U diag(1, r) V†, s from 1e-300 to 1e300 (1e-170, 1e-160 and 1e160
    among them), r = 0 or down to 1e-8: ||u p - m|| <= 8 eps ||m||, u unitary,
    and p exactly hermitian and positive. The residual is formed on m and p
    times the same power of two, which is exact, so that it does not
    underflow itself."""
    rng = np.random.default_rng(22)
    eps = np.finfo(float).eps
    scales = [1e-170, 1e-160, 1e160] + list(10.0 ** rng.uniform(-300, 300, size=2000))
    for s in scales:
        r = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-8, 0)
        m = s * haar_unitary(rng) @ np.diag([1.0, r]) @ haar_unitary(rng).conj().T
        u, p = polar_decompose(m)
        c = np.ldexp(1.0, -np.frexp(np.abs(m).max())[1])
        assert np.linalg.norm(u @ (c * p) - c * m) <= 8 * eps * np.linalg.norm(c * m)
        assert np.linalg.norm(u.conj().T @ u - I2) <= 1e-14
        assert np.array_equal(p, p.conj().T)
        assert is_positive(p)


def test_eigenvalues_scale_range():
    rng = np.random.default_rng(9)
    for _ in range(50):
        h = rand_herm(rng)
        lp, lm = eigenvalues(h)
        size = abs(lp) + abs(lm)
        for s in (1e-300, 1e300):
            sp, sm = eigenvalues(s * h)
            assert abs(sp - s * lp) <= 1e-15 * s * size
            assert abs(sm - s * lm) <= 1e-15 * s * size


def test_sqrt_psd_of_rank_one_effects_at_top_scale():
    """Round-off in M†M grows with its scale, and positivity is tested
    relative to the trace, so a rank-one effect at element scale 1e150 passes."""
    rng = np.random.default_rng(10)
    for _ in range(200):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = 1e150 * np.outer(u, v.conj()) / np.abs(np.outer(u, v.conj())).max()
        e = m.conj().T @ m
        r = sqrt_psd(e)
        assert np.max(np.abs(r @ r - e)) <= 1e-14 * np.max(np.abs(e))


def test_sqrt_psd_scale_range():
    m = np.array([[0.8, 0.1j], [0.2, 0.5]])
    root = sqrt_psd(m.conj().T @ m)
    for s in (1e-150, 1e-80, 1e80, 1e150):
        e = (s * m).conj().T @ (s * m)
        r = sqrt_psd(e)
        assert np.max(np.abs(r @ r - e)) <= 1e-15 * np.max(np.abs(e))
        assert np.max(np.abs(r - s * root)) <= 1e-15 * s


# (shape, dtype, what) of every fixed-shape input that qmat._entries validates
ENTRY_SPECS = [((2, 2), complex, "2x2 matrix"), ((4, 4), float, "4x4 matrix"), ((3, 3), float, "3x3 rotation matrix")]


def entry_corpus(shape, dtype):
    """Valid matrices (an array, nested lists, signed zeros, zeros, single precision);
    in each slot in turn NaN, inf or -inf (in either part when complex), a str, None,
    a bool, an int, the integer 10**400, a list or a dict; wrong shapes and a ragged list."""
    rng = np.random.default_rng(sum(shape))
    base = rng.normal(size=shape)
    if dtype is complex:
        base = base + 1j * rng.normal(size=shape)
    nested = base.tolist()
    corpus = [base, nested, -0.0 * base, np.zeros(shape), base.astype(np.float32 if dtype is float else np.complex64)]
    bad = [math.nan, math.inf, -math.inf]
    if dtype is complex:
        bad += [complex(0, math.nan), complex(1, math.inf), complex(-math.inf, 0)]
    for leaf in bad + ["1.5", "x", None, True, False, 7, 10**400, [1.0], {}]:
        for i in range(base.size):
            entries = base.ravel().tolist()
            entries[i] = leaf
            corpus.append(np.array(entries, dtype=object).reshape(shape).tolist())
    rows, cols = shape
    corpus += [
        base.ravel().tolist(), base[:, :-1].tolist(), base[:-1].tolist(),
        [base.tolist()], nested[:-1] + [nested[-1][:-1]], [], [[]], 1.0, None, "matrix", object(),
        np.zeros((rows, cols, 1)), np.zeros(rows * cols), np.zeros((cols + 1, rows)),
    ]
    return corpus


def outcome(fn, entries, spec):
    """('ok', reprs of the row-major entries) or (exception class, message)."""
    try:
        out = fn(entries, *spec)
    except Exception as exc:  # both must raise the same class with the same message
        return type(exc), str(exc)
    if isinstance(out, np.ndarray):
        out = out.ravel().tolist()
    assert all(type(x) is spec[1] for x in out)
    return "ok", [repr(x) for x in out]


@pytest.mark.parametrize("spec", ENTRY_SPECS, ids=lambda spec: spec[2])
def test_entries_agrees_with_finite(spec):
    """qmat._entries accepts and rejects what qmat._finite does, with the same
    exception class and message, and returns the same entries bit for bit."""
    outcomes = []
    for entries in entry_corpus(*spec[:2]):
        want = outcome(qmat._finite, entries, spec)
        assert outcome(qmat._entries, entries, spec) == want
        outcomes.append(want[0])
    assert "ok" in outcomes and MalformedInput in outcomes


def previous_herm2(entries):
    """The numpy herm2 that the closed form replaced, with one change: a matrix whose
    largest part s is subnormal is tested on (m 2^1000) / (s 2^1000), as herm2 now
    tests it. The numpy form divided by s itself, which overflowed below 1/DBL_MAX, and
    so it passed any such matrix, hermitian or not."""
    m = mat2(entries)
    s = max(np.abs(m.real).max(), np.abs(m.imag).max())
    lift = 2.0**1000 if s < 2.0**-1022 else 1.0
    n = m * lift / (s * lift or 1.0)
    if float(np.max(np.abs(n - n.conj().T))) / 2 > qmat.TOL * float(np.max(np.abs(n))):
        raise MalformedInput("matrix is not hermitian within tolerance")
    return qmat._hermitize(m)


def herm2_outcome(fn, m):
    try:
        return fn(m).tobytes()
    except MalformedInput as exc:
        return str(exc)


def test_herm2_matches_the_numpy_form_bit_for_bit():
    """The closed form gives the numpy form's bits, signed zeros included, and
    rejects what it rejected: hermitian matrices with zeros of either sign in
    any part, plus a skew part of relative size 0, 1e-11 or 1e-7, at scales
    1e-300 to 1e300, and inputs whose largest part is subnormal, which both
    test at 2^1000 times their size."""
    rng = np.random.default_rng(2020)
    signed_zeros = np.array([0.0, -0.0])
    for i in range(10_000):
        scale = 10.0 ** rng.uniform(-300, 300) if i % 100 else 10.0 ** rng.uniform(-323, -308)
        h = rand_herm(rng, scale)
        for part in (h.real, h.imag):
            zeros = rng.random((2, 2)) < 0.25
            part[zeros] = signed_zeros[rng.integers(2, size=zeros.sum())]
        skew = rng.choice([0.0, 1e-11, 1e-7]) * scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        m = h + skew if skew.any() else h
        want = herm2_outcome(previous_herm2, m)
        assert herm2_outcome(herm2, m) == want, m


@pytest.mark.parametrize("m", [
    [[1, 1e308], [1e308, 1]], [[1e308, -1e308j], [1e308j, -1e308]], [[1.7976931348623157e308, 0], [0, 5e-324]],
    [[1, 1e308], [-1e308, 1]], [[1.5e308 + 1.5e308j, 0], [0, 1]], [[-0.0, -0.0j], [complex(-0.0, 0.0), -0.0]],
])
def test_herm2_matches_the_numpy_form_near_the_float_limit(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert herm2_outcome(herm2, m) == herm2_outcome(previous_herm2, m)
