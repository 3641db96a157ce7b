"""2x2 complex matrix kernel.

Everything downstream (cone geometry, Lorentz machinery, the measurement
correspondence) reduces to a handful of primitives on 2x2 matrices:
hermiticity, positivity, closed-form eigenvalues, the positive square root
and the polar decomposition. All functions are pure. Input is validated once:
by _finite into an array (mat2: (2, 2) complex128), or with the same checks and
messages by _entries into one matrix's entries as Python numbers, for the scalar
chain. The underscored kernels take validated input: _hermitize, _gram, _coords
and _from_coords broadcast over leading axes; _scaled_entries, _gram_entries and
_unitary_factor take one matrix's entries as Python complex numbers, max|m| given.
Roots and polar factors are Cayley–Hamilton closed forms. Every yes/no test
of the package reads the one tolerance TOL.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import MalformedInput, NotPositive

# The one tolerance of the package's yes/no tests, relative to the scale of
# what is tested: positive (on the cone), hermitian, unitary, psi(A) = L,
# unit axis, complete (sum M†M = I) and unit trace.
TOL = 1e-9

# At or below this share of ||M||_F^2, |det M| is round-off of an exactly
# singular M, whose phase is noise: polar_decompose then fixes det U = 1.
_SINGULAR_DET = 8 * np.finfo(float).eps

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)

# Pauli basis sigma_mu, mu = 0..3: identity, X, Y, Z.
SIGMA = np.stack([SIGMA0, SIGMA1, SIGMA2, SIGMA3])
_PAULI_COLUMNS = SIGMA.transpose(0, 2, 1).reshape(4, 4).T


def _shaped(entries, shape: tuple, dtype, what: str) -> np.ndarray:
    """entries as an array of shape (None: any count > 0), not yet tested finite."""
    try:
        arr = np.asarray(entries, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, non-numeric or beyond float range
        raise MalformedInput(f"expected a {what}: {exc}") from exc
    if shape[0] is None and arr.ndim == len(shape) and len(arr):
        shape = arr.shape[:1] + shape[1:]
    if arr.shape != shape:
        raise MalformedInput(f"expected a {what}, got shape {arr.shape}")
    return arr


def _finite(entries, shape: tuple, dtype, what: str) -> np.ndarray:
    """Input validation: entries as a finite array of shape (None: any count > 0)."""
    arr = _shaped(entries, shape, dtype, what)
    if not np.isfinite(arr).all():
        raise MalformedInput(f"{what} entries must be finite")
    return arr


def _entries(entries, shape: tuple, dtype, what: str) -> list:
    """_finite of one matrix as its row-major entries in Python numbers, each tested finite."""
    flat = _shaped(entries, shape, dtype, what).ravel().tolist()
    if not all(map(cmath.isfinite, flat)):
        raise MalformedInput(f"{what} entries must be finite")
    return flat


def mat2(entries) -> np.ndarray:
    """Validate and normalize a general 2x2 complex matrix."""
    return _finite(entries, (2, 2), complex, "2x2 matrix")


def _hermitize(m: np.ndarray) -> np.ndarray:
    """m/2 + m†/2: (m + m†)/2 for normal entries, without overflowing near the float limit."""
    return m / 2 + m.conj().swapaxes(-1, -2) / 2


def herm2(entries) -> np.ndarray:
    """Validate a hermitian 2x2 matrix and enforce exact hermiticity.

    Rejects inputs further than TOL max|m| from hermitian, a test relative at
    every scale made on n = m / s, s the largest real or imaginary part, so that
    nothing overflows; otherwise returns the exactly hermitized matrix
    m/2 + m†/2. A closed form on the four entries (_herm2).
    """
    return _herm2(_entries(entries, (2, 2), complex, "2x2 matrix"))


def _largest_part(m: list) -> float:
    return max([abs(p) for z in m for p in (z.real, z.imag)])


def _herm2(m: list) -> np.ndarray:
    """herm2 of the validated entries m00, m01, m10, m11 as Python complex numbers."""
    n00, n01, n10, n11 = _unit_scaled(m, _largest_part(m) or 1.0, _largest_part)
    skew = max(abs(n00.imag), abs(n11.imag), abs(n01 - n10.conjugate()) / 2)  # max|n − n†| / 2
    if skew > TOL * max(abs(n00), abs(n01), abs(n10), abs(n11)):
        raise MalformedInput("matrix is not hermitian within tolerance")
    m00, m01, m10, m11 = m
    out = [_half_sum(m00, m00), _half_sum(m01, m10), _half_sum(m10, m01), _half_sum(m11, m11)]
    return np.array(out).reshape(2, 2)


def _half_sum(a: complex, b: complex) -> complex:
    """a/2 + conj(b)/2 with the bits of numpy's complex arithmetic, which divides
    z by 2 as ((re + im·0)/2, (im − re·0)/2): so the signs of zeros are numpy's."""
    return complex((a.real + a.imag * 0.0) * 0.5 + (b.real - b.imag * 0.0) * 0.5,
                   (a.imag - a.real * 0.0) * 0.5 + (-b.imag - b.real * 0.0) * 0.5)


def _gram(m: np.ndarray) -> np.ndarray:
    """m† m, exactly hermitian."""
    return _hermitize(m.conj().swapaxes(-1, -2) @ m)


def _coords(h: np.ndarray) -> np.ndarray:
    """Pauli coordinates Re Tr(h sigma_mu), mu = 0..3, along a new last axis:
    Tr(h sigma) = sum_ij h_ij sigma_ji, and column mu of _PAULI_COLUMNS is
    sigma_mu transposed and flattened."""
    return (h.reshape(h.shape[:-2] + (4,)) @ _PAULI_COLUMNS).real


def _from_coords(c: np.ndarray) -> np.ndarray:
    """The hermitian matrices (1/2) sum_mu c_mu sigma_mu of coordinates c along
    the last axis: the inverse of _coords, broadcast over leading axes."""
    return (c @ SIGMA.reshape(4, 4)).reshape(c.shape[:-1] + (2, 2)) / 2


def eigenvalues(h) -> tuple[float, float]:
    """Eigenvalues of a hermitian matrix, ordered lam_plus >= lam_minus.

    Closed form: lam_pm = (Tr(h) +- |Bloch part|) / 2, the Bloch norm taken
    by hypot so that no square over- or underflows.
    """
    return _eigenvalues(mat2(h))


def _eigenvalues(h: np.ndarray) -> tuple[float, float]:
    return _spectrum(_coords(h))


def _spectrum(c: np.ndarray) -> tuple[float, float]:
    """lam_plus >= lam_minus of the hermitian matrix with Pauli coordinates c."""
    a, x, y, z = c.tolist()
    r = math.hypot(x, y, z)
    return (a + r) / 2, (a - r) / 2


def is_positive(h) -> bool:
    """True iff the smallest eigenvalue is >= -TOL Tr(h): TOL is relative to
    the size of h, so that round-off at any scale passes."""
    return _positive(_coords(mat2(h)))


def _positive(c: np.ndarray) -> bool:
    """is_positive of the hermitian matrix with Pauli coordinates c."""
    lp, lm = _spectrum(c)
    return bool(lm >= -TOL * (lp + lm))


def sqrt_psd(e) -> np.ndarray:
    """Positive square root of a positive hermitian matrix, exactly hermitian."""
    e = mat2(e)
    if not _positive(_coords(e)):
        raise NotPositive("matrix is not positive semidefinite")
    return _sqrt_psd(_hermitize(e))


def _sqrt_psd(e: np.ndarray) -> np.ndarray:
    """sqrt(e) = (e + sqrt(det e) I) / sqrt(Tr e + 2 sqrt(det e)) of a hermitian e that
    is positive up to round-off; a trace <= 0 returns 0. det e is taken from the Pauli
    coordinates divided by the trace, so that no square over- or underflows."""
    a, x, y, z = _coords(e).tolist()
    if a <= 0:
        # positivity forces e = 0 when the trace vanishes
        return np.zeros((2, 2), dtype=complex)
    sqrt_det = _sqrt_det(a, x, y, z)
    return (e + sqrt_det * SIGMA0) / math.sqrt((e[0, 0] + e[1, 1]).real + 2 * sqrt_det)


def _sqrt_det(a, x, y, z) -> float:
    """sqrt(det e) = (a/2) sqrt(1 - r^2) of a positive e with Pauli coordinates
    (a > 0, x, y, z), r = |(x, y, z)|/a, so that no square over- or underflows."""
    r = math.hypot(x / a, y / a, z / a)
    return a * math.sqrt(max((1 - r) * (1 + r), 0.0)) / 2


def _unit_scaled(m: list, mu: float, size) -> list:
    """m / mu as numpy rounds it, m * (1/mu), for one matrix's entries m as Python numbers
    and mu = size(m) > 0. 1/mu overflows below 2^-1024, so a subnormal mu is first lifted,
    with m, by the exact power of two 2^1000, and taken again as size(m)."""
    if mu < 2.0**-1022:
        m = [x * 2.0**1000 for x in m]
        mu = size(m)
    r = 1.0 / mu
    return [x * r for x in m]


def _scaled_entries(m: list, mu: float) -> tuple[list, complex]:
    """Entries n00, n01, n10, n11 of n = m / mu and det n, for the entries m of a nonzero
    matrix as Python complex numbers and mu = max|m|: no product of entries of n over- or
    underflows."""
    n00, n01, n10, n11 = n = _unit_scaled(m, mu, lambda m: float(np.abs(m).max()))
    return n, n00 * n11 - n01 * n10


def _gram_entries(n: list) -> tuple[float, float, complex]:
    """(n†n)_00, (n†n)_11 and (n†n)_01 of the entries n00, n01, n10, n11 of n."""
    n00, n01, n10, n11 = n
    p0, p1 = abs(n00) ** 2 + abs(n10) ** 2, abs(n01) ** 2 + abs(n11) ** 2
    return p0, p1, n00.conjugate() * n01 + n10.conjugate() * n11


def _unitary_factor(n: list, d: complex) -> list:
    """Entries u00, u01, u10, u11 of the unitary polar factor of a nonzero matrix
    from its _scaled_entries n and det n; see polar_decompose."""
    n00, n01, n10, n11 = n
    abs_det = abs(d)
    fro2 = abs(n00) ** 2 + abs(n01) ** 2 + abs(n10) ** 2 + abs(n11) ** 2
    phase = d / abs_det if abs_det > _SINGULAR_DET * fro2 else 1.0
    s = math.sqrt(fro2 + 2 * abs_det)
    p = phase / s  # u = (n + phase adj(n)†) / s
    return [n00 / s + p * n11.conjugate(), n01 / s - p * n10.conjugate(),
            n10 / s - p * n01.conjugate(), n11 / s + p * n00.conjugate()]


def polar_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition m = u p with u unitary and p = sqrt(m† m) >= 0.

    Closed form (Higham, Functions of Matrices, ch. 8): with
    s = Tr p = sqrt(||m||_F^2 + 2|det m|),
        u = (m + e^{i arg det m} adj(m)†) / s,   p = (m† m + |det m| I) / s,
    so det u = e^{i arg det m}; singular m takes the phase 1, i.e. det u = 1.
    Both are formed on n = m / max|m|, p as max|m| (n†n + |det n| I) / s_n with
    s_n^2 = Tr(n†n) + 2|det n|, so that nothing over- or underflows. m = 0 returns
    (identity, 0).
    """
    m = _entries(m, (2, 2), complex, "2x2 matrix")
    mu = max(np.abs(m).tolist())
    if not mu:
        return np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    n, d = _scaled_entries(m, mu)
    p0, p1, h01 = _gram_entries(n)
    abs_det = abs(d)
    k = mu / math.sqrt(p0 + p1 + 2 * abs_det)
    u = np.array(_unitary_factor(n, d)).reshape(2, 2)
    return u, np.array([[k * (p0 + abs_det), k * h01], [k * h01.conjugate(), k * (p1 + abs_det)]])
