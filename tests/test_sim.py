import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dead_cut, rand_state, unitaries, unitary
from qubitcone import sim
from qubitcone.adjoint import psi
from qubitcone.conemap import minkowski, phi
from qubitcone.correspond import effect, element_to_lorentz, measurement
from qubitcone.errors import (
    InvalidMeasurement,
    MalformedInput,
    NotNormalized,
    NotPositive,
    NotTimelike,
    TooLarge,
)
from qubitcone.qmat import SIGMA, eigenvalues, sqrt_psd
from qubitcone.sim import (
    MAX_SAMPLES,
    _tallies,
    boosted_probabilities,
    observer_boost,
    report_invariants,
    scenario1_sample,
)

EPS = np.finfo(float).eps
I2 = np.eye(2, dtype=complex)
Z = SIGMA[3]
PROJ0 = (I2 + Z) / 2
PROJ1 = (I2 - Z) / 2
PROJ_Z = measurement([PROJ0, PROJ1])


def probabilities(meas, rho):
    """The outcome probabilities Tr(M†M rho) that scenario1_sample reports."""
    return np.array([o.probability for o in scenario1_sample(meas, rho, seed=1, n=0)])


def test_single_element_always_fires():
    out = scenario1_sample(measurement([I2]), I2 / 2, seed=7, n=1000)
    assert len(out) == 1
    assert out[0].tally == 1000
    assert out[0].probability == pytest.approx(1)
    assert np.allclose(out[0].applied_transform, np.eye(4))
    assert np.allclose(out[0].post_vector, [1, 0, 0, 0])


def test_projective_on_maximally_mixed():
    out = scenario1_sample(PROJ_Z, I2 / 2, seed=11, n=20000)
    assert out[0].probability == pytest.approx(0.5)
    assert out[1].probability == pytest.approx(0.5)
    assert out[0].tally + out[1].tally == 20000
    # 4-sigma band for a fair binomial with n = 20000
    assert abs(out[0].tally - 10000) < 4 * np.sqrt(20000 * 0.25)
    assert np.allclose(out[0].post_vector, [0.5, 0, 0, 0.5])
    assert np.allclose(out[1].post_vector, [0.5, 0, 0, -0.5])


def test_zero_probability_branch_never_sampled():
    out = scenario1_sample(PROJ_Z, PROJ0, seed=3, n=5000)
    assert out[0].tally == 5000 and out[1].tally == 0
    assert out[1].probability == pytest.approx(0, abs=1e-15)
    assert np.allclose(out[0].post_vector, [1, 0, 0, 1])
    assert np.array_equal(out[1].post_vector, np.zeros(4))


def test_sampling_is_deterministic():
    a = scenario1_sample(PROJ_Z, I2 / 2, seed=42, n=500)
    b = scenario1_sample(PROJ_Z, I2 / 2, seed=42, n=500)
    assert [o.tally for o in a] == [o.tally for o in b]
    c = scenario1_sample(PROJ_Z, I2 / 2, seed=43, n=500)
    assert [o.tally for o in a] != [o.tally for o in c]


def test_two_pictures_agree():
    # psi(M) phi(rho) equals phi(M rho M†), so probabilities and post states
    # computed in either picture must match
    rng = np.random.default_rng(0)
    for _ in range(100):
        rho = rand_state(rng)
        out = scenario1_sample(PROJ_Z, rho, seed=1, n=0)
        for o, m in zip(out, PROJ_Z.elements):
            direct = phi(m @ rho @ m.conj().T)
            assert np.max(np.abs(o.applied_transform - psi(m))) < 1e-12
            if o.probability > 1e-15:
                assert np.max(np.abs(o.post_vector - direct)) < 1e-12
                assert o.probability == pytest.approx(direct[0], abs=1e-12)


def test_post_vectors_stay_in_cone_and_preserve_purity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        rho = rand_state(rng)
        out = scenario1_sample(PROJ_Z, rho, seed=1, n=0)
        for o in out:
            if o.probability <= 1e-12:
                continue
            v = o.post_vector  # in the cone: smaller eigenvalue of phi_inv(v) >= -1e-10 v0
            assert (v[0] - np.linalg.norm(v[1:])) / 2 >= -1e-10 * v[0]
        lp, lm = eigenvalues(rho)
        if abs(lm) < 1e-14:  # pure in, pure out
            for o in out:
                if o.probability > 1e-12:
                    assert minkowski(o.post_vector, o.post_vector) == pytest.approx(0, abs=1e-12)


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(100):
        rho = rand_state(rng)
        probs = probabilities(PROJ_Z, rho)
        assert probs.sum() == pytest.approx(1, abs=1e-12)
        assert np.all(probs >= 0)


def test_outcome_probabilities_rejects_a_state_that_is_not_positive():
    with pytest.raises(NotPositive):
        probabilities(PROJ_Z, np.diag([2.0, -1.0]))


@pytest.mark.parametrize("rho", [np.array([[0.5, np.nan], [0.0, 0.5]]), np.eye(3) / 3])
def test_outcome_probabilities_rejects_a_malformed_state(rho):
    with pytest.raises(MalformedInput):
        probabilities(PROJ_Z, rho)


def test_observer_boost():
    obs = observer_boost([0, 0, 0.5])
    assert obs.kind == "timelike"
    assert np.array_equal(obs.v, [0, 0, 0.5])
    with pytest.raises(NotTimelike):
        observer_boost([0, 0, 1])


def test_boosted_probabilities_rest_frame():
    rng = np.random.default_rng(3)
    rho = rand_state(rng)
    p = boosted_probabilities(PROJ_Z, rho, observer_boost([0, 0, 0]))
    q = probabilities(PROJ_Z, rho)
    assert np.allclose(p, q, atol=1e-12)


def test_boosted_probabilities_quarter_three_quarters():
    p = boosted_probabilities(PROJ_Z, I2 / 2, observer_boost([0, 0, 0.5]))
    assert p == pytest.approx([0.25, 0.75], abs=1e-12)
    assert sum(p) == pytest.approx(1, abs=1e-12)


def test_boosted_probabilities_aligned_pure_state():
    p = boosted_probabilities(PROJ_Z, PROJ0, observer_boost([0, 0, 0.9]))
    assert p == pytest.approx([1.0, 0.0], abs=1e-12)


def test_boosted_probabilities_sum():
    # with the observer boosted along the measurement axis the perceived
    # probabilities still sum to 1 (off-axis boosts need not)
    rng = np.random.default_rng(4)
    for _ in range(100):
        rho = rand_state(rng)
        v = [0, 0, rng.uniform(-0.9, 0.9)]
        p = boosted_probabilities(PROJ_Z, rho, observer_boost(v))
        assert sum(p) == pytest.approx(1, abs=1e-10)


def test_report_invariants():
    rep = report_invariants(PROJ_Z, I2 / 2)
    assert rep["state"]["mixedness"] == pytest.approx(1)
    assert rep["state"]["information"] == pytest.approx(0)
    for el in rep["elements"]:
        assert el["kind"] == "null"
        assert el["eta_vv"] == pytest.approx(0, abs=1e-15)
        assert el["probability"] == pytest.approx(0.5)
        assert el["mixedness_after"] == pytest.approx(0, abs=1e-15)
        assert el["conservation_residual"] is None

    m = np.diag([np.sqrt(3) / 2, 1 / 2]).astype(complex)
    comp = np.diag([1 / 2, np.sqrt(3) / 2]).astype(complex)
    rep = report_invariants(measurement([m, comp]), I2 / 2)
    el = rep["elements"][0]
    assert el["kind"] == "timelike"
    assert el["eta_vv"] == pytest.approx(3 / 16, abs=1e-12)
    assert el["probability"] == pytest.approx(0.5, abs=1e-12)
    assert el["mixedness_after"] == pytest.approx(3 / 16, abs=1e-12)
    assert el["conservation_residual"] == pytest.approx(0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    unitaries,
    unitaries,
    st.just(0.0) | st.floats(min_value=-3, max_value=0).map(lambda k: 10.0**k),
    st.floats(min_value=-300, max_value=0),
)
@example(I2, I2, 1.0, -4.0)  # {1e-4 I, sqrt(1 - 1e-8) I}
@example(I2, I2, 0.5, -170.0)  # psi(M) ~ 1e-340 underflows to 0
@example(I2, I2, 1e-3, -300.0)  # M subnormal in part
@example(I2, I2, 1.0, 0.0)  # {I, 0}
@example(I2, I2, 1.0, -153.8)  # e0 = 5e-308, just above the smallest normal float
@example(I2, I2, 1.0, -154.0)  # e0 = 2e-308, just below it
@example(I2, I2, 0.0, -154.0)  # rank one, e0 = 1e-308
def test_report_invariants_kind_is_the_forward_maps(u, v, ratio, log_scale):
    """An element's kind is element_to_lorentz's, 1 - |v| <= TOL_V with
    |v| = |e[1:]| / e[0], at element scales 1e-300 to 1, where psi(M) underflows
    too: rank one or singular-value ratio at least 1e-3, and the complement
    diag(sqrt(1 - s^2), sqrt(1 - s^2 r^2)) V† of M = s U diag(1, r) V†; the zero
    element reads null."""
    s = 10.0**log_scale
    m = s * u @ np.diag([1.0, ratio]) @ v.conj().T
    meas = measurement([m, np.diag([math.sqrt(1 - s * s), math.sqrt(1 - (s * ratio) ** 2)]) @ v.conj().T])
    rep = report_invariants(meas, I2 / 2)
    assert [el["kind"] for el in rep["elements"]] == [element_to_lorentz(e).kind if e.any() else "null"
                                                      for e in meas.elements]


@pytest.mark.parametrize("s", [1e-170, 1e-157, 1e-100])
def test_report_invariants_reads_an_element_whose_psi_underflows(s):
    """M = s diag(1, 1/2), V = s^2 (5/8, 0, 0, -3/8): timelike, as element_to_lorentz reads M,
    with information_effect log2 eta(V, V) = log2(s^4 / 4) to the last bits, also where
    psi(M) underflows to 0 (s = 1e-170) or to subnormals of about 32 bits (s = 1e-157):
    the report reads V off sim._unit_effects there."""
    m = np.diag([s, s / 2])
    meas = measurement([m, np.diag([math.sqrt(1 - s**2), math.sqrt(1 - s**2 / 4)])])
    assert meas.transforms[0].any() == (s > 1e-160)
    el = report_invariants(meas, I2 / 2)["elements"][0]
    assert el["kind"] == element_to_lorentz(m).kind == "timelike"
    assert el["information_effect"] == pytest.approx(4 * math.log2(s) - 2, rel=1e-15)


def test_validation_errors():
    with pytest.raises(InvalidMeasurement):
        scenario1_sample(measurement([PROJ0]), I2 / 2, seed=0, n=10)
    with pytest.raises(NotNormalized):
        scenario1_sample(PROJ_Z, I2, seed=0, n=10)
    with pytest.raises(NotPositive):
        scenario1_sample(PROJ_Z, Z, seed=0, n=10)
    with pytest.raises(ValueError):
        scenario1_sample(PROJ_Z, I2 / 2, seed=0, n=-1)


def test_minkowski_norm_of_probability():
    # probability is the Minkowski pairing of the state's vector against the
    # musical image of the effect, halved; spot-check the pairing identity
    rng = np.random.default_rng(5)
    for _ in range(100):
        rho = rand_state(rng)
        rep = report_invariants(PROJ_Z, rho)
        for el, m in zip(rep["elements"], PROJ_Z.elements):
            direct = float(np.real(np.trace(m.conj().T @ m @ rho)))
            assert el["probability"] == pytest.approx(direct, abs=1e-12)
            assert el["probability"] == pytest.approx(
                minkowski(el["v_vec"], phi(rho)), abs=1e-12
            )


def haar_projector(rng):
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    return np.outer(ket, ket.conj()) / np.vdot(ket, ket).real


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_report_invariants_presence_reads_the_null_rule(scale):
    """Every element of {P, I - P} and {U P, I - P} is null and every post
    state pure, so no information_effect, information_post or conservation
    residual is present, however round-off falls; the mixed state's own
    information is. A rule on the sign of the Minkowski square left about
    750 residuals, 1,660 effect and 1,800 post informations on these draws."""
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        p, u = haar_projector(rng), unitary(*rng.uniform(0, 2 * np.pi, size=4))
        for elements, rho in [([p, I2 - p], np.diag([0.7, 0.3])), ([u @ p, I2 - p], I2 / 2)]:
            rep = report_invariants(measurement(elements), scale * rho)
            assert rep["state"]["information"] is not None
            for el in rep["elements"]:
                assert el["kind"] == "null"
                assert el["information_effect"] is None
                assert el["information_post"] is None
                assert el["conservation_residual"] is None


def test_report_invariants_zeroes_an_impossible_outcome():
    """The post vector of an outcome of probability at most its round-off bound,
    dead_cut(Tr M†M, Tr rho), is 0, as scenario1_sample reports it, not round-off
    of M rho M† = 0."""
    rng = np.random.default_rng(18)
    for scale in [1e-150, 1.0, 1e150]:
        for _ in range(100):
            p = haar_projector(rng)
            el = report_invariants(measurement([p, I2 - p]), scale * (I2 - p))["elements"][0]
            assert abs(el["probability"]) <= dead_cut(el["e_vec"][0], scale)
            assert el["mixedness_after"] == 0.0 and el["information_post"] is None


def exact_post(m0, m1, rho):
    """phi(M rho M†) for M = diag(m0, m1), m0 and m1 real, in exact rational arithmetic
    on the float entries; its time component is Tr(M†M rho)."""
    h00, h11 = Fraction(m0) ** 2 * Fraction(rho[0, 0].real), Fraction(m1) ** 2 * Fraction(rho[1, 1].real)
    h01 = [Fraction(m0) * Fraction(m1) * Fraction(x) for x in (rho[0, 1].real, rho[0, 1].imag)]
    return [h00 + h11, 2 * h01[0], -2 * h01[1], h00 - h11]


def assert_small_outcome(m0, m1, rho, seed):
    """Outcome 0 of {diag(m0, m1), its complement} on rho against the exact oracle:
    its post vector within 4 eps of the oracle's largest entry, plus dead_cut(0, 1) =
    13 tiny (the smallest subnormal) for the round-off below the normal range, so 0
    only where the oracle is 0; its tally at n = MAX_SAMPLES within 5 sigma of n p;
    and the mixedness that report_invariants gives it that of its post vector."""
    meas = measurement([np.diag([m0, m1]), np.diag([math.sqrt(1 - m0 * m0), math.sqrt(1 - m1 * m1)])])
    out = scenario1_sample(meas, rho, seed=seed, n=MAX_SAMPLES)[0]
    want = exact_post(m0, m1, rho)
    bound = 4 * Fraction(EPS) * max(abs(w) for w in want) + Fraction(dead_cut(0.0, 1.0))
    assert max(abs(Fraction(g) - w) for g, w in zip(out.post_vector.tolist(), want)) <= bound
    p = float(want[0])
    assert abs(out.tally - MAX_SAMPLES * p) <= 5 * math.sqrt(MAX_SAMPLES * p * (1 - p))
    el = report_invariants(meas, rho)["elements"][0]
    assert el["mixedness_after"] == minkowski(out.post_vector, out.post_vector)


@pytest.mark.parametrize("rho", [np.diag([1.0, 0.0]), np.diag([0.7, 0.3])])
def test_an_outcome_of_a_small_element_is_drawn_and_keeps_its_post_vector(rho):
    """{1e-8 I, sqrt(1 - 1e-16) I}: outcome 0 has probability 1e-16, half its
    effect's trace, far above the round-off of 0; it is drawn about 922 times at
    n = MAX_SAMPLES and its post vector is 1e-16 phi(rho), not 0."""
    assert_small_outcome(1e-8, 1e-8, rho, seed=1)


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(-150, 0).map(lambda k: 10.0**k),
    r=st.just(0.0) | st.floats(0.5, 1),
    q=st.just(0.0) | st.floats(0.5, 0.99),
    w=st.tuples(st.floats(0, 1), st.floats(0, 2 * np.pi)),
    seed=st.integers(0, 2**64 - 1),
)
@example(s=1.0, r=0.0, q=0.0, w=(0.0, 0.0), seed=1)  # p exactly 0
@example(s=1e-8, r=1.0, q=0.7, w=(0.5, 1.0), seed=1)  # p = 1e-16
@example(s=1e-150, r=1.0, q=0.7, w=(0.5, 1.0), seed=1)  # p = 1e-300
@example(s=1e-160, r=1.0, q=0.7, w=(0.5, 1.0), seed=1)  # p = 1e-320, subnormal
def test_outcomes_of_small_elements_equal_the_exact_oracle(s, r, q, w, seed):
    """M = s diag(1, r) at scales s from 1e-150 to 1, on states whose diagonal is
    (q, 1 - q) and whose coherence is w: p = s^2 (q + r^2 (1 - q)) is known
    exactly, and it is 0 exactly when r = q = 0, else at least s^2 / 4 = e0 / 8.
    With q at most 0.99 the complement's probability is 0 or at least 1% of its
    effect's trace, so no outcome is dead but one of probability exactly 0."""
    coherence = w[0] * math.sqrt(q * (1 - q)) * complex(math.cos(w[1]), math.sin(w[1]))
    rho = np.array([[q, coherence], [coherence.conjugate(), 1 - q]])
    assert_small_outcome(s, s * r, rho, seed)


def inverse_cdf_tallies(probs, live, seed, n):
    """Reference sampler: search every draw in the cumulative sums, send
    draws past the last live bin to it and draws on a dead bin (live False)
    to the next live bin, then count."""
    cum = np.cumsum(probs)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    draws = np.searchsorted(cum, rng.random(n), side="right")
    dead = ~live
    live = np.flatnonzero(live)
    draws = np.minimum(draws, live[-1])
    bad = dead[draws]
    draws[bad] = live[np.searchsorted(live, draws[bad])]
    return np.bincount(draws, minlength=len(probs))


# the cut of an effect of trace 2, the largest in a complete measurement, on a unit-trace state
DEAD_MAX = dead_cut(2.0, 1.0)


@st.composite
def distributions(draw):
    """K = 1..16 probabilities and their live mask, with dead bins anywhere, of
    probability 0, 1e-16 or DEAD_MAX (at least one live bin), and a sum equal to
    or just below 1."""
    k = draw(st.integers(1, 16))
    kinds = draw(st.lists(st.sampled_from(["live", 0.0, 1e-16, DEAD_MAX]), min_size=k, max_size=k))
    kinds[draw(st.integers(0, k - 1))] = "live"
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    live = np.array([kind == "live" for kind in kinds])
    deficit = draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-3, 0.05]))
    probs = np.where(live, weights, 0.0) / weights[live].sum() * (1 - deficit)
    return np.where(live, probs, [0.0 if kind == "live" else kind for kind in kinds]), live


def multinomial_tallies(probs, live, seed, n):
    """Reference for the sampler's rule, written out bin by bin: a live bin
    gets the cell from the previous live bin's cumulative probability (0 for
    the first) to its own, each capped at 1, and the last live bin the cell
    up to 1; one multinomial draw of n over those cells."""
    cum = np.cumsum(probs)
    live = [k for k, alive in enumerate(live) if alive]
    cells, low = [], 0.0
    for k in live:
        high = 1.0 if k == live[-1] else min(float(cum[k]), 1.0)
        cells.append(high - low)
        low = high
    tallies = np.zeros(len(probs), dtype=np.int64)
    tallies[live] = np.random.default_rng(np.random.SeedSequence(int(seed))).multinomial(n, cells)
    return tallies


@settings(max_examples=300, deadline=None)
@given(distributions(), st.integers(0, 2**64 - 1), st.integers(0, 10_000) | st.integers(0, MAX_SAMPLES))
def test_tallies_are_one_multinomial_draw_over_the_cells(dist, seed, n):
    probs, live = dist
    tallies = _tallies(probs, live, seed, n)
    assert np.array_equal(tallies, multinomial_tallies(probs, live, seed, n))
    assert int(tallies.sum()) == n and not tallies[~live].any()


def test_tallies_agree_in_distribution_with_the_inverse_cdf():
    """Over 2,000 fixed seeds at n = 10^4, each bin's mean tally agrees with the
    per-draw inverse CDF's within 5 sigma of the difference of the two means,
    sigma^2 = 2 n q (1 - q) / 2000 for the bin's cell q, and each sampler's
    variance with n q (1 - q) within 5 standard errors. K = 16 with a zero bin
    inside, a dead 1e-16 bin at the end and a sum of 1 - 1e-3, so the dead-bin and
    past-the-end rules carry mass."""
    rng = np.random.default_rng(22)
    probs = rng.dirichlet(np.ones(16)) * (1 - 1e-3)
    probs[3], probs[15] = 0.0, 1e-16
    live = probs > DEAD_MAX
    n, seeds = 10_000, range(2000)
    ours = np.array([_tallies(probs, live, seed, n) for seed in seeds])
    oracle = np.array([inverse_cdf_tallies(probs, live, seed, n) for seed in seeds])
    q = np.diff(np.append(np.minimum(np.cumsum(probs)[live][:-1], 1), 1), prepend=0)
    var = n * q * (1 - q)
    sigma = np.sqrt(2 * var / len(seeds))
    assert np.all(np.abs(ours[:, live].mean(0) - oracle[:, live].mean(0)) <= 5 * sigma)
    var_se = var * np.sqrt(2 / (len(seeds) - 1))
    for tallies in (ours, oracle):
        assert not tallies[:, ~live].any()
        assert np.all(np.abs(tallies[:, live].var(0, ddof=1) - var) <= 5 * var_se)


def test_tallies_pinned():
    # tallies of one multinomial draw over the inverse-CDF cells, recorded when
    # it replaced the sorted count of n uniform draws
    assert [o.tally for o in scenario1_sample(PROJ_Z, I2 / 2, seed=42, n=500)] == [247, 253]
    # K = 16: eight antipodal pairs of projectors scaled by 1/sqrt(8), on a
    # pure state along the first pair, so outcome 1 has probability 0
    dirs = np.random.default_rng(16).normal(size=(8, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    elems = [
        (I2 + s * np.einsum("i,ijk->jk", d, SIGMA[1:])) / (2 * np.sqrt(8)) for d in dirs for s in (1, -1)
    ]
    rho = (I2 + np.einsum("i,ijk->jk", dirs[0], SIGMA[1:])) / 2
    out = scenario1_sample(measurement(elems), rho, seed=2024, n=10_000)
    assert [o.tally for o in out] == [
        1299, 0, 632, 591, 24, 1197, 480, 841, 1102, 118, 427, 836, 661, 561, 531, 700
    ]


def test_tallies_make_one_multinomial_call(monkeypatch):
    """Whatever n, _tallies makes one multinomial call over the live cells and
    draws no uniform: its cost does not grow with n."""
    calls = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def multinomial(self, count, pvals):
            calls.append(("multinomial", count, len(pvals)))
            return self.rng.multinomial(count, pvals)

        def random(self, *args):
            calls.append(("random",))
            return self.rng.random(*args)

    monkeypatch.setattr(sim.np.random, "default_rng", lambda seq: Counting(np.random.Generator(np.random.PCG64(seq))))
    for n in (0, 2000, 2**32 + 1, MAX_SAMPLES):
        calls.clear()
        tallies = _tallies(np.array([0.5, 0.0, 0.5]), np.array([True, False, True]), 7, n)
        assert calls == [("multinomial", n, 2)] and int(tallies.sum()) == n


def test_zero_and_the_largest_count():
    """n = 0 draws nothing; n = MAX_SAMPLES, numpy's int64 limit, returns at once
    with tallies that sum to it."""
    assert [o.tally for o in scenario1_sample(PROJ_Z, I2 / 2, seed=5, n=0)] == [0, 0]
    start = time.perf_counter()
    out = scenario1_sample(PROJ_Z, I2 / 2, seed=5, n=MAX_SAMPLES)
    assert time.perf_counter() - start < 0.5
    assert sum(o.tally for o in out) == MAX_SAMPLES and all(o.tally > 0 for o in out)


def test_a_count_above_max_samples_is_refused_before_drawing(monkeypatch):
    monkeypatch.setattr(sim, "_tallies", lambda *args: pytest.fail("drew samples"))
    with pytest.raises(TooLarge, match=f"at most {MAX_SAMPLES}"):
        scenario1_sample(measurement([PROJ0, PROJ1]), I2 / 2, seed=1, n=MAX_SAMPLES + 1)
