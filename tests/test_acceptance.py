"""Acceptance gate: one test per numbered criterion, each printing a
single PASS/FAIL line (run with -s to see them on success)."""
import time

import numpy as np

from conftest import (
    rand_complex,
    rand_element,
    rand_herm,
    rand_null_element,
    rand_positive,
    rand_restricted,
    rand_rotation4,
    rand_state,
    rand_timelike,
    rand_unit3,
)
from qubitcone import serialize
from qubitcone.adjoint import psi, psi_of_sqrt
from qubitcone.cli import main
from qubitcone.conemap import cone_membership, hs_inner, minkowski, phi, phi_inv
from qubitcone.correspond import (
    LorentzDecomposition,
    apply_element,
    element_to_lorentz,
    lambda_max,
    lorentz_to_element,
    measurement,
    prop2_invariants,
)
from qubitcone.lorentz import (
    NULL,
    TIMELIKE,
    Velocity,
    decompose,
    null_boost_rescaled,
    pure_boost,
    spinor_lift,
    velocity,
)
from qubitcone.qmat import SIGMA, eigenvalues, is_positive, sqrt_psd
from qubitcone.sim import boosted_probabilities, observer_boost, scenario1_sample

I2 = np.eye(2, dtype=complex)
Z = SIGMA[3]
PROJ0 = (I2 + Z) / 2
PROJ1 = (I2 - Z) / 2


def report(num: int, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_acceptance_01_cone_isomorphism():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    disagreements = 0
    for _ in range(10_000):
        scale = 10.0 ** rng.uniform(-3, 3)
        h = rand_herm(rng, scale=scale)
        if is_positive(h) != cone_membership(phi(h)).in_cone:
            disagreements += 1
    boundary_ok = True
    for _ in range(1_000):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        pure = 10.0 ** rng.uniform(-3, 3) * np.outer(vec, vec.conj())
        m = cone_membership(phi(pure))
        _, lm = eigenvalues(pure)
        scale2 = max(1.0, phi(pure)[0] ** 2)
        boundary_ok &= m.on_boundary and abs(lm) <= 1e-6 * np.sqrt(scale2)
        h = rand_herm(rng)
        if min(abs(v) for v in eigenvalues(h)) > 1e-3:
            boundary_ok &= not cone_membership(phi(h)).on_boundary
    elapsed = time.perf_counter() - start
    report(
        1,
        disagreements == 0 and boundary_ok and elapsed < 5.0,
        f"{disagreements} disagreements, {elapsed:.2f}s",
    )


def test_acceptance_02_isometry():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        a = rand_herm(rng)
        b = rand_herm(rng)
        worst = max(worst, abs(hs_inner(a, b) - 0.5 * float(phi(a) @ phi(b))))
    report(2, worst <= 1e-12, f"max residual {worst:.2e}")


def test_acceptance_03_homomorphism():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10_000):
        a = rand_complex(rng)
        b = rand_complex(rng)
        worst = max(worst, float(np.max(np.abs(psi(a @ b) - psi(a) @ psi(b)))))
    report(3, worst <= 1e-10, f"max residual {worst:.2e}")


def test_acceptance_04_sqrt_closed_forms():
    rng = np.random.default_rng(104)
    worst_form = 0.0
    worst_col = 0.0
    for i in range(1_000):
        if i % 2:
            e = rand_positive(rng)
        else:  # within 1e-6 of projective
            v = rand_unit3(rng)
            a = rng.uniform(0.5, 2.0)
            e = phi_inv(np.concatenate([[a], a * (1 - rng.uniform(0, 1e-6)) * v]))
        definitional = psi(sqrt_psd(e))
        for form in ("root", "square"):
            worst_form = max(
                worst_form,
                float(np.max(np.abs(psi_of_sqrt(e, form=form) - definitional))),
            )
        worst_col = max(
            worst_col, float(np.max(np.abs(psi_of_sqrt(e)[:, 0] - phi(e) / 2)))
        )
    report(
        4,
        worst_form <= 1e-10 and worst_col <= 1e-12,
        f"forms {worst_form:.2e}, first column {worst_col:.2e}",
    )


def test_acceptance_05_reconstruction():
    rng = np.random.default_rng(105)
    worst = 0.0
    worst_scale = 0.0
    for i in range(1_000):
        if i % 2:
            m = rand_element(rng)
        else:
            m = rand_null_element(rng)
        geom = element_to_lorentz(m)
        if geom.kind == TIMELIKE:
            recon = geom.scale * geom.rotation @ pure_boost(geom.velocity)
            expected_scale = np.sqrt(max(minkowski(geom.v_vec, geom.v_vec), 0.0))
        else:
            recon = geom.scale * geom.rotation @ null_boost_rescaled(geom.velocity)
            expected_scale = geom.e_vec[0] / 2
        worst = max(worst, float(np.max(np.abs(psi(m) - recon))))
        worst_scale = max(worst_scale, abs(geom.scale - expected_scale))
    report(
        5,
        worst <= 1e-9 and worst_scale <= 1e-10,
        f"reconstruction {worst:.2e}, scale {worst_scale:.2e}",
    )


def test_acceptance_06_round_trip_and_sharpness():
    rng = np.random.default_rng(106)
    worst = 0.0
    sharp_ok = True
    for i in range(1_000):
        r = rand_rotation4(rng)
        if i % 2:
            vel = rand_timelike(rng)
        else:
            vel = Velocity(v=rand_unit3(rng), kind=NULL)
        dec = LorentzDecomposition(rotation=r, velocity=vel, scale=1.0)
        lmax = lambda_max(vel)
        lam = rng.uniform(0.1, 1.0) * lmax
        geom = element_to_lorentz(lorentz_to_element(dec, lam))
        worst = max(
            worst,
            float(np.max(np.abs(geom.rotation - r))),
            float(np.max(np.abs(geom.velocity.v - vel.v))),
        )
        if vel.kind == TIMELIKE and i % 10 == 0:
            for factor, expect_ok in [(1 - 1e-6, True), (1 + 1e-6, False)]:
                lam2 = (lmax * factor) ** 2
                e = phi_inv(np.concatenate([[lam2], -lam2 * vel.v]))
                sharp_ok &= is_positive(I2 - e) is expect_ok
    report(6, worst <= 1e-9 and sharp_ok, f"round trip {worst:.2e}")


def test_acceptance_07_invariants():
    rng = np.random.default_rng(107)
    worst_norm = 0.0
    worst_trace = 0.0
    worst_info = 0.0
    monotone_violations = 0
    for i in range(1_000):
        m = rand_element(rng) if i % 3 else rand_null_element(rng)
        rho = rand_state(rng, unit_trace=False)
        rep = prop2_invariants(m, rho)
        worst_norm = max(worst_norm, abs(rep.lhs_norm - rep.rhs_norm))
        worst_trace = max(worst_trace, abs(rep.p_from_minkowski - rep.p_direct))
        mix_before = minkowski(phi(rho), phi(rho))
        if rep.lhs_norm > mix_before + 1e-12:
            monotone_violations += 1
        if i % 3 and mix_before > 1e-6:
            _, post = apply_element(m, rho)
            geom = element_to_lorentz(m)
            residual = (
                np.log2(minkowski(phi(post), phi(post)))
                - np.log2(minkowski(geom.v_vec, geom.v_vec))
                - np.log2(mix_before)
            )
            worst_info = max(worst_info, abs(residual))
    report(
        7,
        worst_norm <= 1e-10
        and worst_trace <= 1e-12
        and monotone_violations == 0
        and worst_info <= 1e-9,
        f"norm {worst_norm:.2e}, trace {worst_trace:.2e}, info {worst_info:.2e}",
    )


def test_acceptance_08_decomposition_uniqueness():
    rng = np.random.default_rng(108)
    worst = 0.0
    worst_det = 0.0
    for _ in range(1_000):
        r = rand_rotation4(rng)
        vel = rand_timelike(rng)
        L = r @ pure_boost(vel)
        d = decompose(L)
        worst = max(
            worst,
            float(np.max(np.abs(d.rotation - r))),
            float(np.max(np.abs(d.velocity.v - vel.v))),
            abs(d.scale - 1.0),
        )
        a = spinor_lift(L)
        worst = max(worst, float(np.max(np.abs(psi(a) - L))))
        det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        worst_det = max(worst_det, abs(det_a - 1))
    report(
        8,
        worst <= 1e-9 and worst_det <= 1e-12,
        f"recovery/lift {worst:.2e}, det {worst_det:.2e}",
    )


def test_acceptance_09_null_limit():
    vhat = rand_unit3(np.random.default_rng(109))
    n = null_boost_rescaled(Velocity(v=vhat, kind=NULL))
    spatial = np.eye(3) - np.outer(vhat, vhat)
    diffs = []
    worst = 0.0
    for k in range(2, 7):
        vel = velocity((1 - 10.0 ** (-k)) * vhat)
        s = float(np.linalg.norm(vel.v))
        g_inv = np.sqrt((1 - s) * (1 + s))
        # B/gamma - N in closed form: (1 - |v|) vhat in the first row and
        # column, gamma^{-1} (I - vhat vhat^T) in the spatial block.
        expected = np.zeros((4, 4))
        expected[0, 1:] = expected[1:, 0] = (1 - s) * vhat
        expected[1:, 1:] = g_inv * spatial
        b = pure_boost(vel)
        diff = b / b[0, 0] - n
        diffs.append(float(np.max(np.abs(diff))))
        worst = max(worst, float(np.max(np.abs(diff - expected))))
    monotone = all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
    predicted = g_inv * (1 - float(np.min(vhat**2)))
    report(
        9,
        monotone and worst <= 1e-12,
        f"monotone={monotone}, final gap {diffs[-1]:.3e}, "
        f"predicted {predicted:.3e}, closed-form residual {worst:.1e}",
    )


def test_acceptance_10_scenario_equivalence():
    start = time.perf_counter()
    meas = measurement([PROJ0, PROJ1])
    out = scenario1_sample(meas, I2 / 2, seed=2024, n=1_000_000)
    sigma4 = 4 * np.sqrt(1_000_000 * 0.25)
    tallies_ok = all(abs(o.tally - 500_000) <= sigma4 for o in out)
    p_bob = boosted_probabilities(meas, I2 / 2, observer_boost([0, 0, 0.5]))
    boost_ok = abs(p_bob[0] - 0.25) <= 1e-12 and abs(p_bob[1] - 0.75) <= 1e-12
    elapsed = time.perf_counter() - start
    report(
        10,
        tallies_ok and boost_ok and elapsed < 10.0,
        f"tallies {[o.tally for o in out]}, p_bob {p_bob}, {elapsed:.2f}s",
    )


def test_acceptance_11_cli_contract(tmp_path, capsys):
    meas_path = tmp_path / "meas.json"
    meas_path.write_text(
        serialize.dumps(serialize.measurement_to_json(measurement([PROJ0, PROJ1])))
    )
    state_path = tmp_path / "state.json"
    state_path.write_text(serialize.dumps(serialize.mat2_to_json(I2 / 2)))
    elem_path = tmp_path / "elem.json"
    elem_path.write_text(
        serialize.dumps(serialize.mat2_to_json(np.diag([np.sqrt(3) / 2, 1 / 2])))
    )
    stable = True
    for argv in [
        ["validate", "--measurement", str(meas_path)],
        ["to-lorentz", "--element", str(elem_path)],
        ["to-element", "--rotation-axis", "0,0,1", "--rotation-angle", "0.7",
         "--velocity", "0.1,0.2,0.3"],
        ["apply", "--measurement", str(meas_path), "--state", str(state_path)],
        ["simulate", "--measurement", str(meas_path), "--state", str(state_path),
         "--seed", "5", "--n", "100"],
        ["boost-observer", "--measurement", str(meas_path),
         "--state", str(state_path), "--velocity", "0,0,0.5"],
        ["invariants", "--measurement", str(meas_path), "--state", str(state_path)],
    ]:
        code = main(argv)
        out = capsys.readouterr().out
        stable &= code == 0 and serialize.dumps(serialize.loads(out)) == out

    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{broken")
    malformed = main(["validate", "--measurement", str(bad_path)])
    capsys.readouterr()
    superluminal = main(
        ["boost-observer", "--measurement", str(meas_path),
         "--state", str(state_path), "--velocity", "0,0,2"]
    )
    capsys.readouterr()
    with capsys.disabled():
        report(
            11,
            stable and malformed == 2 and superluminal == 3,
            f"round trips {stable}, exits {malformed}/{superluminal}",
        )
