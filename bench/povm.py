"""`povm`: many-outcome measurements through both scenario engines.

One operation takes a K-element measurement (RANK1 rank-one effects, the
rest full rank) and a state, samples N_SAMPLES outcomes with
scenario1_sample, computes boosted_probabilities for a timelike observer
and runs report_invariants. Every PURE_EVERY-th operation uses a pure state
orthogonal to one rank-one element, so that outcome has probability zero.
Per-element loops dominate; polar and Lorentz decomposition never run.
"""
from __future__ import annotations

import numpy as np

import checks
import common
from qubitcone import conemap, qmat
from qubitcone.adjoint import psi
from qubitcone.correspond import apply_element, effect, measurement, prop2_invariants, validate
from qubitcone.lorentz import pure_boost
from qubitcone.sim import boosted_probabilities, observer_boost, report_invariants, scenario1_sample

POOL = 32
K = 16
RANK1 = 8
N_SAMPLES = 10_000
PURE_EVERY = 4

# Mean time of this workload's checks per operation at the reference host
# speed; see "Host-speed correction" in README.md.
CHECK_REF_US = 3000


def pool(seed: int, workdir=None) -> list:
    rng = common.rng_for("povm", seed)
    out = []
    for i in range(POOL):
        elems = common.measurement(rng, K, RANK1)
        if i % PURE_EVERY == 0:
            dets = [abs(np.linalg.det(m)) / np.sum(np.abs(m) ** 2) for m in elems]
            rho = common.pure_state_orthogonal_to(elems[int(np.argmin(dets))])
        else:
            rho = common.mixed_state(rng)
        out.append(
            {
                "elements": elems,
                "rho": rho,
                "v": common.velocity(rng),
                "seed": int(rng.integers(2**32)),
            }
        )
    return out


def op(inp):
    meas = measurement(inp["elements"])
    rho = inp["rho"]
    sample = scenario1_sample(meas, rho, seed=inp["seed"], n=N_SAMPLES)
    p_bob = boosted_probabilities(meas, rho, observer_boost(inp["v"]))
    return sample, p_bob, report_invariants(meas, rho)


def check(inp, out) -> None:
    sample, p_bob, report = out
    elems, rho = inp["elements"], inp["rho"]
    outcomes = [
        {
            "index": o.index,
            "probability": o.probability,
            "tally": o.tally,
            "post_vector": o.post_vector,
            "applied_transform": o.applied_transform,
        }
        for o in sample
    ]
    checks.check_sample(elems, rho, N_SAMPLES, outcomes)
    checks.check_p_bob(elems, rho, inp["v"], p_bob)
    checks.check_report(elems, rho, report)


def plan(inp) -> list:
    elems, rho = inp["elements"], inp["rho"]
    meas = measurement(elems)
    rho_vec = conemap.phi(rho)
    calls = [common.call(validate, meas) for _ in range(3)]
    calls += [
        common.call(qmat.eigenvalues, rho),
        common.call(conemap.phi, rho),
        common.call(conemap.phi_inv, rho_vec),
        common.call(pure_boost, inp["v"]),
        common.call(scenario1_sample, meas, rho, inp["seed"], N_SAMPLES),
        common.call(boosted_probabilities, meas, rho, observer_boost(inp["v"])),
        common.call(report_invariants, meas, rho),
    ]
    for m in elems:
        e = effect(m)
        e_vec = conemap.phi(e)
        calls += [
            common.call(qmat.mat2, m),
            common.call(effect, m),
            common.call(conemap.phi, e),
            common.call(conemap.minkowski, e_vec, rho_vec),
            common.call(psi, m),
            common.call(apply_element, m, rho),
            common.call(prop2_invariants, m, rho),
        ]
    return calls
