"""`roundtrip`: measurement elements through the whole correspondence.

One operation takes a fixed group of GROUP_TIMELIKE full-rank and GROUP_NULL
rank-one elements, each forward with element_to_lorentz, back with
lorentz_to_element at the default lambda and, when timelike, through
spinor_lift of the restricted part R B(v). A group rather than one element
is the unit because the two branches cost about 450 and 800 us, so a median
over single elements would jump between the two modes.
"""
from __future__ import annotations

import numpy as np

import checks
import common
from qubitcone import conemap, qmat
from qubitcone.adjoint import psi, psi_of_unitary
from qubitcone.correspond import effect, element_to_lorentz, lorentz_to_element
from qubitcone.lorentz import (
    LorentzDecomposition,
    decompose,
    pure_boost,
    rotation_axis_angle,
    spinor_lift,
)

POOL = 32
GROUP_TIMELIKE = 6
GROUP_NULL = 2

# Mean time of this workload's checks per operation at the reference host
# speed; see "Host-speed correction" in README.md.
CHECK_REF_US = 2500


def pool(seed: int, workdir=None) -> list:
    rng = common.rng_for("roundtrip", seed)
    out = []
    for _ in range(POOL):
        ratios = [common.log_ratio(rng) for _ in range(GROUP_TIMELIKE)] + [0.0] * GROUP_NULL
        group = [common.element(rng, r) for r in ratios]
        out.append([group[i] for i in rng.permutation(len(group))])
    return out


def _decomposition(geom) -> LorentzDecomposition:
    return LorentzDecomposition(rotation=geom.rotation, velocity=geom.velocity, scale=geom.scale)


def op(group):
    out = []
    for m in group:
        geom = element_to_lorentz(m)
        back = lorentz_to_element(_decomposition(geom))
        lift = spinor_lift(geom.rotation @ pure_boost(geom.velocity)) if geom.kind == "timelike" else None
        out.append((geom, back, lift))
    return out


def check(group, out) -> None:
    for m, (geom, back, lift) in zip(group, out):
        p = checks.check_forward(m, geom.kind, geom.scale, geom.rotation, geom.velocity.v)
        checks.check_backward(p, back)
        if geom.kind == "timelike":
            checks.require(lift is not None, "a timelike element was not lifted")
            checks.check_lift(lift, geom.rotation @ checks.boost(geom.velocity.v))
        else:
            checks.require(lift is None, "a null element was lifted")


def plan(group) -> list:
    calls = []
    for m in group:
        geom = element_to_lorentz(m)
        u, _ = qmat.polar_decompose(m)
        e = effect(m)
        calls += [
            common.call(qmat.mat2, m),
            common.call(qmat.eigenvalues, e),
            common.call(qmat.sqrt_psd, e),
            common.call(qmat.polar_decompose, m),
            common.call(conemap.phi, e),
            common.call(conemap.phi_inv, geom.e_vec),
            common.call(conemap.minkowski, geom.v_vec, geom.v_vec),
            common.call(psi, m),
            common.call(psi_of_unitary, u),
            common.call(effect, m),
            common.call(element_to_lorentz, m),
            common.call(lorentz_to_element, _decomposition(geom)),
        ]
        if geom.kind == "timelike":
            rb = geom.rotation @ pure_boost(geom.velocity)
            calls += [
                common.call(pure_boost, geom.velocity),
                common.call(decompose, rb),
                common.call(rotation_axis_angle, np.array(geom.rotation[1:, 1:])),
                common.call(spinor_lift, rb),
            ]
    return calls
