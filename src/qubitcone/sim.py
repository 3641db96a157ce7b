"""Scenario engines: measurement as a randomized boost, and the view of a
boosted observer, each run at once on the psi(M) stack that a measurement
keeps: post vectors are psi(M) phi(rho) and probabilities their time parts.
Each engine validates the state once, on phi(rho) itself
(correspond._state_vector), and forms every other quantity once per call.
The engines call only ufuncs and ndarray methods, because on K-element
arrays numpy's Python-level helpers cost more than the arithmetic.
The observer's frame is the timelike lorentz.Velocity that observer_boost
returns, and boosted_probabilities checks it there.

Sampling is an inverse CDF over the element index in listed order, taken in
distribution: one multinomial draw of n, from a numpy PCG64 generator seeded
with the caller's 64-bit seed, over the cells between the cumulative
probabilities of the live bins, capped at 1, the last cell ending at 1. So a
dead bin's mass goes to the next live bin and the mass past the last live
edge to the last live bin; the tallies are bit-reproducible for a seed and
numpy version, and cost O(K) for any n up to MAX_SAMPLES. An outcome is dead
when its probability lies within the round-off bound of its own computation,
which scales with Tr(M†M) Tr(rho) (_outcomes); _outcomes forms that mask once
per call, and both scenario1_sample and report_invariants report the post
vector of a dead outcome as 0.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .adjoint import _psi
from .conemap import _HALF_ETA, _minkowski
from .correspond import Measurement, _information, _state_vector, require_valid
from .errors import NotTimelike, TooLarge
from .lorentz import TIMELIKE, Velocity, velocity
from .qmat import mat2

# The largest count numpy's multinomial takes (int64): scenario1_sample refuses
# a larger one with TooLarge before drawing.
MAX_SAMPLES = 2**63 - 1


class ScenarioOutcome(NamedTuple):
    """One outcome of scenario1_sample: immutable, compared as a tuple."""

    index: int
    probability: float
    tally: int
    post_vector: np.ndarray
    applied_transform: np.ndarray


def observer_boost(v) -> Velocity:
    """The timelike velocity of the pure boost to the observer's frame, checked here."""
    vel = velocity(v)
    if vel.kind != TIMELIKE:
        raise NotTimelike("observer boosts must be timelike")
    return vel


def _outcomes(meas: Measurement, rho_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probabilities p, post vectors psi(M) phi(rho) and the live mask p > cut, with the
    post vector of a dead outcome 0: the cut bounds the round-off of p = psi(M)_0 . phi(rho).

    Write u = 2^-53, eps = 2u, e0 = Tr(M†M) = 2 psi(M)_00 and rho0 = Tr(rho). Row 0 of psi(M)
    is phi(M†M) / 2 and phi(rho) lies in the cone, so sum |psi(M)_0nu rho_nu| <= e0 rho0
    (|psi(M)_0,1:| <= psi(M)_00, |rho_1:| <= rho0, Cauchy-Schwarz). Three roundings reach p:
    - the 4-term dot product, 4 roundings on each path: at most 4u e0 rho0 = 2 eps e0 rho0;
    - row 0 of psi(M): each entry sums 4 terms (1/2) Re or Im of a_ij conj(a_kl), of total
      size at most psi(M)_00, 5 roundings on each path: 5u psi(M)_00 per entry, and at
      most 5u psi(M)_00 (1 + sqrt 3) rho0 < 3.42 eps e0 rho0 in p;
    - phi(rho), whose rho0 and rho3 each add two entries: at most u (psi(M)_00 + |psi(M)_03|)
      rho0 <= eps e0 rho0 / 2 in p.
    Together 5.92 eps e0 rho0, so c = 6. Below the normal range a product rounds to within
    tiny / 2 absolute instead, tiny = 2^-1074 the smallest subnormal: each psi(M)_0nu
    carries 4 tiny, 4 (1 + sqrt 3) tiny rho0 < 11 tiny rho0 in p, and the dot product's
    4 products 2 tiny. So cut = (6 eps e0 + 11 tiny) rho0 + 2 tiny: a probability exactly
    0 is dead, and a live one cannot be round-off of 0."""
    posts = meas.transforms @ rho_vec
    probs = posts[:, 0]
    eps, tiny, rho0 = 2.0**-52, 2.0**-1074, float(rho_vec[0])
    live = probs > meas.transforms[:, 0, 0] * (6 * eps * 2 * rho0) + (11 * tiny * rho0 + 2 * tiny)
    return probs, np.where(live[:, None], posts, 0.0), live


def _tallies(probs: np.ndarray, live: np.ndarray, seed: int, n: int) -> np.ndarray:
    """Counts of n inverse-CDF draws over probs, 0 <= n <= MAX_SAMPLES, with live the
    _outcomes mask, some bin live: one multinomial draw over the live cells, each from
    the previous live edge to its own."""
    live = live.nonzero()[0]
    edges = np.minimum(probs.cumsum()[live], 1.0)
    edges[-1] = 1.0
    tallies = np.zeros(len(probs), dtype=int)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    tallies[live] = rng.multinomial(n, edges - np.concatenate(([0.0], edges[:-1])))
    return tallies


def scenario1_sample(meas: Measurement, rho, seed: int, n: int) -> list[ScenarioOutcome]:
    """Sample n outcomes of the measurement, reporting per-outcome tallies
    together with the transform and post vector of each outcome."""
    require_valid(meas)
    rho_vec = _state_vector(mat2(rho), unit_trace=True)
    if n < 0:
        raise ValueError("sample count must be non-negative")
    if n > MAX_SAMPLES:
        raise TooLarge(f"cannot draw {n} samples: at most {MAX_SAMPLES} are drawn")
    probs, post_vecs, live = _outcomes(meas, rho_vec)
    probs = np.maximum(probs, 0.0)
    tallies = _tallies(probs, live, seed, n).tolist()
    columns = zip(range(len(tallies)), probs.tolist(), tallies, post_vecs, meas.transforms)
    return list(map(ScenarioOutcome._make, columns))


def boosted_probabilities(meas: Measurement, rho, obs: Velocity) -> list[float]:
    """Outcome probabilities as perceived from the frame of a timelike observer_boost obs:
    p_bob(n) = (p(n) - v . bloch(rho_n)) / (1 - v . bloch(rho)).

    Their sum is reported as-is; it need not equal 1.
    """
    require_valid(meas)
    rho_vec = _state_vector(mat2(rho), unit_trace=True)
    v = observer_boost(obs).v
    denom = rho_vec[0] - float(v @ rho_vec[1:])
    w = meas.transforms @ rho_vec
    return ((w[:, 0] - w[:, 1:] @ v) / denom).tolist()


def _numbers(x: np.ndarray) -> list:
    """The entries of x as floats, None for NaN."""
    return [None if math.isnan(v) else v for v in x.tolist()]


def _unit_effects(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(2^-2k M†M) = 2 psi(2^-k M)[0] and 2k for each M of a (K, 2, 2) stack, k from
    np.frexp of the largest real or imaginary part of M, so that phi does not underflow
    with M; the parts are scaled by powers of two on the float view, so no signed zero moves."""
    parts = elements.view(float)
    k = np.frexp(np.abs(parts).max(axis=(1, 2)))[1]
    return 2 * _psi(np.ldexp(parts, -k[:, None, None]).view(complex))[:, 0], 2 * k


def report_invariants(meas: Measurement, rho) -> dict:
    """Machine-readable per-element report of the correspondence invariants:
    probability, mixedness before/after, eta(V,V), information values and
    the conservation residual. An information value is present for a timelike
    vector only (correspond._information), the residual when all three are;
    an element is null when its information_effect is absent. The Minkowski
    products and information values are formed once each, on the (2K+1, 4)
    stack of the V vectors, the post vectors and phi(rho). Where e0 = Tr(M†M) is
    subnormal or 0, psi(M) has lost V's kind and information to underflow: they
    are read off V' = V / 2^2k of _unit_effects instead, log2 eta(V, V) being
    2k + 2k + log2 eta(V', V'), while eta(V, V) <= e0^2 / 4 underflows to 0 either way."""
    require_valid(meas)
    rho_vec = _state_vector(mat2(rho))
    k = len(meas.transforms)
    e_vecs = 2 * meas.transforms[:, 0]  # row 0 of psi(M) is phi(M†M) / 2
    v_vecs = e_vecs * _HALF_ETA
    probs, posts, _ = _outcomes(meas, rho_vec)
    stack = np.concatenate((v_vecs, posts, rho_vec[None]))
    norms = _minkowski(stack, stack).tolist()
    shift, lost = 0, (e_vecs[:, 0] < 2.0**-1022).nonzero()[0]  # 2^-1022: the smallest normal float
    if lost.size:
        shift = np.zeros(len(stack), dtype=int)
        units, shift[lost] = _unit_effects(meas.elements[lost])
        stack[lost] = units * _HALF_ETA
    info = _information(stack, shift)
    values = _numbers(info)
    columns = zip(range(k), probs.tolist(), e_vecs.tolist(), v_vecs.tolist(), norms[:k], norms[k:-1],
                  values[:k], values[k:-1], _numbers(info[k:-1] - info[:k] - info[-1]))
    return {
        "state": {"vector": rho_vec.tolist(), "mixedness": norms[-1], "information": values[-1]},
        "elements": [
            {"index": i, "probability": p, "e_vec": e, "v_vec": v, "eta_vv": eta_vv,
             "kind": "null" if info_e is None else "timelike", "mixedness_after": mix_after,
             "information_effect": info_e, "information_post": info_post, "conservation_residual": res}
            for i, p, e, v, eta_vv, mix_after, info_e, info_post, res in columns
        ],
    }
