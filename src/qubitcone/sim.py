"""Scenario engines: measurement as a randomized boost, and the view of a
boosted observer, each run at once on the psi(M) stack that a measurement
keeps: post vectors are psi(M) phi(rho) and probabilities their time parts.
Each engine validates the state once, on phi(rho) itself
(correspond._state_vector), and forms every other quantity once per call.

Sampling is an inverse CDF over the element index in listed order, taken in
distribution: one multinomial draw of n, from a numpy PCG64 generator seeded
with the caller's 64-bit seed, over the cells between the cumulative
probabilities of the live bins (p > ZERO_PROB), capped at 1, the last cell
ending at 1. So a dead bin's mass goes to the next live bin and the mass past
the last live edge to the last live bin; the tallies are bit-reproducible for
a seed and numpy version, and cost O(K) for any n up to MAX_SAMPLES. Both
scenario1_sample and report_invariants report the post vector of a
probability at most ZERO_PROB Tr(rho) as 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conemap import _minkowski
from .correspond import _HALF_ETA, Measurement, _information, _state_vector, require_valid
from .errors import NotTimelike, TooLarge
from .lorentz import TIMELIKE, Velocity, _as_velocity
from .qmat import mat2

# Outcomes at or below this probability are never sampled and their post
# state is reported as the zero vector (exact arithmetic gives M rho M† = 0).
ZERO_PROB = 1e-15

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


@dataclass(frozen=True, eq=False)
class ObserverBoost:
    velocity: Velocity


def observer_boost(v) -> ObserverBoost:
    """A pure timelike boost describing the observer's frame."""
    vel = _as_velocity(v)
    if vel.kind != TIMELIKE:
        raise NotTimelike("observer boosts must be timelike")
    return ObserverBoost(velocity=vel)


def _outcomes(meas: Measurement, rho_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and post vectors psi(M) phi(rho); the post vector of a
    probability at most ZERO_PROB Tr(rho) is 0."""
    posts = meas.transforms @ rho_vec
    return posts[:, 0], np.where(posts[:, :1] > ZERO_PROB * rho_vec[0], posts, 0.0)


def _tallies(probs: np.ndarray, seed: int, n: int) -> np.ndarray:
    """Counts of n inverse-CDF draws over probs, some above ZERO_PROB, 0 <= n <= MAX_SAMPLES:
    one multinomial draw over the live cells, each from the previous live edge to its own."""
    live = np.flatnonzero(probs > ZERO_PROB)
    edges = np.minimum(np.cumsum(probs)[live], 1.0)
    edges[-1] = 1.0
    tallies = np.zeros(len(probs), dtype=int)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    tallies[live] = rng.multinomial(n, np.diff(edges, prepend=0.0))
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
    probs, post_vecs = _outcomes(meas, rho_vec)
    probs = np.maximum(probs, 0.0)
    tallies = _tallies(probs, seed, n).tolist()
    columns = zip(range(len(tallies)), probs.tolist(), tallies, post_vecs, meas.transforms)
    return list(map(ScenarioOutcome._make, columns))


def boosted_probabilities(meas: Measurement, rho, obs: ObserverBoost) -> list[float]:
    """Outcome probabilities as perceived from the observer's boosted frame:
    p_bob(n) = (p(n) - v . bloch(rho_n)) / (1 - v . bloch(rho)).

    Their sum is reported as-is; it need not equal 1.
    """
    require_valid(meas)
    rho_vec = _state_vector(mat2(rho), unit_trace=True)
    if obs.velocity.kind != TIMELIKE:
        raise NotTimelike("observer boosts must be timelike")
    v = obs.velocity.v
    denom = rho_vec[0] - float(v @ rho_vec[1:])
    w = meas.transforms @ rho_vec
    return ((w[:, 0] - w[:, 1:] @ v) / denom).tolist()


def _numbers(x: np.ndarray) -> list:
    """The entries of x as floats, None for NaN."""
    return [None if math.isnan(v) else v for v in x.tolist()]


def report_invariants(meas: Measurement, rho) -> dict:
    """Machine-readable per-element report of the correspondence invariants:
    probability, mixedness before/after, eta(V,V), information values and
    the conservation residual. An information value is present for a timelike
    vector only (correspond._information), the residual when all three are;
    an element is null when its information_effect is absent. The Minkowski
    products and information values are formed once each, on the (2K+1, 4)
    stack of the V vectors, the post vectors and phi(rho)."""
    require_valid(meas)
    rho_vec = _state_vector(mat2(rho))
    k = len(meas.transforms)
    e_vecs = 2 * meas.transforms[:, 0]  # row 0 of psi(M) is phi(M†M) / 2
    v_vecs = e_vecs * _HALF_ETA
    probs, posts = _outcomes(meas, rho_vec)
    stack = np.vstack([v_vecs, posts, rho_vec])
    norms = _minkowski(stack, stack).tolist()
    info = _information(stack)
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
