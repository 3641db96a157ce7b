"""Scenario engines: measurement as a randomized boost, and the view of a
boosted observer, each run on the whole (K, 2, 2) element array at once.

Sampling is a bit-reproducible inverse CDF over the element index in listed
order, from a numpy PCG64 generator seeded with the caller's 64-bit seed.
A draw u lands in bin k exactly when cum_{k-1} <= u < cum_k, so sorting the
draws and counting those below each edge cum_k gives the tallies of a
per-draw search, by the same comparisons. Draws in a bin of probability at
most ZERO_PROB go to the next live bin, and draws past the last live edge
to the last live bin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import _psi
from .conemap import _minkowski
from .correspond import Measurement, _effect_vectors, _post_vector, _probabilities, _state, require_valid
from .errors import NotNormalized, NotTimelike, TooLarge
from .lorentz import TIMELIKE, Velocity, _as_velocity, _is_null, pure_boost
from .qmat import _coords

# Outcomes at or below this probability are never sampled and their post
# state is reported as the zero vector (exact arithmetic gives M rho M† = 0).
ZERO_PROB = 1e-15

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ScenarioOutcome:
    index: int
    probability: float
    tally: int
    post_vector: np.ndarray
    applied_transform: np.ndarray


@dataclass(frozen=True, eq=False)
class ObserverBoost:
    velocity: Velocity
    transform: np.ndarray


def observer_boost(v) -> ObserverBoost:
    """A pure timelike boost describing the observer's frame."""
    vel = _as_velocity(v)
    if vel.kind != TIMELIKE:
        raise NotTimelike("observer boosts must be timelike")
    return ObserverBoost(velocity=vel, transform=pure_boost(vel))


def _checked_state(rho, require_unit_trace: bool) -> np.ndarray:
    rho = _state(rho)
    if require_unit_trace and abs(np.real(np.trace(rho)) - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized("state must have unit trace")
    return rho


def outcome_probabilities(meas: Measurement, rho) -> np.ndarray:
    return np.maximum(_probabilities(meas.elements, rho), 0.0)


def _tallies(probs: np.ndarray, seed: int, n: int) -> np.ndarray:
    """Counts of n inverse-CDF draws over probs, some above ZERO_PROB."""
    live = np.flatnonzero(probs > ZERO_PROB)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    try:
        draws = rng.random(n)
    except (ValueError, MemoryError) as exc:  # a count numpy cannot allocate
        raise TooLarge(f"cannot draw {n} samples: {exc}") from exc
    draws.sort()
    below = np.searchsorted(draws, np.cumsum(probs)[live], side="left")
    below[-1] = n  # draws at or past the last live edge
    tallies = np.zeros(len(probs), dtype=int)
    tallies[live] = np.diff(below, prepend=0)
    return tallies


def scenario1_sample(meas: Measurement, rho, seed: int, n: int) -> list[ScenarioOutcome]:
    """Sample n outcomes of the measurement, reporting per-outcome tallies
    together with the transform and post vector of each outcome."""
    require_valid(meas)
    rho = _checked_state(rho, require_unit_trace=True)
    if n < 0:
        raise ValueError("sample count must be non-negative")
    probs = outcome_probabilities(meas, rho)
    transforms = _psi(meas.elements)
    post_vecs = np.where((probs > ZERO_PROB)[:, None], transforms @ _coords(rho), 0.0)
    columns = zip(probs.tolist(), _tallies(probs, seed, n).tolist(), post_vecs, transforms)
    return [ScenarioOutcome(i, *column) for i, column in enumerate(columns)]


def boosted_probabilities(meas: Measurement, rho, obs: ObserverBoost) -> list[float]:
    """Outcome probabilities as perceived from the observer's boosted frame:
    p_bob(n) = (p(n) - v . bloch(rho_n)) / (1 - v . bloch(rho)).

    Their sum is reported as-is; it need not equal 1.
    """
    require_valid(meas)
    rho = _checked_state(rho, require_unit_trace=True)
    if obs.velocity.kind != TIMELIKE:
        raise NotTimelike("observer boosts must be timelike")
    v = obs.velocity.v
    rho_vec = _coords(rho)
    denom = rho_vec[0] - float(v @ rho_vec[1:])
    w = _post_vector(meas.elements, rho)
    return ((w[:, 0] - w[:, 1:] @ v) / denom).tolist()


def _log2(x: np.ndarray) -> np.ndarray:
    """log2 of the positive entries of x, NaN elsewhere."""
    return np.log2(x, out=np.full_like(x, np.nan), where=x > 0)


def _numbers(x: np.ndarray) -> list:
    """The entries of x as floats, None for NaN."""
    return [None if math.isnan(v) else v for v in np.atleast_1d(x).tolist()]


def report_invariants(meas: Measurement, rho) -> dict:
    """Machine-readable per-element report of the correspondence invariants:
    probability, mixedness before/after, eta(V,V), information values and
    the conservation residual (only when every term is timelike)."""
    require_valid(meas)
    rho = _checked_state(rho, require_unit_trace=False)
    rho_vec = _coords(rho)
    mix_before = _minkowski(rho_vec, rho_vec)
    info_rho = _log2(mix_before)
    e_vecs, v_vecs = _effect_vectors(meas.elements)
    eta_vv = _minkowski(v_vecs, v_vecs)
    post_vecs = _post_vector(meas.elements, rho)
    mix_after = _minkowski(post_vecs, post_vecs)
    info_effect, info_post = _log2(eta_vv), _log2(mix_after)
    e0, e3 = e_vecs[:, 0], np.hypot(np.hypot(e_vecs[:, 1], e_vecs[:, 2]), e_vecs[:, 3])
    speed = np.divide(e3, e0, out=np.ones_like(e0), where=e0 > 0)  # a zero effect is null
    columns = {
        "probability": _minkowski(v_vecs, rho_vec).tolist(),
        "e_vec": e_vecs.tolist(),
        "v_vec": v_vecs.tolist(),
        "eta_vv": eta_vv.tolist(),
        "kind": np.where(_is_null(speed), "null", "timelike").tolist(),
        "mixedness_after": mix_after.tolist(),
        "information_effect": _numbers(info_effect),
        "information_post": _numbers(info_post),
        "conservation_residual": _numbers(info_post - info_effect - info_rho),
    }
    return {
        "state": {
            "vector": rho_vec.tolist(),
            "mixedness": float(mix_before),
            "information": _numbers(info_rho)[0],
        },
        "elements": [
            {"index": i, **{key: column[i] for key, column in columns.items()}}
            for i in range(len(meas.elements))
        ],
    }
