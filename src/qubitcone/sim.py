"""Scenario engines: measurement as a randomized boost, and the view of a
boosted observer.

Sampling is bit-reproducible: outcomes are drawn by inverse-CDF over the
element index in listed order, from a numpy PCG64 generator seeded with the
caller's 64-bit seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import psi
from .conemap import minkowski, phi
from .correspond import Measurement, _effect_vectors, _post_vector, _state, effect, require_valid
from .errors import NotNormalized, NotTimelike
from .lorentz import TIMELIKE, Velocity, _as_velocity, pure_boost

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
    probs = np.array(
        [float(np.real(np.trace(effect(m) @ rho))) for m in meas.elements]
    )
    return np.maximum(probs, 0.0)


def scenario1_sample(meas: Measurement, rho, seed: int, n: int) -> list[ScenarioOutcome]:
    """Sample n outcomes of the measurement, reporting per-outcome tallies
    together with the transform and post vector of each outcome."""
    require_valid(meas)
    rho = _checked_state(rho, require_unit_trace=True)
    if n < 0:
        raise ValueError("sample count must be non-negative")
    probs = outcome_probabilities(meas, rho)
    rho_vec = phi(rho)
    transforms = [psi(m) for m in meas.elements]
    post_vecs = [
        t @ rho_vec if p > ZERO_PROB else np.zeros(4)
        for p, t in zip(probs, transforms)
    ]

    cum = np.cumsum(probs)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    draws = np.searchsorted(cum, rng.random(n), side="right")
    live = np.flatnonzero(probs > ZERO_PROB)
    # guard the measure-zero edge where a draw lands past cum[-1] or on a
    # zero-probability bin
    draws = np.minimum(draws, live[-1])
    bad = probs[draws] <= ZERO_PROB
    if np.any(bad):
        draws[bad] = live[np.searchsorted(live, draws[bad])]
    tallies = np.bincount(draws, minlength=len(meas.elements))

    return [
        ScenarioOutcome(
            index=i,
            probability=float(probs[i]),
            tally=int(tallies[i]),
            post_vector=post_vecs[i],
            applied_transform=transforms[i],
        )
        for i in range(len(meas.elements))
    ]


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
    rho_vec = phi(rho)
    denom = rho_vec[0] - float(v @ rho_vec[1:])
    post_vecs = (_post_vector(m, rho) for m in meas.elements)
    return [float((w[0] - v @ w[1:]) / denom) for w in post_vecs]


def report_invariants(meas: Measurement, rho) -> dict:
    """Machine-readable per-element report of the correspondence invariants:
    probability, mixedness before/after, eta(V,V), information values and
    the conservation residual (only when every term is timelike)."""
    require_valid(meas)
    rho = _checked_state(rho, require_unit_trace=False)
    rho_vec = phi(rho)
    mix_before = minkowski(rho_vec, rho_vec)
    info_rho = float(np.log2(mix_before)) if mix_before > 0 else None

    elements = []
    for i, m in enumerate(meas.elements):
        e_vec, v_vec = _effect_vectors(m)
        eta_vv = minkowski(v_vec, v_vec)
        p = minkowski(v_vec, rho_vec)
        post_vec = _post_vector(m, rho)
        mix_after = minkowski(post_vec, post_vec)
        info_effect = float(np.log2(eta_vv)) if eta_vv > 0 else None
        info_post = float(np.log2(mix_after)) if mix_after > 0 else None
        residual = None
        if info_rho is not None and info_effect is not None and info_post is not None:
            residual = info_post - info_effect - info_rho
        elements.append(
            {
                "index": i,
                "probability": float(p),
                "e_vec": e_vec.tolist(),
                "v_vec": v_vec.tolist(),
                "eta_vv": float(eta_vv),
                "kind": "null" if abs(eta_vv) <= 1e-12 * max(1.0, e_vec[0] ** 2) else "timelike",
                "mixedness_after": float(mix_after),
                "information_effect": info_effect,
                "information_post": info_post,
                "conservation_residual": residual,
            }
        )
    return {
        "state": {
            "vector": rho_vec.tolist(),
            "mixedness": float(mix_before),
            "information": info_rho,
        },
        "elements": elements,
    }
