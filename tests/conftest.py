"""Shared random generators for the test suite."""
import math

import numpy as np
from hypothesis import strategies as st

from qubitcone import (
    lorentz_to_element,
    pure_boost,
    rotation4,
    velocity,
)
from qubitcone.lorentz import NULL, LorentzDecomposition, Velocity
from qubitcone.qmat import hermitize


def rand_complex(rng, scale=1.0):
    return scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))


def rand_herm(rng, scale=1.0):
    return hermitize(rand_complex(rng, scale))


def rand_positive(rng, scale=1.0):
    a = rand_complex(rng)
    return hermitize(scale * a.conj().T @ a)


def rand_unit3(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def rand_timelike(rng, vmax=0.9):
    return velocity(rand_unit3(rng) * rng.uniform(0.0, vmax))


def rand_rotation4(rng):
    return rotation4(rand_unit3(rng), rng.uniform(0, 2 * np.pi))


def rand_restricted(rng, vmax=0.9):
    """Random restricted Lorentz transform, rotation * boost * rotation."""
    return rand_rotation4(rng) @ pure_boost(rand_timelike(rng, vmax)) @ rand_rotation4(rng)


def rand_element(rng, vmax=0.9):
    """Random non-projective measurement element (M†M strictly below I)."""
    decomp = LorentzDecomposition(
        rotation=rand_rotation4(rng), velocity=rand_timelike(rng, vmax), scale=1.0
    )
    lam_frac = rng.uniform(0.1, 1.0)
    from qubitcone import lambda_max

    return lorentz_to_element(decomp, lam_frac * lambda_max(decomp.velocity))


def rand_null_element(rng):
    """Random projective-effect element: effect is a scaled rank-1 projector."""
    vel = Velocity(v=rand_unit3(rng), kind=NULL)
    decomp = LorentzDecomposition(rotation=rand_rotation4(rng), velocity=vel, scale=1.0)
    return lorentz_to_element(decomp, rng.uniform(0.1, 1.0))


def rand_state(rng, unit_trace=True):
    rho = rand_positive(rng)
    if unit_trace:
        rho = rho / np.real(np.trace(rho))
    return rho


# Singular-value ratios of the domain sweep: from well conditioned through
# the band where an inverse-based polar factor loses unitarity, down to
# exactly rank 1.
RATIOS = [1.0, 1e-3, 1e-5, 1e-7, 1e-9, 0.0]
angles = st.floats(min_value=0.0, max_value=2 * np.pi)


def unitary(a, b, c, t):
    return np.exp(1j * a) * np.array(
        [
            [np.exp(1j * b) * np.cos(t), np.exp(1j * c) * np.sin(t)],
            [-np.exp(-1j * c) * np.sin(t), np.exp(-1j * b) * np.cos(t)],
        ]
    )


unitaries = st.tuples(angles, angles, angles, angles).map(lambda p: unitary(*p))
# (M, ratio) with M = 10^k U diag(1, ratio) V†, k in [-150, 150]
swept_elements = st.builds(
    lambda u, v, r, k: (10.0**k * u @ np.diag([1.0, r]) @ v.conj().T, r),
    unitaries,
    unitaries,
    st.sampled_from(RATIOS),
    st.floats(min_value=-150, max_value=150),
)
# corners of the sweep: det M subnormal, or M at the top scale
CORNERS = [
    (s * unitary(0.1, 0.2, 0.3, 0.4) @ np.diag([1.0, r]) @ unitary(0.5, 0.6, 0.7, 0.8), r)
    for s, r in [(1e-150, 1e-9), (1e150, 0.0), (1e150, 1e-9)]
]


def unit(polar, azimuth):
    return np.array(
        [math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar)]
    )


# unit 3-vectors over the whole sphere
directions = st.builds(
    unit, st.floats(min_value=0, max_value=math.pi), st.floats(min_value=0, max_value=2 * math.pi)
)
