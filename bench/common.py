"""Seeded input generators and the helper that names traced calls.

Inputs are drawn from numpy's PCG64 with the workload's seed, so the same
seed always gives the same inputs; the program only ever sees the arrays.
"""
from __future__ import annotations

import functools

import numpy as np

# workload name -> module holding its pool, op, check and plan
MODULES = {"roundtrip": "roundtrip", "povm": "povm", "cli": "cli_calls"}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """PCG64 seeded with [workload id, seed]; any integer seed is accepted."""
    return np.random.default_rng([list(MODULES).index(workload) + 1, seed % 2**64])


def haar_unitary(rng) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def log_ratio(rng) -> float:
    """Singular-value ratio, log-uniform in [1e-3, 1]: above the band of
    ratios where element_to_lorentz fails today."""
    return float(10.0 ** rng.uniform(-3.0, 0.0))


def element(rng, ratio: float) -> np.ndarray:
    """U diag(s, s ratio) V† with Haar U, V and s uniform in [0.1, 1]."""
    s = rng.uniform(0.1, 1.0)
    return haar_unitary(rng) @ np.diag([s, s * ratio]) @ haar_unitary(rng).conj().T


def unit_vector(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def velocity(rng, lo: float = 0.1, hi: float = 0.9) -> np.ndarray:
    return rng.uniform(lo, hi) * unit_vector(rng)


def _psd_power(h: np.ndarray, power: float) -> np.ndarray:
    w, q = np.linalg.eigh(h)
    w = np.maximum(w, 0.0) ** power
    return (q * w) @ q.conj().T


def measurement(rng, k: int, rank1: int) -> list[np.ndarray]:
    """k elements M_i = U_i sqrt(E_i) with sum E_i = I; `rank1` of the
    effects are rank one, the rest full rank. Element order is shuffled."""
    gs = []
    for i in range(k):
        if i < rank1:
            ket = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            gs.append(np.outer(ket, ket.conj()))
        else:
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            gs.append(a @ a.conj().T)
    s_inv = _psd_power(sum(gs), -0.5)
    elems = []
    for g in gs:
        e = s_inv @ g @ s_inv
        elems.append(haar_unitary(rng) @ _psd_power((e + e.conj().T) / 2, 0.5))
    return [elems[i] for i in rng.permutation(k)]


def mixed_state(rng) -> np.ndarray:
    """(I + r.sigma)/2 with Bloch radius uniform in [0, 0.95]."""
    x, y, z = rng.uniform(0.0, 0.95) * unit_vector(rng)
    return np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2


def pure_state_orthogonal_to(m: np.ndarray) -> np.ndarray:
    """The pure state killed by a rank-one element m: its outcome has
    probability zero and must never be drawn."""
    _, q = np.linalg.eigh(m.conj().T @ m)
    ket = q[:, 0]
    return np.outer(ket, ket.conj())


def call(fn, *args, name: str | None = None):
    """A traced direct call: (metric stem '<layer>.<function>', thunk)."""
    if name is None:
        name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
    return name, functools.partial(fn, *args)
