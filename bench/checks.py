"""Independent checkers for the benchmark's workloads.

Nothing here imports qubitcone. Every reference value is recomputed from the
workload's inputs with textbook formulas (Pauli traces, the standard boost
matrix, Rodrigues' rotation) or is a property the correspondence must have,
so a checker can reject a wrong result that the program itself would accept.
Each checker takes plain numbers and arrays and raises CheckError on the
first violated property.
"""
from __future__ import annotations

import json
import math

import numpy as np

SIGMA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
ETA = np.diag([1.0, -1.0, -1.0, -1.0])

# Relative bound on 4x4 identities such as psi(M) = scale R B(v). The worst
# residual seen on the workloads' inputs (singular-value ratio >= 1e-3) is
# 2.6e-10, from the spinor lift at gamma ~ 500; a perturbation of 1e-6
# must still be caught.
REL_TOL = 1e-8
# Absolute bound on probabilities, four-vectors and mixedness values, all of
# order one for unit-trace states and complete measurements.
ABS_TOL = 1e-12
# Sigmas of the Bernstein bound on each tally; a false alarm has probability
# below 6e-7 per outcome, and a tally moved by 6 sigma is rejected.
TALLY_SIGMAS = 5.5
# A term of the information identity counts as timelike only when its
# Minkowski square exceeds this share of its squared time component.
TIMELIKE_MARGIN = 1e-6


class CheckError(AssertionError):
    """A program output violates a property the benchmark checks."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------- reference math


def phi(h) -> np.ndarray:
    """Pauli coordinates Tr(h sigma_mu)."""
    return np.real(np.einsum("ij,mji->m", h, SIGMA))


def psi(m) -> np.ndarray:
    """psi(M)_{mu nu} = 1/2 Tr(sigma_mu M sigma_nu M†)."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * np.real(np.einsum("uij,jk,vkl,li->uv", SIGMA, m, SIGMA, m.conj().T))


def mink(u, v) -> float:
    return float(u @ ETA @ v)


def boost(v) -> np.ndarray:
    """Textbook pure boost: [[g, -g v^T], [-g v, I + (g - 1) n n^T]], n = v/|v|."""
    v = np.asarray(v, dtype=float)
    speed = float(np.linalg.norm(v))
    g = 1.0 / math.sqrt(1.0 - speed * speed)
    out = np.eye(4)
    out[0, 0] = g
    out[0, 1:] = out[1:, 0] = -g * v
    if speed > 0:
        n = v / speed
        out[1:, 1:] += (g - 1.0) * np.outer(n, n)
    return out


def null_boost(n) -> np.ndarray:
    """The gamma^-1-rescaled light-speed boost [[1, -n^T], [-n, n n^T]]."""
    n = np.asarray(n, dtype=float)
    return np.block([[np.ones((1, 1)), -n[None, :]], [-n[:, None], np.outer(n, n)]])


def rotation(axis, angle) -> np.ndarray:
    """diag(1, R) with R the Rodrigues rotation by angle about a unit axis."""
    k = np.array(
        [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
    )
    out = np.eye(4)
    out[1:, 1:] += math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    return out


def prob(m, rho) -> float:
    """Tr(M† M rho)."""
    return float(np.real(np.trace(m.conj().T @ m @ rho)))


def bernstein_bound(n: int, p: float) -> float:
    """Half-width t with P(|tally - n p| >= t) <= 2 exp(-TALLY_SIGMAS^2 / 2)."""
    k2 = TALLY_SIGMAS**2
    var = n * p * (1.0 - p)
    return k2 / 6 + math.sqrt(k2 * k2 / 36 + k2 * var)


def emit(obj) -> str:
    """The documented wire format: 2-space indent, one item per line and
    floats with 17 significant digits. Written apart from the program's
    serializer so that byte-identical re-emission is an independent check."""

    def write(o, depth):
        pad, pad_in = "  " * depth, "  " * (depth + 1)
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            return format(0.0 if o == 0 else o, ".17g")
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, list):
            if not o:
                return "[]"
            return "[\n" + ",\n".join(pad_in + write(v, depth + 1) for v in o) + "\n" + pad + "]"
        if not o:
            return "{}"
        body = ",\n".join(pad_in + json.dumps(k) + ": " + write(v, depth + 1) for k, v in o.items())
        return "{\n" + body + "\n" + pad + "}"

    return write(obj, 0) + "\n"


# ---------------------------------------------------------------- correspondence


def check_rotation(r) -> None:
    """r is a proper block rotation diag(1, R3)."""
    r = np.asarray(r, dtype=float)
    require(r.shape == (4, 4), "rotation is not 4x4")
    edge = max(abs(r[0, 0] - 1.0), np.max(np.abs(r[0, 1:])), np.max(np.abs(r[1:, 0])))
    require(edge <= REL_TOL, f"rotation is not block diagonal ({edge:.3g})")
    r3 = r[1:, 1:]
    orth = float(np.max(np.abs(r3.T @ r3 - np.eye(3))))
    require(orth <= REL_TOL, f"rotation block is not orthogonal ({orth:.3g})")
    require(abs(np.linalg.det(r3) - 1.0) <= REL_TOL, "rotation block is improper")


def check_forward(m, kind: str, scale: float, rot, v) -> np.ndarray:
    """psi(M) = scale R B(v) (timelike) or scale R N(v) (null); returns psi(M).

    The branch must match the element: null exactly when M is singular.
    """
    m = np.asarray(m, dtype=complex)
    p = psi(m)
    check_rotation(rot)
    v = np.asarray(v, dtype=float)
    singular = abs(np.linalg.det(m)) <= 1e-12 * float(np.sum(np.abs(m) ** 2))
    require(kind == ("null" if singular else "timelike"), f"kind {kind!r} does not match the element")
    require(scale > 0, "scale is not positive")
    if kind == "null":
        require(abs(np.linalg.norm(v) - 1.0) <= 1e-9, "null velocity is not a unit vector")
        ref = scale * np.asarray(rot) @ null_boost(v)
    else:
        require(np.linalg.norm(v) < 1.0, "timelike velocity is not below 1")
        ref = scale * np.asarray(rot) @ boost(v)
    err = float(np.max(np.abs(p - ref)))
    require(err <= REL_TOL * float(np.max(np.abs(p))), f"psi(M) != scale R B(v) (residual {err:.3g})")
    return p


def check_backward(p, m_back, lam_share: float = 1.0) -> None:
    """psi(M') = c p with c > 0, and the largest eigenvalue of M'† M' is
    lam_share^2 (1 at the default, largest admissible lambda)."""
    m_back = np.asarray(m_back, dtype=complex)
    p2 = psi(m_back)
    c = float(np.sum(p2 * p) / np.sum(p * p))
    require(c > 0, "backward element has a non-positive scale")
    err = float(np.max(np.abs(p2 - c * p)))
    require(err <= REL_TOL * float(np.max(np.abs(p2))), f"psi(M') != c psi(M) (residual {err:.3g})")
    top = float(np.linalg.eigvalsh(m_back.conj().T @ m_back)[-1])
    require(abs(top - lam_share**2) <= 1e-12, f"largest eigenvalue of M'†M' is {top!r}")


def check_lift(a, rb) -> None:
    """det A = 1 and psi(A) = R B(v)."""
    a = np.asarray(a, dtype=complex)
    require(abs(np.linalg.det(a) - 1.0) <= 1e-9, "lift does not have unit determinant")
    err = float(np.max(np.abs(psi(a) - rb)))
    require(err <= REL_TOL * float(np.max(np.abs(rb))), f"psi(A) != R B(v) (residual {err:.3g})")


def check_element_from_lorentz(axis, angle, v, lam, m_back) -> None:
    """to-element output: psi(M') = c R B(v) with c > 0 and the largest
    eigenvalue of M'† M' equal to (lam / lam_max)^2, lam_max = sqrt(2/(1+|v|))."""
    lam_max = math.sqrt(2.0 / (1.0 + float(np.linalg.norm(v))))
    check_backward(rotation(axis, angle) @ boost(v), m_back, 1.0 if lam is None else lam / lam_max)


# ---------------------------------------------------------------- measurements


def check_validate(elements, tol: float, out: dict) -> None:
    dev = float(np.max(np.abs(sum(m.conj().T @ m for m in elements) - np.eye(2))))
    require(abs(out["max_deviation"] - dev) <= ABS_TOL, "completeness deviation is wrong")
    require(out["valid"] == (dev <= tol), "validity verdict is wrong")
    require(out["n_elements"] == len(elements), "element count is wrong")
    require(out["tol"] == tol, "tolerance is not echoed")


def check_probabilities(elements, rho, probs) -> np.ndarray:
    """probs match Tr(E_k rho) and sum to 1; returns the reference values."""
    ref = np.array([prob(m, rho) for m in elements])
    err = float(np.max(np.abs(np.asarray(probs, dtype=float) - ref)))
    require(err <= ABS_TOL, f"probabilities differ from Tr(E rho) by {err:.3g}")
    require(abs(float(np.sum(probs)) - 1.0) <= 1e-9, "probabilities do not sum to 1")
    return ref


def check_sample(elements, rho, n: int, outcomes) -> None:
    """scenario1_sample: probabilities, tallies, transforms and post vectors."""
    require([o["index"] for o in outcomes] == list(range(len(elements))), "outcome indices are wrong")
    ref = check_probabilities(elements, rho, [o["probability"] for o in outcomes])
    tallies = [o["tally"] for o in outcomes]
    require(sum(tallies) == n, f"tallies sum to {sum(tallies)}, not {n}")
    rho_vec = phi(rho)
    for m, p, o in zip(elements, ref, outcomes):
        t = o["tally"]
        if p <= 1e-12:
            require(t == 0, "an outcome of zero probability was drawn")
        dev = abs(t - n * p)
        require(dev <= bernstein_bound(n, p), f"tally {t} is {dev:.1f} from n p = {n * p:.1f}")
        t_ref = psi(m)
        err = float(np.max(np.abs(np.asarray(o["applied_transform"]) - t_ref)))
        require(err <= ABS_TOL, f"applied transform differs from psi(M) by {err:.3g}")
        err = float(np.max(np.abs(np.asarray(o["post_vector"]) - t_ref @ rho_vec)))
        require(err <= ABS_TOL, f"post vector differs by {err:.3g}")


def check_p_bob(elements, rho, v, p_bob) -> None:
    """p_bob(k) is the time component of B(v) phi(M rho M†) over that of
    B(v) phi(rho): the observer's own trace of the post state."""
    b = boost(v)
    denom = (b @ phi(rho))[0]
    ref = np.array([(b @ phi(m @ rho @ m.conj().T))[0] / denom for m in elements])
    require(len(p_bob) == len(elements), "p_bob has the wrong length")
    err = float(np.max(np.abs(np.asarray(p_bob, dtype=float) - ref)))
    require(err <= 1e-10 * max(1.0, float(np.max(np.abs(ref)))), f"p_bob differs by {err:.3g}")


def check_apply(elements, rho, outcomes) -> None:
    require(len(outcomes) == len(elements), "apply reports the wrong number of outcomes")
    for i, (m, o) in enumerate(zip(elements, outcomes)):
        require(o["index"] == i, "outcome index is wrong")
        require(abs(o["p"] - prob(m, rho)) <= ABS_TOL, "apply probability is wrong")
        post = m @ rho @ m.conj().T
        got = np.array([[complex(*z) for z in row] for row in o["post_state"]])
        require(float(np.max(np.abs(got - post))) <= ABS_TOL, "post state is wrong")
        require(float(np.max(np.abs(np.asarray(o["post_vector"]) - phi(post)))) <= ABS_TOL, "post vector is wrong")


def _timelike(vec) -> bool:
    return mink(vec, vec) > TIMELIKE_MARGIN * vec[0] ** 2


def check_report(elements, rho, report: dict) -> None:
    """report_invariants: coordinates, probabilities, eta(V,V), the mixedness
    identity eta(rho_m, rho_m) = eta(V,V) eta(rho,rho), and a zero
    conservation residual wherever every term is timelike."""
    rho_vec = phi(rho)
    mix = mink(rho_vec, rho_vec)
    st = report["state"]
    require(float(np.max(np.abs(np.asarray(st["vector"]) - rho_vec))) <= ABS_TOL, "state vector is wrong")
    require(abs(st["mixedness"] - mix) <= ABS_TOL, "state mixedness is wrong")
    rows = report["elements"]
    require(len(rows) == len(elements), "report has the wrong number of elements")
    check_probabilities(elements, rho, [r["probability"] for r in rows])
    for m, r in zip(elements, rows):
        e_vec = phi(m.conj().T @ m)
        v_vec = 0.5 * ETA @ e_vec
        post_vec = phi(m @ rho @ m.conj().T)
        eta_vv = mink(v_vec, v_vec)
        require(float(np.max(np.abs(np.asarray(r["e_vec"]) - e_vec))) <= ABS_TOL, "e_vec is wrong")
        require(float(np.max(np.abs(np.asarray(r["v_vec"]) - v_vec))) <= ABS_TOL, "v_vec is wrong")
        require(abs(r["eta_vv"] - eta_vv) <= ABS_TOL, "eta(V,V) is wrong")
        require(abs(r["mixedness_after"] - eta_vv * mix) <= ABS_TOL, "mixedness_after != eta(V,V) eta(rho,rho)")
        if _timelike(v_vec):
            require(r["kind"] == "timelike", "a timelike effect is reported as null")
        if _timelike(v_vec) and _timelike(rho_vec) and _timelike(post_vec):
            res = r["conservation_residual"]
            require(res is not None and abs(res) <= 1e-8, f"conservation residual is {res!r}")
