"""Closed forms and validators that every benchmark answer is checked against.

This module imports numpy only, never seqmeas, so a fault in the package
cannot hide in its own reference.  Effects are plain complex numpy arrays;
a Bloch decomposition writes a qubit operator as (alpha I + v.sigma) / 2.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
EYE2 = np.eye(2, dtype=complex)

# strength at which the noisy x, y, z spin triplet stops being jointly measurable
TRIPLET_BOUNDARY = 1.0 / math.sqrt(3.0)


# --- closed forms -----------------------------------------------------------

def busch_value(s: float, t: float, theta: float) -> float:
    """s^2 + t^2 - cos^2(theta) s^2 t^2: a qubit pair of unbiased binaries
    with strengths s, t and axes at angle theta is compatible iff <= 1."""
    c = math.cos(theta)
    return s * s + t * t - c * c * s * s * t * t


def triplet_compatible(t: float) -> bool:
    """The noisy spin triplet of strength t is jointly measurable iff t <= 1/sqrt(3)."""
    return t <= TRIPLET_BOUNDARY


def binary_effects(t: float, axis) -> list[np.ndarray]:
    """Effects (I + t n.sigma)/2 and (I - t n.sigma)/2, outcome +1 first."""
    n_sigma = sum(float(c) * p for c, p in zip(axis, PAULI))
    return [(EYE2 + t * n_sigma) / 2, (EYE2 - t * n_sigma) / 2]


def refinement_effects(s: float) -> list[np.ndarray]:
    """The four-outcome qubit refinement of the strength-s binary along z,
    outcomes (1, 1), (1, -1), (-1, 1), (-1, -1)."""
    sx, _, sz = PAULI
    return [
        (1 + s) / 4 * (EYE2 + sz),
        (1 - s) / 4 * (EYE2 - sz),
        (1 - s) / 4 * (EYE2 + sx),
        (1 - s) / 4 * (EYE2 - sx) + s / 2 * (EYE2 - sz),
    ]


def bloch(effect: np.ndarray) -> tuple[float, np.ndarray]:
    """(alpha, v) with effect = (alpha I + v.sigma) / 2."""
    alpha = float(np.trace(effect).real)
    v = np.array([float(np.trace(effect @ p).real) for p in PAULI])
    return alpha, v


def luders_kraus(s: float, axis) -> list[np.ndarray]:
    """Kraus operators sqrt(A(+1)), sqrt(A(-1)) of the Luders channel of the
    strength-s binary along ``axis``, from its spectral projectors."""
    n_sigma = sum(float(c) * p for c, p in zip(axis, PAULI))
    up, down = (EYE2 + n_sigma) / 2, (EYE2 - n_sigma) / 2
    hi, lo = math.sqrt((1 + s) / 2), math.sqrt((1 - s) / 2)
    return [hi * up + lo * down, lo * up + hi * down]


def luders_inverse_image(effect: np.ndarray, s: float, axis) -> np.ndarray:
    """The unique operator X with L*(X) = effect for the qubit Luders channel L.

    The dual keeps I and the component along ``axis`` and scales the
    transverse Bloch components by sqrt(1 - s^2), so it is invertible for s < 1.
    """
    alpha, v = bloch(effect)
    n = np.asarray(axis, dtype=float)
    along = float(v @ n) * n
    v_inv = along + (v - along) / math.sqrt(1.0 - s * s)
    return (alpha * EYE2 + sum(c * p for c, p in zip(v_inv, PAULI))) / 2


def luders_reach_margin(s: float, axis, effects) -> float:
    """Smallest eigenvalue over the inverse images of ``effects``.

    A target B is reachable after the Luders channel (some B' on the output
    has L*(B') = B) iff this margin is >= 0.
    """
    return min(
        float(np.linalg.eigvalsh(luders_inverse_image(e, s, axis))[0]) for e in effects
    )


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def luders_dual(a_effects, x: np.ndarray) -> np.ndarray:
    """L*(X) = sum_x sqrt(A(x)) X sqrt(A(x)) for any dimension."""
    roots = [psd_sqrt(e) for e in a_effects]
    return sum(r @ x @ r for r in roots)


def minimal_dilation_dim(effects, tol: float = 1e-9) -> int:
    """Summed effect ranks, the dimension of a minimal Naimark dilation."""
    return sum(int(np.sum(np.linalg.eigvalsh(e) > tol)) for e in effects)


# --- validators ----------------------------------------------------------

def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def is_povm(effects, tol: float) -> bool:
    """Hermitian positive effects summing to the identity, all within tol."""
    effects = [np.asarray(e) for e in effects]
    dim = effects[0].shape[0]
    if any(np.linalg.norm(e - e.conj().T) > tol for e in effects):
        return False
    if any(min_eig(e) < -tol for e in effects):
        return False
    return bool(np.linalg.norm(sum(effects) - np.eye(dim)) <= tol)


def joint_witness_ok(witness, marginal_effects, tol: float) -> bool:
    """A joint observable in lexicographic product-label order whose
    marginals are ``marginal_effects`` (one list of effects per factor)."""
    grid = tuple(len(m) for m in marginal_effects)
    dim = marginal_effects[0][0].shape[0]
    w = np.asarray(witness)
    if w.shape != (math.prod(grid), dim, dim) or not is_povm(list(w), tol):
        return False
    g = w.reshape(grid + (dim, dim))
    for axis, targets in enumerate(marginal_effects):
        others = tuple(i for i in range(len(grid)) if i != axis)
        got = g.sum(axis=others)
        if any(np.linalg.norm(got[j] - targets[j]) > tol for j in range(len(targets))):
            return False
    return True


def instrument_ok(kraus, partition, a_effects, tol: float) -> bool:
    """Branch x of the instrument (Kraus indices partition[x]) measures A(x)."""
    for idx, eff in zip(partition, a_effects):
        got = sum(kraus[i].conj().T @ kraus[i] for i in idx)
        if np.linalg.norm(got - eff) > tol:
            return False
    return True


def b_prime_ok(kraus, b_prime, b_effects, tol: float) -> bool:
    """B' is an observable on the channel output and sum_k K^dag B'(y) K = B(y)."""
    if len(b_prime) != len(b_effects) or not is_povm(b_prime, tol):
        return False
    return all(
        np.linalg.norm(sum(k.conj().T @ bp @ k for k in kraus) - b) <= tol
        for bp, b in zip(b_prime, b_effects)
    )
