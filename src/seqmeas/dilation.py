"""Naimark dilations: realizing an observable as a sharp observable upstairs.

A dilation of an observable A on H is a triple (K, A_hat, V) of a larger
space, a sharp observable on it and an isometry V: H -> K with
V^dag A_hat(x) V = A(x).  Two constructions are provided: the canonical one
on C^{#outcomes} (x) H and the minimal one on the direct sum of the effect
ranges.  Minimal dilations connect to any other dilation of the same
observable through a unique isometry J with J A_hat1(x) = A_hat2(x) J and
J V1 = V2, computed here by least squares over the spanning vectors
A_hat(x) V e_i, after a direct check that the two dilated effects
V^dag A_hat(x) V agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    CHECK_TOL, PSD_TOL, RANK_RCOND, RANK_TOL, as_complex, dagger, frob, range_isometry,
    sqrt_psd,
)
from .povm import Label, Povm, is_sharp, validate

__all__ = [
    "NaimarkDilation",
    "naimark_canonical",
    "naimark_minimal",
    "verify_dilation",
    "is_minimal",
    "connecting_isometry",
]


@dataclass(frozen=True, eq=False)
class NaimarkDilation:
    """Sharp observable ``sharp`` on C^dim_k plus the embedding isometry."""

    dim_k: int
    isometry: np.ndarray
    sharp: Povm

    def __post_init__(self):
        v = as_complex(self.isometry)
        if v.ndim != 2 or v.shape[0] != self.dim_k:
            raise ValueError(f"isometry shape {v.shape} does not match dim_k")
        if self.sharp.dim != self.dim_k:
            raise ValueError("sharp observable does not act on the dilation space")
        object.__setattr__(self, "isometry", v)

    @property
    def dim(self) -> int:
        """Dimension of the original space."""
        return self.isometry.shape[1]


def _stacked(blocks: list[tuple[Label, np.ndarray]]) -> NaimarkDilation:
    """The dilation V = (B_x stacked in order) with A_hat(x) the projector
    onto the rows of B_x, so that V^dag A_hat(x) V = B_x^dag B_x."""
    v = np.vstack([b for _, b in blocks])
    dim_k = v.shape[0]
    outcomes, row = [], 0
    for lbl, b in blocks:
        proj = np.zeros((dim_k, dim_k), dtype=np.complex128)
        proj[row : row + len(b), row : row + len(b)] = np.eye(len(b))
        outcomes.append((lbl, proj))
        row += len(b)
    return NaimarkDilation(dim_k, v, Povm(dim_k, tuple(outcomes)))


def naimark_canonical(a: Povm) -> NaimarkDilation:
    """Dilation on C^{#outcomes} (x) H via V psi = sum_x |x> (x) sqrt(A(x)) psi.

    Block x of the dilation space carries a full copy of H; the sharp effect
    for x is the projection onto that block.
    """
    return _stacked([(lbl, sqrt_psd(eff)) for lbl, eff in a.outcomes])


def naimark_minimal(a: Povm) -> NaimarkDilation:
    """Dilation on the direct sum of the effect ranges.

    Block x has dimension rank(A(x)); its coordinates are the range basis of
    A(x) produced by :func:`range_isometry`, so the construction is
    deterministic.  The result is minimal: the vectors A_hat(x) V e_i span
    the whole dilation space.
    """
    return _stacked([
        (lbl, dagger(range_isometry(eff)) @ sqrt_psd(eff))
        for lbl, eff in a.outcomes
    ])


def verify_dilation(a: Povm, d: NaimarkDilation, tol: float = PSD_TOL) -> bool:
    """Check isometry, sharpness and the marginal property V^dag A_hat V = A."""
    v = d.isometry
    if v.shape != (d.dim_k, a.dim) or d.sharp.labels != a.labels:
        return False
    if frob(dagger(v) @ v - np.eye(a.dim)) > tol:
        return False
    if not validate(d.sharp, tol) or not is_sharp(d.sharp, tol):
        return False
    return all(
        frob(dagger(v) @ proj @ v - eff) <= tol
        for (_, proj), (_, eff) in zip(d.sharp.outcomes, a.outcomes)
    )


def _spanning_matrix(d: NaimarkDilation) -> np.ndarray:
    """Columns A_hat(x) V e_i for all outcomes x and basis vectors e_i."""
    return np.hstack([proj @ d.isometry for _, proj in d.sharp.outcomes])


def is_minimal(d: NaimarkDilation) -> bool:
    """Whether the spanning vectors A_hat(x) V e_i fill the dilation space,
    each singular value above `RANK_TOL`."""
    sv = np.linalg.svd(_spanning_matrix(d), compute_uv=False)
    return len(sv) >= d.dim_k and bool(sv[d.dim_k - 1] > RANK_TOL)


def connecting_isometry(first: NaimarkDilation, second: NaimarkDilation) -> np.ndarray:
    """The isometry J: K1 -> K2 with J A_hat1(x) = A_hat2(x) J and J V1 = V2.

    ``first`` must be minimal and both must dilate the same observable; J is
    then unique.  Solved by normal equations J (S S^dag) = T S^dag over the
    spanning columns S, T of the two dilations.

    S^dag S and T^dag T hold the two dilated observables block by block,
    so the precondition is checked as |S^dag S - T^dag T| <= `CHECK_TOL`.
    |J^dag J - I| is no test of it: J^dag J - I = S^+dag (T^dag T - S^dag S)
    S^+ scales the defect by the inverse of the observable's smallest
    nonzero eigenvalue, past `CHECK_TOL` on witnesses that meet the
    observable to a solver residual.
    """
    if first.dim != second.dim or first.sharp.labels != second.sharp.labels:
        raise ValueError("dilations of different observables")
    s = _spanning_matrix(first)
    t = _spanning_matrix(second)
    if frob(dagger(s) @ s - dagger(t) @ t) > CHECK_TOL:
        raise ValueError("dilations of different observables: dilated effects differ")
    sv = np.linalg.svd(s, compute_uv=False)
    if len(sv) < first.dim_k or sv[first.dim_k - 1] <= RANK_RCOND * sv[0]:
        raise ValueError("first dilation is not minimal: spanning set is rank deficient")
    gram = s @ dagger(s)
    j = t @ dagger(s) @ np.linalg.pinv(gram, rcond=RANK_RCOND, hermitian=True)
    if frob(j @ s - t) > CHECK_TOL:
        raise ValueError("connecting solve failed: spanning residual above tolerance")
    return j
