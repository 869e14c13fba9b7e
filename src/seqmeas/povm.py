"""Finite-outcome observables (POVMs) and the stock qubit families.

An observable is a finite set of labeled positive effects summing to the
identity.  Labels are integer tuples; multi-component labels describe joint
observables, and component positions act as marginalization axes.  Labels
are kept sorted lexicographically, with the effects held as one
(n, dim, dim) array in label order, so that marginalization, JSON round
trips, and channel constructions are deterministic and every check is one
batched operation on that array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import PSD_TOL, QUBIT_TOL, frob, is_psd

__all__ = [
    "Povm",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "AXIS_X",
    "AXIS_Y",
    "AXIS_Z",
    "validate",
    "is_sharp",
    "is_product_labeled",
    "marginal",
    "marginals",
    "post_process",
    "effects_close",
    "refinement_joint",
    "trivial",
    "qubit_binary",
    "bloch_vector",
    "four_outcome_refinement",
    "noisy_spin_triplet",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

AXIS_X = (1.0, 0.0, 0.0)
AXIS_Y = (0.0, 1.0, 0.0)
AXIS_Z = (0.0, 0.0, 1.0)

Label = tuple[int, ...]


def as_label(label) -> Label:
    if isinstance(label, (int, np.integer)):
        return (int(label),)
    out = tuple(map(int, label))
    if not out:
        raise ValueError("empty outcome label")
    return out


@dataclass(frozen=True, eq=False, init=False)
class Povm:
    """An outcome-labeled observable on C^dim.

    Built from (label, effect) pairs, it holds ``labels``, sorted
    lexicographically, and ``effects``, one read-only complex array of
    shape (n, dim, dim) in label order, copied from the input.
    Construction normalizes labels and array dtypes and rejects
    structurally broken input (shape mismatch, duplicate or ragged labels,
    a NaN or infinite entry); it does not check positivity or
    normalization, which is what :func:`validate` is for, so deliberately
    invalid observables can be built and probed.  The pairs are not kept, so the fields are exactly
    what an instance holds, and printers that walk them can show it.
    """

    dim: int
    labels: tuple[Label, ...]
    effects: np.ndarray

    def __init__(self, dim: int, outcomes: Iterable[tuple]):
        object.__setattr__(self, "dim", dim)
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        pairs = [(as_label(lbl), eff) for lbl, eff in outcomes]
        for lbl, eff in pairs:
            if np.shape(eff) != (self.dim, self.dim):
                raise ValueError(
                    f"effect for label {lbl} has shape {np.shape(eff)}, "
                    f"expected {(self.dim, self.dim)}"
                )
        pairs.sort(key=lambda pair: pair[0])
        labels = tuple(lbl for lbl, _ in pairs)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate outcome labels")
        if len({len(lbl) for lbl in labels}) > 1:
            raise ValueError("labels must all have the same number of components")
        effects = np.array([eff for _, eff in pairs], dtype=np.complex128)
        effects = effects.reshape(len(pairs), self.dim, self.dim)
        if not np.isfinite(effects).all():
            raise ValueError("effects must have finite entries")
        effects.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "effects", effects)

    @property
    def arity(self) -> int:
        """Number of label components."""
        return len(self.labels[0]) if self.labels else 0

    def effect(self, label) -> np.ndarray:
        lbl = as_label(label)
        if lbl not in self.labels:
            raise KeyError(f"no outcome labeled {lbl}")
        return self.effects[self.labels.index(lbl)]

    def __len__(self) -> int:
        return len(self.labels)


def validate(p: Povm, tol: float = PSD_TOL) -> bool:
    """True iff every effect is PSD within tol and the effects sum to identity.

    The normalization defect is measured in Frobenius norm against
    tol * sqrt(dim), so the test scales with the size of the identity.
    """
    if not len(p) or not is_psd(p.effects, tol):
        return False
    return frob(p.effects.sum(axis=0) - np.eye(p.dim)) <= tol * math.sqrt(p.dim)


def _norms(m: np.ndarray) -> np.ndarray:
    return np.linalg.norm(m, axis=(-2, -1))


def is_sharp(p: Povm, tol: float = PSD_TOL) -> bool:
    """True iff every effect is idempotent (a projection) within tol."""
    e = p.effects
    return bool((_norms(e @ e - e) <= tol).all())


def _component_values(p: Povm, axis: int) -> list[int]:
    return sorted({lbl[axis] for lbl in p.labels})


def is_product_labeled(p: Povm) -> bool:
    """Whether the label set is the full Cartesian product of its components."""
    if p.arity == 0:
        return False
    grids = [_component_values(p, ax) for ax in range(p.arity)]
    expected = set(itertools.product(*grids))
    return set(p.labels) == expected


def as_axes(p: Povm, axes: int | Sequence[int]) -> tuple[int, ...]:
    """``axes`` as a tuple of label positions, refused with ValueError
    unless nonempty, in range for ``p`` and free of repeats."""
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    if not axes or any(ax < 0 or ax >= p.arity for ax in axes):
        raise ValueError(f"axes {axes} out of range for arity {p.arity}")
    if len(set(axes)) != len(axes):
        raise ValueError("repeated marginal axes")
    return axes


def marginal(p: Povm, axes: int | Sequence[int]) -> Povm:
    """Sum effects over all label components except the kept ``axes``.

    ``axes`` are positions into the label tuple; the result's labels are the
    projections of the original labels onto those positions, in order.
    """
    axes = as_axes(p, axes)
    keys = [tuple(lbl[ax] for ax in axes) for lbl in p.labels]
    kept = sorted(set(keys))
    kernel = np.eye(len(kept))[[kept.index(key) for key in keys]]
    return post_process(p, kernel, kept)


def marginals(p: Povm) -> tuple[Povm, ...]:
    """Single-axis marginals of a product-labeled joint observable."""
    if not is_product_labeled(p):
        raise ValueError("observable labels do not form a full product")
    return tuple(marginal(p, ax) for ax in range(p.arity))


def post_process(
    p: Povm,
    kernel: np.ndarray,
    labels: Sequence | None = None,
) -> Povm:
    """Classically post-process an observable with a stochastic kernel.

    ``kernel[i, j]`` is the probability of relabeling outcome i (in label
    order) to new outcome j.  Entries must be nonnegative and rows sum to
    one, to `PSD_TOL`.  New labels default to (0,), (1,), ... in column
    order.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != len(p):
        raise ValueError(
            f"kernel shape {kernel.shape} does not match {len(p)} outcomes"
        )
    if kernel.min() < -PSD_TOL or np.abs(kernel.sum(axis=1) - 1.0).max() > PSD_TOL:
        raise ValueError("kernel is not row stochastic")
    n_new = kernel.shape[1]
    if labels is None:
        labels = [(j,) for j in range(n_new)]
    if len(labels) != n_new:
        raise ValueError("need one label per kernel column")
    new_effects = np.einsum("ij,iab->jab", kernel, p.effects)
    return Povm(p.dim, zip(labels, new_effects))


def effects_close(p: Povm, q: Povm, tol: float = PSD_TOL) -> bool:
    """Entrywise effect agreement under matched labels."""
    if p.dim != q.dim or p.labels != q.labels:
        return False
    return bool((_norms(p.effects - q.effects) <= tol).all())


def refinement_joint(p: Povm) -> Povm:
    """Embed an observable as a joint observable with its own leading axis.

    The result M has labels (x,) + l and effects M((x,) + l) = p(l) when
    x == l[0] and zero otherwise.  Its axis-0 marginal is the axis-0
    marginal of p, and the marginal over the remaining axes is p itself.
    """
    firsts = _component_values(p, 0)
    owns = np.array([[x == lbl[0] for lbl in p.labels] for x in firsts])
    effects = np.where(owns[:, :, None, None], p.effects, 0.0)
    labels = [(x,) + lbl for x in firsts for lbl in p.labels]
    return Povm(p.dim, zip(labels, effects.reshape(-1, p.dim, p.dim)))


def trivial(dim: int) -> Povm:
    """The one-outcome observable whose only effect is the identity."""
    return Povm(dim, (((0,), np.eye(dim, dtype=np.complex128)),))


def qubit_binary(t: float, axis: Sequence[float]) -> Povm:
    """Binary qubit observable (1/2)(I +- t n.sigma) with labels +1, -1.

    ``t`` in (0, 1] is the sharpness, ``axis`` a unit Bloch vector n.
    At t = 1 the effects are the spin projections along n.
    """
    if not 0 < t <= 1:
        raise ValueError(f"sharpness must lie in (0, 1], got {t}")
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > QUBIT_TOL:
        raise ValueError("axis must be a unit vector in R^3")
    pointing = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    eye = np.eye(2, dtype=np.complex128)
    return Povm(
        2,
        (
            ((1,), (eye + t * pointing) / 2),
            ((-1,), (eye - t * pointing) / 2),
        ),
    )


def bloch_vector(effect: np.ndarray) -> np.ndarray:
    """Pauli expansion coefficients (v_x, v_y, v_z) of a qubit effect.

    For an unbiased binary effect (1/2)(I + v.sigma) this recovers v.
    """
    return np.einsum("kij,ji->k", np.array([SIGMA_X, SIGMA_Y, SIGMA_Z]), effect).real


def four_outcome_refinement(s: float) -> Povm:
    """Four-outcome qubit observable whose leading marginal is qubit_binary(s, z).

    Labels are (j, k) with j, k in {+1, -1}.  The three effects other than
    (-1, -1) have rank one; the last has rank two.  Defined for s in (0, 1).
    """
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    eye = np.eye(2, dtype=np.complex128)
    return Povm(
        2,
        (
            ((1, 1), (1 + s) / 4 * (eye + SIGMA_Z)),
            ((1, -1), (1 - s) / 4 * (eye - SIGMA_Z)),
            ((-1, 1), (1 - s) / 4 * (eye + SIGMA_X)),
            ((-1, -1), (1 - s) / 4 * (eye - SIGMA_X) + s / 2 * (eye - SIGMA_Z)),
        ),
    )


def noisy_spin_triplet(t: float) -> tuple[Povm, Povm, Povm]:
    """Noisy x, y and z spin observables with common sharpness t."""
    return tuple(qubit_binary(t, n) for n in (AXIS_X, AXIS_Y, AXIS_Z))
