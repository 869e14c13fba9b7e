"""Quantum channels in Kraus form.

A channel holds its Kraus operators, maps from C^dim_in to C^dim_out, as
one complex array of shape (n, dim_out, dim_in).  An optional partition
groups Kraus indices into labeled branches, turning the channel into an
instrument: branch x, the slice of the array at its indices, implements
rho -> sum_{i in branch x} K_i rho K_i^dag, and the branch traces define
the observable the instrument measures.  Every action, of the whole
channel or of one branch, is one batched product over such a slice.

Choi matrices, returned as plain arrays, use the output factor first, built
from row-major vec, so the partial trace of a Choi matrix over the output
factor equals the transpose of sum_k K_k^dag K_k.  This is the one place the
transpose convention lives.  Stinespring isometries, plain arrays too, put
the environment factor second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linalg import PSD_TOL, STATE_TOL, as_complex, dagger, frob, range_factors, sqrt_psd
from .povm import Label, Povm, as_axes, as_label

__all__ = [
    "KrausChannel",
    "identity_channel",
    "is_trace_preserving",
    "apply",
    "heisenberg_apply",
    "apply_branch",
    "heisenberg_branch",
    "branch_observable",
    "choi",
    "luders",
    "classical_channel",
    "stinespring",
    "conjugate",
    "nondisturbing",
]

@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A completely positive map given by Kraus operators.

    ``kraus``, matrices stacking to shape (n, dim_out, dim_in), is stored
    as a read-only complex copy of that array.  ``partition`` optionally
    assigns every Kraus index to exactly one outcome label, and a label may
    own none.  Construction checks shapes and partition structure, not
    trace preservation; see :func:`is_trace_preserving`.
    """

    dim_in: int
    dim_out: int
    kraus: np.ndarray
    partition: Mapping[Label, tuple[int, ...]] | None = None

    def __post_init__(self):
        ops = np.array(self.kraus, dtype=np.complex128)
        if len(ops) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        if ops.shape[1:] != (self.dim_out, self.dim_in):
            raise ValueError(
                f"Kraus operator shape {ops.shape[1:]}, expected "
                f"{(self.dim_out, self.dim_in)}"
            )
        ops.flags.writeable = False
        object.__setattr__(self, "kraus", ops)
        if self.partition is not None:
            part = {
                as_label(lbl): tuple(int(i) for i in idx)
                for lbl, idx in dict(self.partition).items()
            }
            flat = [i for idx in part.values() for i in idx]
            if sorted(flat) != list(range(len(ops))):
                raise ValueError(
                    "partition must assign every Kraus index exactly once"
                )
            object.__setattr__(
                self, "partition", dict(sorted(part.items()))
            )

    @property
    def labels(self) -> tuple[Label, ...]:
        if self.partition is None:
            raise ValueError("channel carries no branch partition")
        return tuple(self.partition)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel(dim, dim, (np.eye(dim, dtype=np.complex128),))


def is_trace_preserving(c: KrausChannel, tol: float = PSD_TOL) -> bool:
    total = (dagger(c.kraus) @ c.kraus).sum(axis=0)
    return bool(frob(total - np.eye(c.dim_in)) <= tol * np.sqrt(c.dim_in))


def _check_state(c: KrausChannel, state: np.ndarray) -> np.ndarray:
    state = as_complex(state)
    if state.shape != (c.dim_in, c.dim_in):
        raise ValueError(
            f"state shape {state.shape} does not match dim_in {c.dim_in}"
        )
    if abs(np.trace(state) - 1.0) > STATE_TOL:
        raise ValueError("state trace differs from one")
    if frob(state - dagger(state)) > STATE_TOL:
        raise ValueError("state is not Hermitian")
    if np.linalg.eigvalsh((state + dagger(state)) / 2)[0] < -STATE_TOL:
        raise ValueError("state is not positive semidefinite")
    return state


def _check_operators(c: KrausChannel, t: np.ndarray) -> np.ndarray:
    t = as_complex(t)
    if t.shape[-2:] != (c.dim_out, c.dim_out):
        raise ValueError(
            f"operator shape {t.shape} does not match dim_out {c.dim_out}"
        )
    return t


def _dual(kraus: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k K_k^dag t K_k over a stack (n, m, d) of operators K_k, for one
    m x m operator t or for each of a stack (..., m, m) of them, as one
    product S^dag (t K_k)_k with the K_k stacked into an (n m) x d matrix S."""
    n, m, d = kraus.shape
    tk = (t[..., None, :, :] @ kraus).reshape(t.shape[:-2] + (n * m, d))
    return dagger(kraus.reshape(n * m, d)) @ tk


def apply(c: KrausChannel, state: np.ndarray) -> np.ndarray:
    """Schroedinger action on a density matrix."""
    return _dual(dagger(c.kraus), _check_state(c, state))


def heisenberg_apply(c: KrausChannel, t: np.ndarray) -> np.ndarray:
    """Dual action on an operator of the output space, or on each of a
    stack (..., dim_out, dim_out) of them."""
    return _dual(c.kraus, _check_operators(c, t))


def _branch(c: KrausChannel, label) -> np.ndarray:
    if c.partition is None:
        raise ValueError("channel carries no branch partition")
    lbl = as_label(label)
    if lbl not in c.partition:
        raise KeyError(f"no branch labeled {lbl}")
    return c.kraus[list(c.partition[lbl])]


def apply_branch(c: KrausChannel, label, state: np.ndarray) -> np.ndarray:
    """Unnormalized post-measurement output of a single branch."""
    return _dual(dagger(_branch(c, label)), _check_state(c, state))


def heisenberg_branch(c: KrausChannel, label, t: np.ndarray) -> np.ndarray:
    """Dual action of one branch, on operators shaped as for `heisenberg_apply`."""
    return _dual(_branch(c, label), _check_operators(c, t))


def branch_observable(c: KrausChannel) -> Povm:
    """The observable measured by the instrument: x -> branch_x^*(I)."""
    eye = np.eye(c.dim_out, dtype=np.complex128)
    return Povm(c.dim_in, ((lbl, heisenberg_branch(c, lbl, eye)) for lbl in c.labels))


def choi(c: KrausChannel) -> np.ndarray:
    """Choi matrix sum_k vec(K_k) vec(K_k)^dag on C^dim_out (x) C^dim_in,
    output factor first, with row-major vec."""
    vecs = c.kraus.reshape(len(c.kraus), -1)
    return vecs.T @ vecs.conj()


def luders(a: Povm) -> KrausChannel:
    """The instrument with Kraus operators sqrt(A(x)), one branch per outcome."""
    partition = {lbl: (i,) for i, lbl in enumerate(a.labels)}
    return KrausChannel(a.dim, a.dim, sqrt_psd(a.effects), partition)


def classical_channel(
    m: Povm,
    readout_axes: Sequence[int] | None = None,
) -> KrausChannel:
    """Measure-and-prepare channel writing outcomes into a classical register.

    The output space is spanned by one basis vector per readout value, in
    lexicographic order.  With ``readout_axes`` unset the readout is the full
    outcome label and each branch holds one outcome.  For a joint observable,
    passing a subset of label axes as the readout keeps only those components
    on the register while branches are labeled by the remaining components,
    so branch traces reproduce the marginal over the non-readout axes.
    Each effect gives one Kraus operator per row of its factor of
    `range_factors`, that row written onto the register vector of its
    readout; an effect with an eigenvalue below -`RANK_TOL` raises.
    """
    if readout_axes is None:
        readouts = list(m.labels)
        keys = list(m.labels)
    else:
        axes = as_axes(m, readout_axes)
        rest = tuple(ax for ax in range(m.arity) if ax not in axes)
        if not rest:
            raise ValueError("readout axes must be a proper nonempty subset")
        readouts = [tuple(lbl[ax] for ax in axes) for lbl in m.labels]
        keys = [tuple(lbl[ax] for ax in rest) for lbl in m.labels]
    pointer = {val: i for i, val in enumerate(sorted(set(readouts)))}
    rows, owner = range_factors(m.effects)
    register = np.array([pointer[r] for r in readouts], dtype=int)
    kraus = np.zeros((len(rows), len(pointer), m.dim), dtype=np.complex128)
    kraus[np.arange(len(rows)), register[owner]] = rows
    partition: dict[Label, list[int]] = {key: [] for key in keys}
    for k, i in enumerate(owner):
        partition[keys[i]].append(k)
    return KrausChannel(m.dim, len(pointer), kraus, partition)


def stinespring(c: KrausChannel) -> np.ndarray:
    """Isometry V psi = sum_e (K_e psi) (x) |e> into C^dim_out (x) C^#Kraus,
    one environment dimension per Kraus operator, environment factor second."""
    return c.kraus.transpose(1, 0, 2).reshape(c.dim_out * len(c.kraus), c.dim_in)


def conjugate(c: KrausChannel) -> KrausChannel:
    """The channel into the Stinespring environment: rho -> Tr_out V rho V^dag.

    The environment dimension, and with it this channel, depends on the
    Kraus decomposition; all decompositions give conjugates equivalent for
    the questions asked here, and this one is the canonical choice.
    """
    return KrausChannel(c.dim_in, len(c.kraus), c.kraus.transpose(1, 0, 2))


def nondisturbing(c: KrausChannel, b: Povm, tol: float = PSD_TOL) -> bool:
    """Whether measuring b after the channel equals measuring b before it."""
    if c.dim_in != c.dim_out:
        raise ValueError("nondisturbance needs matching input and output spaces")
    if b.dim != c.dim_out:
        raise ValueError("observable does not act on the channel's output space")
    gaps = np.linalg.norm(heisenberg_apply(c, b.effects) - b.effects, axis=(1, 2))
    return bool((gaps <= tol).all())
