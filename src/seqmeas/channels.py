"""Quantum channels in Kraus form.

A channel holds Kraus operators mapping C^dim_in to C^dim_out.  An optional
partition groups Kraus indices into labeled branches, turning the channel
into an instrument: branch x implements the completely positive map
rho -> sum_{i in branch x} K_i rho K_i^dag, and the branch traces define the
observable the instrument measures.

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

from .linalg import PSD_TOL, RANK_TOL, STATE_TOL, as_complex, dagger, frob, herm_eig, sqrt_psd
from .povm import Label, Povm, as_label

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

    ``partition`` optionally assigns every Kraus index to exactly one
    outcome label.  Construction checks shapes and partition structure,
    not trace preservation; see :func:`is_trace_preserving`.
    """

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]
    partition: Mapping[Label, tuple[int, ...]] | None = None

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = tuple(as_complex(k) for k in self.kraus)
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator shape {k.shape}, expected "
                    f"{(self.dim_out, self.dim_in)}"
                )
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
    total = sum(dagger(k) @ k for k in c.kraus)
    return frob(total - np.eye(c.dim_in)) <= tol * np.sqrt(c.dim_in)


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


def _kraus_sum(
    c: KrausChannel, ops: Sequence[np.ndarray], t: np.ndarray, dual: bool = False
) -> np.ndarray:
    """sum_k K t K^dag over the given Kraus operators of `c`, or sum_k K^dag t K
    when `dual`."""
    n = c.dim_in if dual else c.dim_out
    out = np.zeros((n, n), dtype=np.complex128)
    for k in ops:
        out += dagger(k) @ t @ k if dual else k @ t @ dagger(k)
    return out


def apply(c: KrausChannel, state: np.ndarray) -> np.ndarray:
    """Schroedinger action on a density matrix."""
    return _kraus_sum(c, c.kraus, _check_state(c, state))


def heisenberg_apply(c: KrausChannel, t: np.ndarray) -> np.ndarray:
    """Dual action on an operator of the output space."""
    t = as_complex(t)
    if t.shape != (c.dim_out, c.dim_out):
        raise ValueError(
            f"operator shape {t.shape} does not match dim_out {c.dim_out}"
        )
    return _kraus_sum(c, c.kraus, t, dual=True)


def _branch(c: KrausChannel, label) -> tuple[np.ndarray, ...]:
    if c.partition is None:
        raise ValueError("channel carries no branch partition")
    lbl = as_label(label)
    if lbl not in c.partition:
        raise KeyError(f"no branch labeled {lbl}")
    return tuple(c.kraus[i] for i in c.partition[lbl])


def apply_branch(c: KrausChannel, label, state: np.ndarray) -> np.ndarray:
    """Unnormalized post-measurement output of a single branch."""
    return _kraus_sum(c, _branch(c, label), _check_state(c, state))


def heisenberg_branch(c: KrausChannel, label, t: np.ndarray) -> np.ndarray:
    return _kraus_sum(c, _branch(c, label), as_complex(t), dual=True)


def branch_observable(c: KrausChannel) -> Povm:
    """The observable measured by the instrument: x -> branch_x^*(I)."""
    eye = np.eye(c.dim_out, dtype=np.complex128)
    outcomes = tuple(
        (lbl, heisenberg_branch(c, lbl, eye)) for lbl in c.labels
    )
    return Povm(c.dim_in, outcomes)


def choi(c: KrausChannel) -> np.ndarray:
    """Choi matrix sum_k vec(K_k) vec(K_k)^dag on C^dim_out (x) C^dim_in,
    output factor first, with row-major vec."""
    n = c.dim_out * c.dim_in
    m = np.zeros((n, n), dtype=np.complex128)
    for k in c.kraus:
        v = k.reshape(-1)
        m += np.outer(v, v.conj())
    return m


def luders(a: Povm) -> KrausChannel:
    """The instrument with Kraus operators sqrt(A(x)), one branch per outcome."""
    kraus = tuple(sqrt_psd(eff) for eff in a.effects)
    partition = {lbl: (i,) for i, lbl in enumerate(a.labels)}
    return KrausChannel(a.dim, a.dim, kraus, partition)


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
    Eigen-directions of an effect with eigenvalue at or below `RANK_TOL`
    get no Kraus operator.
    """
    if readout_axes is None:
        readouts = list(m.labels)
        keys = list(m.labels)
    else:
        axes = tuple(readout_axes)
        rest = tuple(ax for ax in range(m.arity) if ax not in axes)
        if not axes or not rest:
            raise ValueError("readout axes must be a proper nonempty subset")
        readouts = [tuple(lbl[ax] for ax in axes) for lbl in m.labels]
        keys = [tuple(lbl[ax] for ax in rest) for lbl in m.labels]
    pointer = {val: i for i, val in enumerate(sorted(set(readouts)))}
    dim_out = len(pointer)
    kraus: list[np.ndarray] = []
    partition: dict[Label, list[int]] = {}
    for (lbl, eff), readout, key in zip(m.outcomes, readouts, keys):
        vals, vecs = herm_eig(eff)
        row = pointer[readout]
        for rank in range(len(vals) - 1, -1, -1):
            lam = vals[rank]
            if lam <= RANK_TOL:
                continue
            op = np.zeros((dim_out, m.dim), dtype=np.complex128)
            op[row, :] = np.sqrt(lam) * vecs[:, rank].conj()
            partition.setdefault(key, []).append(len(kraus))
            kraus.append(op)
    part = {k: tuple(v) for k, v in partition.items()}
    return KrausChannel(m.dim, dim_out, tuple(kraus), part)


def stinespring(c: KrausChannel) -> np.ndarray:
    """Isometry V psi = sum_e (K_e psi) (x) |e> into C^dim_out (x) C^#Kraus,
    one environment dimension per Kraus operator, environment factor second."""
    return np.stack(c.kraus, axis=1).reshape(c.dim_out * len(c.kraus), c.dim_in)


def conjugate(c: KrausChannel) -> KrausChannel:
    """The channel into the Stinespring environment: rho -> Tr_out V rho V^dag.

    The environment dimension, and with it this channel, depends on the
    Kraus decomposition; all decompositions give conjugates equivalent for
    the questions asked here, and this one is the canonical choice.
    """
    stacked = np.stack(c.kraus, axis=0)  # (env, out, in)
    kraus = tuple(stacked[:, a, :] for a in range(c.dim_out))
    return KrausChannel(c.dim_in, len(c.kraus), kraus)


def nondisturbing(c: KrausChannel, b: Povm, tol: float = PSD_TOL) -> bool:
    """Whether measuring b after the channel equals measuring b before it."""
    if c.dim_in != c.dim_out:
        raise ValueError("nondisturbance needs matching input and output spaces")
    if b.dim != c.dim_out:
        raise ValueError("observable does not act on the channel's output space")
    return all(
        frob(heisenberg_apply(c, eff) - eff) <= tol for eff in b.effects
    )
