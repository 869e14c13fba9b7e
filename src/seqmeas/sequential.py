"""Sequential implementation of jointly measurable observables.

The universal channel of an observable A is the instrument built on A's
minimal Naimark dilation (K, A_hat, V), with one Kraus operator A_hat(x) V
per outcome.  Measuring A this way keeps enough coherence that any
observable B jointly measurable with A can still be recovered afterwards.
Given a joint observable M with first marginal A, block x of the dilation
isometry is W_x = diag(sqrt(lambda)) V_r^dag, from the eigenvalues lambda
of A(x) above the rank cut and their eigenvectors V_r, and its
pseudo-inverse is W_x^+ = W_x^dag diag(1/lambda).  The modified observable
B' on K is block-diagonal, with blocks B'_x(y) = W_x^+dag M(x, y) W_x^+, and

    universal_channel(A)^* ( B'(y) ) = sum_x W_x^dag B'_x(y) W_x = B(y),

so the pair (first measure A's instrument, then measure B') reproduces the
joint statistics of M.  This closed form is the compression J^dag B_hat J
of the sharp dilation of M through the isometry J connecting the two
dilations (see :func:`dilation.connecting_isometry`), without solving for
J.  The compensating channel is the classical readout of B'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    KrausChannel,
    classical_channel,
    heisenberg_apply,
    heisenberg_branch,
)
from .dilation import NaimarkDilation, naimark_minimal
from .linalg import CHECK_TOL, MARGINAL_TOL, dagger
from .povm import Povm, effects_close, marginal

__all__ = [
    "SequentialScheme",
    "universal_channel",
    "modified_observable",
    "compensating_channel",
    "verify_sequential",
    "implemented_joint",
    "sequential_scheme",
]

def _instrument(d: NaimarkDilation) -> KrausChannel:
    """The instrument with Kraus operators A_hat(x) V of a dilation."""
    partition = {lbl: (i,) for i, lbl in enumerate(d.sharp.labels)}
    return KrausChannel(d.dim, d.dim_k, d.sharp.effects @ d.isometry, partition)


def universal_channel(a: Povm) -> KrausChannel:
    """Instrument with Kraus operators A_hat(x) V over the minimal dilation.

    Output lives on the dilation space; the branch partition is one Kraus
    operator per outcome of ``a``, so branch traces reproduce ``a``.
    """
    return _instrument(naimark_minimal(a))


def modified_observable(a: Povm, joint: Povm) -> Povm:
    """The observable B' on the universal channel's output implementing the
    joint's other marginal.

    B' is zero off the blocks of the minimal dilation of ``a``; on block x
    it is S_x^(-1/2) W_x^+dag M(x, y) W_x^+ S_x^(-1/2), where S_x, the sum
    over y of W_x^+dag M(x, y) W_x^+, is I when the joint meets A exactly,
    so B' sums to I however far a solver witness misses its marginal.  It
    equals J^dag B_hat(y) J for the sharp readout B_hat of the joint's
    canonical dilation and the isometry J connecting the two dilations.
    """
    return _modified(naimark_minimal(a), a, joint)


def _modified(mini: NaimarkDilation, a: Povm, joint: Povm) -> Povm:
    """`modified_observable` on ``mini``, the minimal dilation of ``a``, with
    every block at once on the dilation space, masked back onto the blocks."""
    if joint.arity < 2:
        raise ValueError("joint observable needs at least two label axes")
    if joint.dim != a.dim:
        raise ValueError("joint observable acts on the wrong space")
    if not effects_close(marginal(joint, 0), a, tol=MARGINAL_TOL):
        raise ValueError("leading marginal of the joint does not match the first observable")
    v = mini.isometry
    owner = mini.sharp.effects.diagonal(axis1=1, axis2=2).real.argmax(axis=0)
    # the rows of W_x are orthogonal with squared norms lambda, so
    # V^dag diag(1/lambda) holds each W_x^+ in the columns of block x
    w_pinv = dagger(v) / (np.abs(v) ** 2).sum(axis=1)
    later = sorted({lbl[1:] for lbl in joint.labels})
    mine = owner == np.array([a.labels.index(lbl[:1]) for lbl in joint.labels])[:, None]
    blocks = dagger(w_pinv) @ joint.effects @ w_pinv * (mine[:, :, None] & mine[:, None, :])
    raw = np.zeros((len(later), mini.dim_k, mini.dim_k), dtype=np.complex128)
    np.add.at(raw, [later.index(lbl[1:]) for lbl in joint.labels], blocks)
    vals, vecs = np.linalg.eigh(raw.sum(axis=0))
    if (vals <= 0).any():
        raise ValueError("the joint is singular on the range of an effect of A")
    norm = (vecs / np.sqrt(vals)) @ dagger(vecs)
    effs = norm @ raw @ norm * (owner[:, None] == owner)
    return Povm(mini.dim_k, zip(later, (effs + dagger(effs)) / 2))


def compensating_channel(a: Povm, joint: Povm) -> KrausChannel:
    """Classical readout of the modified observable.

    Composing this channel after ``universal_channel(a)`` reproduces the
    measure-and-prepare channel of the joint's other marginal.
    """
    return classical_channel(modified_observable(a, joint))


def verify_sequential(
    channel: KrausChannel, b_prime: Povm, b: Povm, tol: float = CHECK_TOL
) -> bool:
    """Whether measuring b_prime after the channel measures b on the input."""
    if b_prime.dim != channel.dim_out or b.dim != channel.dim_in:
        raise ValueError("observable dimensions do not match the channel")
    if b_prime.labels != b.labels:
        raise ValueError("outcome labels do not match")
    recovered = heisenberg_apply(channel, b_prime.effects)
    gaps = np.linalg.norm(recovered - b.effects, axis=(1, 2))
    return bool((gaps <= tol).all())


def implemented_joint(channel: KrausChannel, b_prime: Povm) -> Povm:
    """Joint observable of branch label and later outcome.

    M(x + y) = branch_x^*(B'(y)); the first marginal is the observable the
    instrument measures, the other marginal is what b_prime implements.
    """
    if channel.partition is None:
        raise ValueError("channel carries no branch partition")
    if b_prime.dim != channel.dim_out:
        raise ValueError("observable does not act on the channel output")
    labels = [x + y for x in channel.labels for y in b_prime.labels]
    effects = [heisenberg_branch(channel, x, b_prime.effects) for x in channel.labels]
    return Povm(channel.dim_in, zip(labels, np.concatenate(effects)))


@dataclass(frozen=True, eq=False)
class SequentialScheme:
    """A first observable, the instrument measuring it, the later observable
    on the instrument's output, and the joint observable they implement."""

    first: Povm
    channel: KrausChannel
    second: Povm
    implemented: Povm


def sequential_scheme(a: Povm, joint: Povm) -> SequentialScheme:
    """Bundle the universal implementation of a joint observable, both
    parts built on one minimal dilation of ``a``."""
    mini = naimark_minimal(a)
    channel = _instrument(mini)
    second = _modified(mini, a, joint)
    return SequentialScheme(a, channel, second, implemented_joint(channel, second))
