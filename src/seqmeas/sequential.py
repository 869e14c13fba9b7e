"""Sequential implementation of jointly measurable observables.

The universal channel of an observable A is the instrument built on A's
minimal Naimark dilation (K, A_hat, V), with one Kraus operator A_hat(x) V
per outcome.  Measuring A this way keeps enough coherence that any
observable B jointly measurable with A can still be recovered afterwards.
Given a joint observable M with first marginal A, write W_x = R_x^dag
sqrt(A(x)) for block x of the dilation isometry (R_x a basis of the range
of A(x)).  The modified observable B' on K is block-diagonal, with blocks
B'_x(y) = W_x^+dag M(x, y) W_x^+, and

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
from .dilation import naimark_minimal
from .linalg import CHECK_TOL, MARGINAL_TOL, dagger, frob
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

def universal_channel(a: Povm) -> KrausChannel:
    """Instrument with Kraus operators A_hat(x) V over the minimal dilation.

    Output lives on the dilation space; the branch partition is one Kraus
    operator per outcome of ``a``, so branch traces reproduce ``a``.
    """
    d = naimark_minimal(a)
    kraus = tuple(proj @ d.isometry for _, proj in d.sharp.outcomes)
    partition = {lbl: (i,) for i, lbl in enumerate(d.sharp.labels)}
    return KrausChannel(a.dim, d.dim_k, kraus, partition)


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
    if joint.arity < 2:
        raise ValueError("joint observable needs at least two label axes")
    if joint.dim != a.dim:
        raise ValueError("joint observable acts on the wrong space")
    if not effects_close(marginal(joint, 0), a, tol=MARGINAL_TOL):
        raise ValueError(
            "leading marginal of the joint does not match the first observable"
        )
    mini = naimark_minimal(a)
    b_prime = {
        lbl[1:]: np.zeros((mini.dim_k, mini.dim_k), dtype=np.complex128)
        for lbl in joint.labels
    }
    for (x_lbl,), proj in mini.sharp.outcomes:
        rows = np.flatnonzero(proj.diagonal())
        w_pinv = np.linalg.pinv(mini.isometry[rows])
        blocks = {
            lbl[1:]: dagger(w_pinv) @ eff @ w_pinv
            for lbl, eff in joint.outcomes
            if lbl[0] == x_lbl
        }
        vals, vecs = np.linalg.eigh(sum(blocks.values()))
        if (vals <= 0).any():
            raise ValueError(f"joint block {x_lbl} is singular on the range of A")
        norm = (vecs / np.sqrt(vals)) @ dagger(vecs)
        for y_lbl, blk in blocks.items():
            eff = norm @ blk @ norm
            b_prime[y_lbl][np.ix_(rows, rows)] = (eff + dagger(eff)) / 2
    return Povm(mini.dim_k, tuple(b_prime.items()))


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
    return all(
        frob(heisenberg_apply(channel, ep) - e) <= tol
        for ep, e in zip(b_prime.effects, b.effects)
    )


def implemented_joint(channel: KrausChannel, b_prime: Povm) -> Povm:
    """Joint observable of branch label and later outcome.

    M(x + y) = branch_x^*(B'(y)); the first marginal is the observable the
    instrument measures, the other marginal is what b_prime implements.
    """
    if channel.partition is None:
        raise ValueError("channel carries no branch partition")
    if b_prime.dim != channel.dim_out:
        raise ValueError("observable does not act on the channel output")
    outcomes = []
    for x_lbl in channel.labels:
        for y_lbl, eff in b_prime.outcomes:
            outcomes.append((x_lbl + y_lbl, heisenberg_branch(channel, x_lbl, eff)))
    return Povm(channel.dim_in, tuple(outcomes))


@dataclass(frozen=True, eq=False)
class SequentialScheme:
    """A first observable, the instrument measuring it, the later observable
    on the instrument's output, and the joint observable they implement."""

    first: Povm
    channel: KrausChannel
    second: Povm
    implemented: Povm


def sequential_scheme(a: Povm, joint: Povm) -> SequentialScheme:
    """Bundle the universal implementation of a joint observable."""
    channel = universal_channel(a)
    second = modified_observable(a, joint)
    return SequentialScheme(a, channel, second, implemented_joint(channel, second))
