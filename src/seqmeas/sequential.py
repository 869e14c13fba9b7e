"""Sequential implementation of jointly measurable observables.

The universal channel of an observable A is the instrument built on A's
minimal Naimark dilation (K, A_hat, V), with one Kraus operator A_hat(x) V
per outcome.  Measuring A this way keeps enough coherence that any
observable B jointly measurable with A can still be recovered afterwards:
given a joint observable M with first marginal A, compressing the sharp
dilation of M through the connecting isometry J yields a modified
observable B' on K with

    universal_channel(A)^* ( B'(y) ) = B(y),

so the pair (first measure A's instrument, then measure B') reproduces the
joint statistics of M.  The compensating channel is the classical readout
of B'.
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
from .dilation import (
    NaimarkDilation,
    connecting_isometry,
    naimark_canonical,
    naimark_minimal,
)
from .linalg import CHECK_TOL, MARGINAL_TOL, RANK_TOL, dagger, frob
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

def universal_channel(a: Povm, rank_tol: float = RANK_TOL) -> KrausChannel:
    """Instrument with Kraus operators A_hat(x) V over the minimal dilation.

    Output lives on the dilation space; the branch partition is one Kraus
    operator per outcome of ``a``, so branch traces reproduce ``a``.
    """
    d = naimark_minimal(a, rank_tol)
    kraus = tuple(proj @ d.isometry for _, proj in d.sharp.outcomes)
    partition = {lbl: (i,) for i, lbl in enumerate(d.sharp.labels)}
    return KrausChannel(a.dim, d.dim_k, kraus, partition)


def _exact_first_marginal(joint: Povm, a: Povm) -> Povm:
    """Project the joint onto the affine set of exact leading marginals.

    The correction spreads each row-sum defect evenly over the row, which is
    the orthogonal projection; it keeps solver witnesses from leaking their
    residual into the dilation step.
    """
    groups: dict[int, list[int]] = {}
    for i, lbl in enumerate(joint.labels):
        groups.setdefault(lbl[0], []).append(i)
    effects = list(joint.effects)
    for (x_lbl,), target in zip(a.labels, a.effects):
        idx = groups[x_lbl]
        defect = sum(effects[i] for i in idx) - target
        for i in idx:
            effects[i] = effects[i] - defect / len(idx)
    return Povm(joint.dim, tuple(zip(joint.labels, effects)))


def _joint_dilation_pieces(
    a: Povm, joint: Povm
) -> tuple[NaimarkDilation, NaimarkDilation, Povm]:
    """Minimal dilation of a, the matching dilation drawn from the joint's
    canonical dilation, and the sharp readout observable for the other axes."""
    if joint.arity < 2:
        raise ValueError("joint observable needs at least two label axes")
    if joint.dim != a.dim:
        raise ValueError("joint observable acts on the wrong space")
    lead = marginal(joint, 0)
    if not effects_close(lead, a, tol=MARGINAL_TOL):
        raise ValueError(
            "leading marginal of the joint does not match the first observable"
        )
    polished = _exact_first_marginal(joint, a)
    cano = naimark_canonical(polished)
    rest = tuple(range(1, joint.arity))
    a_hat = marginal(cano.sharp, 0)
    b_hat = marginal(cano.sharp, rest)
    upstairs = NaimarkDilation(cano.dim_k, cano.isometry, a_hat)
    return naimark_minimal(a), upstairs, b_hat


def modified_observable(a: Povm, joint: Povm, tol: float = CHECK_TOL) -> Povm:
    """The observable B' on the universal channel's output implementing the
    joint's other marginal.

    B'(y) = J^dag B_hat(y) J, where B_hat collects the sharp dilation
    effects of the joint over the non-leading label axes and J connects the
    minimal dilation of ``a`` to the joint's canonical dilation.
    """
    mini, upstairs, b_hat = _joint_dilation_pieces(a, joint)
    j = connecting_isometry(mini, upstairs, tol).matrix
    outcomes = tuple(
        (lbl, dagger(j) @ proj @ j) for lbl, proj in b_hat.outcomes
    )
    return Povm(mini.dim_k, outcomes)


def compensating_channel(a: Povm, joint: Povm, tol: float = CHECK_TOL) -> KrausChannel:
    """Classical readout of the modified observable.

    Composing this channel after ``universal_channel(a)`` reproduces the
    measure-and-prepare channel of the joint's other marginal.
    """
    return classical_channel(modified_observable(a, joint, tol))


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


def sequential_scheme(a: Povm, joint: Povm, tol: float = CHECK_TOL) -> SequentialScheme:
    """Bundle the universal implementation of a joint observable."""
    channel = universal_channel(a)
    second = modified_observable(a, joint, tol)
    return SequentialScheme(a, channel, second, implemented_joint(channel, second))
