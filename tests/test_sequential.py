"""Tests for the universal instrument and recovery of later observables."""

import numpy as np
import pytest

from seqmeas.channels import (
    KrausChannel,
    apply,
    choi,
    classical_channel,
    heisenberg_apply,
    identity_channel,
    is_trace_preserving,
    luders,
)
from seqmeas.dilation import (
    NaimarkDilation,
    connecting_isometry,
    naimark_canonical,
    naimark_minimal,
)
from seqmeas.feasibility import SolverOptions, find_joint_observable, witness_povm
from seqmeas.linalg import WITNESS_TOL, dagger, frob
from seqmeas.povm import (
    AXIS_X,
    AXIS_Z,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Povm,
    effects_close,
    four_outcome_refinement,
    marginal,
    qubit_binary,
    refinement_joint,
    trivial,
    validate,
)
from seqmeas.sequential import (
    SequentialScheme,
    compensating_channel,
    implemented_joint,
    modified_observable,
    sequential_scheme,
    universal_channel,
    verify_sequential,
)
from test_cli import _wishart_pair

EYE = np.eye(2, dtype=complex)


def orthogonal_joint(s, t):
    outcomes = []
    for i in (1, -1):
        for j in (1, -1):
            outcomes.append(((i, j), (EYE + s * i * SIGMA_Z + t * j * SIGMA_X) / 4))
    return Povm(2, tuple(outcomes))


def upstairs(joint):
    """The joint's canonical dilation read as a dilation of its first
    marginal."""
    cano = naimark_canonical(joint)
    return NaimarkDilation(cano.dim_k, cano.isometry, marginal(cano.sharp, 0))


def compression_gap(a, joint, bp):
    """Distance between B' and J^dag B_hat J, with J connecting the minimal
    dilation of a to the joint's canonical dilation read as one of a."""
    cano = naimark_canonical(joint)
    j = connecting_isometry(naimark_minimal(a), upstairs(joint))
    b_hat = marginal(cano.sharp, tuple(range(1, joint.arity)))
    return max(frob(e - dagger(j) @ f @ j) for e, f in zip(bp.effects, b_hat.effects))


BASIS_STATES = [
    np.diag([1.0, 0.0]),
    np.diag([0.0, 1.0]),
    (EYE + SIGMA_X) / 2,
    (EYE + SIGMA_Y) / 2,
]


# --- universal channel ---------------------------------------------------

def test_universal_channel_shape_and_branches():
    a = qubit_binary(0.8, AXIS_Z)
    lam = universal_channel(a)
    assert (lam.dim_in, lam.dim_out) == (2, 4)
    assert is_trace_preserving(lam, tol=1e-12)
    assert lam.labels == a.labels
    # branch probabilities reproduce the observable on the mixed state
    for lbl, eff in a.outcomes:
        from seqmeas.channels import apply_branch

        p = np.trace(apply_branch(lam, lbl, EYE / 2)).real
        assert abs(p - np.trace(EYE / 2 @ eff).real) <= 1e-12


def test_universal_channel_of_trivial_embeds_isometrically():
    lam = universal_channel(trivial(2))
    assert (lam.dim_in, lam.dim_out) == (2, 2)
    assert len(lam.kraus) == 1
    v = lam.kraus[0]
    assert np.allclose(dagger(v) @ v, np.eye(2), atol=1e-12)


def test_sharp_universal_reduces_to_luders():
    # for a sharp observable the dilation space is a copy of the input
    # space, and pulling the channel back along V gives exactly the
    # square-root instrument
    a = qubit_binary(1.0, AXIS_Z)
    lam = universal_channel(a)
    v = naimark_minimal(a).isometry
    identified = KrausChannel(2, 2, tuple(dagger(v) @ k for k in lam.kraus))
    diff = frob(choi(identified) - choi(luders(a)))
    assert diff <= 1e-10


# --- modified observable -------------------------------------------------

def test_recovers_four_outcome_refinement():
    a = qubit_binary(0.8, AXIS_Z)
    c = four_outcome_refinement(0.8)
    lam = universal_channel(a)
    bp = modified_observable(a, refinement_joint(c))
    assert bp.dim == 4
    assert bp.labels == c.labels
    assert validate(bp, tol=1e-9)
    assert verify_sequential(lam, bp, c, tol=1e-8)


def test_recovers_transverse_binary_observable():
    a = qubit_binary(0.8, AXIS_Z)
    b = qubit_binary(0.6, AXIS_X)
    lam = universal_channel(a)
    bp = modified_observable(a, orthogonal_joint(0.8, 0.6))
    assert verify_sequential(lam, bp, b, tol=1e-8)


def test_one_channel_serves_two_later_observables():
    # the instrument is fixed by the first observable alone; only the
    # readout changes with the joint observable
    a = qubit_binary(0.8, AXIS_Z)
    lam = universal_channel(a)
    cases = [
        (orthogonal_joint(0.8, 0.6), qubit_binary(0.6, AXIS_X)),
        (refinement_joint(four_outcome_refinement(0.8)), four_outcome_refinement(0.8)),
        (refinement_joint(a), a),
    ]
    for joint, target in cases:
        bp = modified_observable(a, joint)
        assert verify_sequential(lam, bp, target, tol=1e-8)
        assert compression_gap(a, joint, bp) <= 1e-9


def test_modified_observable_after_a_rank_one_joint():
    # Wishart joint effects with one column each leave A rank-deficient;
    # the square roots of its roundoff eigenvalues must not add kernel
    # directions that the minimal dilation has dropped
    rng = np.random.default_rng(2)
    g = rng.normal(size=(4, 4, 1)) + 1j * rng.normal(size=(4, 4, 1))
    blocks = g @ np.conj(np.swapaxes(g, 1, 2))
    w, v = np.linalg.eigh(blocks.sum(axis=0))
    isq = (v * w**-0.5) @ np.conj(v.T)
    m = isq @ blocks @ isq
    m = ((m + np.conj(np.swapaxes(m, 1, 2))) / 2).reshape(2, 2, 4, 4)
    a = Povm(4, tuple(((x,), m[x].sum(axis=0)) for x in range(2)))
    b = Povm(4, tuple(((y,), m[:, y].sum(axis=0)) for y in range(2)))
    joint = Povm(4, tuple(((x, y), m[x, y]) for x in range(2) for y in range(2)))
    bp = modified_observable(a, joint)
    assert verify_sequential(universal_channel(a), bp, b, tol=1e-8)
    assert compression_gap(a, joint, bp) <= 1e-9


@pytest.mark.parametrize("seed", [5, 9, 11, 12])
def test_connecting_isometry_accepts_witness_dilations_at_dimension_six(seed):
    # the witness meets A only to its solver residual (about 1e-9 here),
    # which J^dag J - I would magnify by the inverse of A's smallest
    # eigenvalue (4e-4 to 8e-3) past CHECK_TOL
    a, b = _wishart_pair(seed)
    joint = witness_povm(find_joint_observable(a, b, opts=SolverOptions(tol=WITNESS_TOL)))
    mini, up = naimark_minimal(a), upstairs(joint)
    j = connecting_isometry(mini, up)
    assert frob(j @ mini.isometry - up.isometry) <= 1e-9
    assert compression_gap(a, joint, modified_observable(a, joint)) <= 1e-6


def test_modified_observable_trivial_second_axis():
    a = qubit_binary(0.8, AXIS_Z)
    joint = Povm(2, tuple(((lbl[0], 0), eff) for lbl, eff in a.outcomes))
    bp = modified_observable(a, joint)
    assert len(bp) == 1
    assert np.allclose(bp.effects[0], np.eye(4), atol=1e-10)


def test_modified_observable_rejects_marginal_mismatch():
    a = qubit_binary(0.6, AXIS_Z)
    with pytest.raises(ValueError, match="marginal"):
        modified_observable(a, orthogonal_joint(0.8, 0.6))


def test_modified_observable_rejects_single_axis_labels():
    a = qubit_binary(0.8, AXIS_Z)
    with pytest.raises(ValueError, match="axes"):
        modified_observable(a, a)


def test_modified_observable_rejects_a_joint_singular_on_a_range():
    # the joint's leading marginal misses A(0) by 1e-7, inside the marginal
    # tolerance, but drops the direction A(0) weights by 1e-7 altogether,
    # so no normalisation of block 0 can sum to the identity
    a = Povm(2, (((0,), np.diag([1.0, 1e-7])), ((1,), np.diag([0.0, 1 - 1e-7]))))
    half = np.diag([0.5, 0.0])
    joint = Povm(2, (((0, 0), half), ((0, 1), half),
                     ((1, 0), np.diag([0.0, 1 - 1e-7])), ((1, 1), np.zeros((2, 2)))))
    with pytest.raises(ValueError, match="singular"):
        modified_observable(a, joint)


def test_polish_tolerates_slightly_dirty_joint():
    a = qubit_binary(0.8, AXIS_Z)
    joint = orthogonal_joint(0.8, 0.6)
    noisy = Povm(
        2,
        tuple(
            (lbl, eff + 1e-9 * np.eye(2)) for lbl, eff in joint.outcomes
        ),
    )
    bp = modified_observable(a, noisy)
    assert verify_sequential(
        universal_channel(a), bp, qubit_binary(0.6, AXIS_X), tol=1e-7
    )


# --- compensating channel -------------------------------------------------

def test_factorization_through_dilation_space():
    # readout after the instrument equals the measure-and-prepare channel
    # of the joint's other marginal
    a = qubit_binary(0.8, AXIS_Z)
    joint = orthogonal_joint(0.8, 0.6)
    lam = universal_channel(a)
    gam = compensating_channel(a, joint)
    direct = classical_channel(marginal(joint, 1))
    assert gam.dim_in == lam.dim_out and gam.dim_out == direct.dim_out
    for rho in BASIS_STATES:
        assert frob(apply(gam, apply(lam, rho)) - apply(direct, rho)) <= 1e-9


def test_factorization_for_refinement_joint():
    a = qubit_binary(0.8, AXIS_Z)
    c = four_outcome_refinement(0.8)
    lam = universal_channel(a)
    gam = compensating_channel(a, refinement_joint(c))
    direct = classical_channel(c)
    for rho in BASIS_STATES:
        assert frob(apply(gam, apply(lam, rho)) - apply(direct, rho)) <= 1e-9


# --- verify_sequential / implemented_joint --------------------------------

def test_verify_sequential_identity_channel():
    b = qubit_binary(0.6, AXIS_X)
    assert verify_sequential(identity_channel(2), b, b)
    assert not verify_sequential(identity_channel(2), b, qubit_binary(0.7, AXIS_X))


def test_verify_sequential_luders_damping():
    # after the unsharp z instrument, the fully sharp transverse observable
    # looks like the damped one
    lam = luders(qubit_binary(0.8, AXIS_Z))
    sharp_x = qubit_binary(1.0, AXIS_X)
    assert verify_sequential(lam, sharp_x, qubit_binary(0.6, AXIS_X), tol=1e-12)


def test_verify_sequential_structure_checks():
    b = qubit_binary(0.6, AXIS_X)
    with pytest.raises(ValueError, match="dimension"):
        verify_sequential(universal_channel(qubit_binary(0.8, AXIS_Z)), b, b)
    relabeled = Povm(2, tuple(((lbl[0] * 2,), e) for lbl, e in b.outcomes))
    with pytest.raises(ValueError, match="labels"):
        verify_sequential(identity_channel(2), b, relabeled)


def test_implemented_joint_reproduces_joint():
    a = qubit_binary(0.8, AXIS_Z)
    joint = orthogonal_joint(0.8, 0.6)
    scheme = sequential_scheme(a, joint)
    assert isinstance(scheme, SequentialScheme)
    assert effects_close(scheme.implemented, joint, tol=1e-9)
    assert effects_close(marginal(scheme.implemented, 0), a, tol=1e-9)


def test_implemented_joint_for_identity_channel():
    b = qubit_binary(0.6, AXIS_X)
    c = KrausChannel(2, 2, (np.eye(2, dtype=complex),), {(0,): (0,)})
    m = implemented_joint(c, b)
    assert m.labels == ((0, -1), (0, 1))
    assert effects_close(marginal(m, 1), b, tol=1e-12)


def test_implemented_joint_sharp_luders_sandwich():
    a = qubit_binary(1.0, AXIS_Z)
    b = qubit_binary(0.6, AXIS_X)
    m = implemented_joint(luders(a), b)
    for x in (1, -1):
        for y in (1, -1):
            expected = a.effect(x) @ b.effect(y) @ a.effect(x)
            assert frob(m.effect((x, y)) - expected) <= 1e-12


def test_implemented_joint_requires_partition():
    b = qubit_binary(0.6, AXIS_X)
    with pytest.raises(ValueError, match="partition"):
        implemented_joint(KrausChannel(2, 2, (np.eye(2, dtype=complex),)), b)
