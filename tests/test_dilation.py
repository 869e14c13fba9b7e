"""Tests for Naimark dilations and connecting isometries."""

import numpy as np
import pytest

from seqmeas.dilation import (
    NaimarkDilation,
    connecting_isometry,
    is_minimal,
    naimark_canonical,
    naimark_minimal,
    verify_dilation,
)
from seqmeas.linalg import dagger, frob
from seqmeas.povm import (
    AXIS_X,
    AXIS_Z,
    Povm,
    four_outcome_refinement,
    qubit_binary,
    trivial,
)


def sharp_z():
    return qubit_binary(1.0, AXIS_Z)


# --- canonical ----------------------------------------------------------

def test_canonical_dimensions_and_verification():
    for a in (sharp_z(), qubit_binary(0.8, AXIS_Z), four_outcome_refinement(0.8)):
        d = naimark_canonical(a)
        assert d.dim_k == len(a) * a.dim
        assert verify_dilation(a, d, tol=1e-10)


def test_canonical_of_trivial_is_unitary_embedding():
    d = naimark_canonical(trivial(2))
    assert d.dim_k == 2
    assert np.allclose(d.isometry, np.eye(2))


def test_canonical_marginal_reconstruction_oracle():
    # independent reconstruction: V^dag A_hat(x) V recomputed entrywise
    a = qubit_binary(0.6, AXIS_X)
    d = naimark_canonical(a)
    for proj, eff in zip(d.sharp.effects, a.effects):
        got = dagger(d.isometry) @ proj @ d.isometry
        assert np.allclose(got, eff, atol=1e-12)


# --- minimal ------------------------------------------------------------

def test_minimal_dimension_is_total_rank():
    assert naimark_minimal(qubit_binary(0.8, AXIS_Z)).dim_k == 4
    assert naimark_minimal(four_outcome_refinement(0.8)).dim_k == 5
    assert naimark_minimal(sharp_z()).dim_k == 2


def test_minimal_verifies():
    for a in (sharp_z(), qubit_binary(0.8, AXIS_Z), four_outcome_refinement(0.8)):
        d = naimark_minimal(a)
        assert verify_dilation(a, d, tol=1e-9)
        assert is_minimal(d)


def test_minimal_of_sharp_is_unitary():
    d = naimark_minimal(sharp_z())
    v = d.isometry
    assert v.shape == (2, 2)
    assert np.allclose(dagger(v) @ v, np.eye(2), atol=1e-12)
    assert np.allclose(v @ dagger(v), np.eye(2), atol=1e-12)


def test_canonical_not_minimal_for_rank_deficient_effects():
    # sharp z: canonical space is C^4 but ranks sum to 2
    d = naimark_canonical(sharp_z())
    assert not is_minimal(d)


def test_verify_rejects_shuffled_sharp_labels():
    a = qubit_binary(0.8, AXIS_Z)
    d = naimark_minimal(a)
    swapped = Povm(
        d.dim_k,
        zip([(-lbl[0],) for lbl in d.sharp.labels], d.sharp.effects),
    )
    assert not verify_dilation(a, NaimarkDilation(d.dim_k, d.isometry, swapped))


def test_verify_rejects_wrong_observable():
    d = naimark_minimal(qubit_binary(0.8, AXIS_Z))
    assert not verify_dilation(qubit_binary(0.6, AXIS_Z), d)


def test_hand_built_dilation_verifies():
    # the observable is already sharp, so (H, A, I) is a dilation of itself
    a = sharp_z()
    d = NaimarkDilation(2, np.eye(2, dtype=complex), a)
    assert verify_dilation(a, d, tol=1e-12)
    assert is_minimal(d)


# --- connecting isometry -------------------------------------------------

def test_connecting_minimal_to_canonical():
    a = qubit_binary(0.8, AXIS_Z)
    mini = naimark_minimal(a)
    cano = naimark_canonical(a)
    j = connecting_isometry(mini, cano)
    assert j.shape == (4, 4)
    assert frob(dagger(j) @ j - np.eye(4)) <= 1e-9
    assert frob(j @ mini.isometry - cano.isometry) <= 1e-9
    for p1, p2 in zip(mini.sharp.effects, cano.sharp.effects):
        assert frob(j @ p1 - p2 @ j) <= 1e-9


def test_connecting_rank_deficient_case():
    c = four_outcome_refinement(0.8)
    mini = naimark_minimal(c)  # dim 5
    cano = naimark_canonical(c)  # dim 8
    j = connecting_isometry(mini, cano)
    assert j.shape == (8, 5)
    assert frob(dagger(j) @ j - np.eye(5)) <= 1e-9
    assert frob(j @ mini.isometry - cano.isometry) <= 1e-9


def test_connecting_minimal_to_itself_is_identity():
    mini = naimark_minimal(qubit_binary(0.8, AXIS_Z))
    j = connecting_isometry(mini, mini)
    assert np.allclose(j, np.eye(4), atol=1e-10)


def test_connecting_rejects_non_minimal_first():
    a = sharp_z()
    with pytest.raises(ValueError, match="minimal"):
        connecting_isometry(naimark_canonical(a), naimark_minimal(a))


@pytest.mark.parametrize("strength", [0.6, 0.8 + 1e-6], ids=["0.6", "near-miss"])
def test_connecting_rejects_different_observables(strength):
    first = naimark_minimal(qubit_binary(0.8, AXIS_Z))
    second = naimark_canonical(qubit_binary(strength, AXIS_Z))
    with pytest.raises(ValueError, match="different"):
        connecting_isometry(first, second)


def test_connecting_rejects_label_mismatch():
    first = naimark_minimal(qubit_binary(0.8, AXIS_Z))
    second = naimark_canonical(four_outcome_refinement(0.8))
    with pytest.raises(ValueError, match="different"):
        connecting_isometry(first, second)
