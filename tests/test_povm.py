"""Tests for observables, marginalization and the stock qubit families."""

import math

import numpy as np
import pytest
from hypothesis.vendor.pretty import pretty

from seqmeas.povm import (
    AXIS_X,
    AXIS_Z,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Povm,
    bloch_vector,
    effects_close,
    four_outcome_refinement,
    is_product_labeled,
    is_sharp,
    marginal,
    marginals,
    noisy_spin_triplet,
    post_process,
    qubit_binary,
    refinement_joint,
    trivial,
    validate,
)

RNG = np.random.default_rng(7)
EYE = np.eye(2, dtype=complex)


def sharp_z():
    return qubit_binary(1.0, AXIS_Z)


# --- construction ------------------------------------------------------

def test_outcomes_sorted_lexicographically():
    p = Povm(2, (((1,), EYE / 2), ((-1,), EYE / 2)))
    assert p.labels == ((-1,), (1,))


def test_scalar_labels_become_tuples():
    p = Povm(2, ((1, EYE / 2), (-1, EYE / 2)))
    assert p.labels == ((-1,), (1,))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Povm(2, (((0,), EYE), ((0,), EYE)))


def test_ragged_labels_rejected():
    with pytest.raises(ValueError, match="components"):
        Povm(2, (((0,), EYE / 2), ((0, 1), EYE / 2)))


def test_wrong_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        Povm(3, (((0,), EYE),))


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_effects_rejected(entry):
    # NaN passes every `norm > tol` test downstream, so `luders` and
    # `naimark_minimal` would return wrong objects without raising
    effects = qubit_binary(0.8, AXIS_Z).effects.copy()
    effects[0, 0, 1] = entry
    with pytest.raises(ValueError, match="finite"):
        Povm(2, zip([(-1,), (1,)], effects))


def test_effects_are_one_array_in_label_order():
    c = four_outcome_refinement(0.8)
    assert c.effects.shape == (4, 2, 2)
    assert c.effects.dtype == np.complex128
    assert c.labels == ((-1, -1), (-1, 1), (1, -1), (1, 1))
    for i, lbl in enumerate(c.labels):
        assert np.array_equal(c.effects[i], c.effect(lbl))
    assert np.allclose(c.effects[-1], 0.45 * (EYE + SIGMA_Z))


def test_effects_are_a_read_only_copy():
    effects = np.stack([EYE / 4, 3 * EYE / 4])
    p = Povm(2, zip([(1,), (0,)], effects))
    effects[0] = 0.0
    assert np.allclose(p.effect(1), EYE / 4)
    with pytest.raises(ValueError, match="read-only"):
        p.effects[0, 0, 0] = 1.0


def test_hypothesis_pretty_prints_an_observable():
    # failure reports print drawn values by walking their dataclass fields
    text = pretty(qubit_binary(0.5, AXIS_Z))
    assert text.startswith("Povm(dim=2, labels=((-1,), (1,)), effects=array(")
    assert "0.75" in text
    assert pretty(Povm(dim=1, outcomes=[(0, np.eye(1))])).startswith("Povm(dim=1,")


def test_empty_observable():
    p = Povm(2, ())
    assert len(p) == 0
    assert p.effects.shape == (0, 2, 2)
    assert p.arity == 0
    assert not validate(p)


def test_effect_lookup():
    a = qubit_binary(0.8, AXIS_Z)
    assert np.allclose(a.effect(1), np.diag([0.9, 0.1]))
    assert np.allclose(a.effect(-1), np.diag([0.1, 0.9]))
    with pytest.raises(KeyError):
        a.effect(2)


# --- validate / is_sharp ----------------------------------------------

def test_validate_accepts_stock_observables():
    assert validate(sharp_z())
    assert validate(qubit_binary(0.8, AXIS_Z))
    assert validate(four_outcome_refinement(0.8))
    assert validate(trivial(3))


def test_validate_rejects_bad_normalization():
    assert not validate(Povm(2, (((0,), EYE), ((1,), EYE))))


def test_validate_rejects_non_psd_effect():
    bump = np.diag([1.5, 1.0])
    assert not validate(Povm(2, (((0,), bump), ((1,), EYE - bump))))


def test_is_sharp():
    assert is_sharp(sharp_z())
    assert is_sharp(trivial(4))
    assert not is_sharp(qubit_binary(0.8, AXIS_Z))


# --- marginals ---------------------------------------------------------

def test_marginal_of_four_outcome_refinement_is_unsharp_z():
    c = four_outcome_refinement(0.8)
    first = marginal(c, 0)
    assert effects_close(first, qubit_binary(0.8, AXIS_Z), tol=1e-12)


def test_marginals_of_hand_built_joint():
    # M(i, j) = (1/4)(I + 0.6 i sz + 0.6 j sx): margins are the two
    # unsharp observables along z and x with sharpness 0.6
    outcomes = []
    for i in (1, -1):
        for j in (1, -1):
            outcomes.append(((i, j), (EYE + 0.6 * i * SIGMA_Z + 0.6 * j * SIGMA_X) / 4))
    m = Povm(2, tuple(outcomes))
    a, b = marginals(m)
    assert effects_close(a, qubit_binary(0.6, AXIS_Z), tol=1e-12)
    assert effects_close(b, qubit_binary(0.6, AXIS_X), tol=1e-12)


def test_marginals_require_product_labels():
    holey = Povm(2, (((0, 0), EYE / 2), ((1, 1), EYE / 2)))
    assert not is_product_labeled(holey)
    with pytest.raises(ValueError, match="product"):
        marginals(holey)


@pytest.mark.parametrize("axes", [(0,), (2,), (1, 0), (0, 2)])
def test_marginal_keeps_the_axes_in_order(axes):
    m = refinement_joint(four_outcome_refinement(0.8))
    sums = {}
    for lbl, eff in zip(m.labels, m.effects):
        key = tuple(lbl[ax] for ax in axes)
        sums[key] = sums.get(key, 0) + eff
    got = marginal(m, axes)
    assert got.labels == tuple(sorted(sums))
    for key, eff in sums.items():
        assert np.allclose(got.effect(key), eff, atol=1e-15)


def test_marginal_axis_validation():
    c = four_outcome_refinement(0.8)
    with pytest.raises(ValueError):
        marginal(c, 2)
    with pytest.raises(ValueError):
        marginal(c, (0, 0))


def test_refinement_joint_structure():
    c = four_outcome_refinement(0.8)
    m = refinement_joint(c)
    assert is_product_labeled(m)
    assert len(m) == 8  # {+-1} x four outcomes, half of them zero
    assert effects_close(marginal(m, (1, 2)), c, tol=1e-13)
    assert effects_close(marginal(m, 0), marginal(c, 0), tol=1e-13)
    assert np.allclose(m.effect((1, -1, 1)), 0.0)


def test_refinement_joint_of_binary_is_diagonal():
    a = qubit_binary(0.8, AXIS_Z)
    m = refinement_joint(a)
    assert np.allclose(m.effect((1, 1)), a.effect(1))
    assert np.allclose(m.effect((1, -1)), 0.0)
    assert effects_close(marginal(m, 1), a, tol=1e-13)


# --- post-processing ---------------------------------------------------

def test_post_process_identity_kernel():
    a = qubit_binary(0.8, AXIS_Z)
    out = post_process(a, np.eye(2), labels=a.labels)
    assert effects_close(out, a, tol=1e-13)


def test_post_process_merge_to_trivial():
    a = qubit_binary(0.8, AXIS_Z)
    out = post_process(a, np.ones((2, 1)))
    assert effects_close(out, trivial(2), tol=1e-13)


def test_post_process_smears_sharp_to_unsharp():
    # mixing the outcomes of the sharp observable with probability (1-t)/2
    # reproduces the unsharp observable on the same axis
    t, theta = 0.6, math.pi / 3
    axis = (math.sin(theta), 0.0, math.cos(theta))
    sharp = qubit_binary(1.0, axis)
    kernel = np.array([[(1 + t) / 2, (1 - t) / 2], [(1 - t) / 2, (1 + t) / 2]])
    out = post_process(sharp, kernel, labels=[(-1,), (1,)])
    assert effects_close(out, qubit_binary(t, axis), tol=1e-12)


def test_post_process_preserves_validity():
    c = four_outcome_refinement(0.55)
    for _ in range(20):
        raw = RNG.random((4, 3))
        kernel = raw / raw.sum(axis=1, keepdims=True)
        assert validate(post_process(c, kernel), tol=1e-10)


def test_post_process_rejects_bad_kernel():
    a = qubit_binary(0.8, AXIS_Z)
    with pytest.raises(ValueError, match="stochastic"):
        post_process(a, np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="stochastic"):
        post_process(a, np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        post_process(a, np.ones((3, 2)) / 2)


# --- qubit families ----------------------------------------------------

def test_qubit_binary_sharp_z_projections():
    p = sharp_z()
    assert np.allclose(p.effect(1), np.diag([1.0, 0.0]))
    assert np.allclose(p.effect(-1), np.diag([0.0, 1.0]))


def test_qubit_binary_tilted_axis():
    theta = math.pi / 2
    b = qubit_binary(0.6, (math.sin(theta), 0.0, math.cos(theta)))
    assert np.allclose(b.effect(1), (EYE + 0.6 * SIGMA_X) / 2)


def test_qubit_binary_eigenvalues():
    for _ in range(20):
        t = RNG.uniform(0.05, 1.0)
        v = RNG.normal(size=3)
        v /= np.linalg.norm(v)
        p = qubit_binary(t, v)
        vals = np.linalg.eigvalsh(p.effect(1))
        assert np.allclose(sorted(vals), [(1 - t) / 2, (1 + t) / 2], atol=1e-12)
        assert validate(p, tol=1e-12)


def test_qubit_binary_argument_checks():
    with pytest.raises(ValueError):
        qubit_binary(0.0, AXIS_Z)
    with pytest.raises(ValueError):
        qubit_binary(1.1, AXIS_Z)
    with pytest.raises(ValueError):
        qubit_binary(0.5, (1.0, 1.0, 0.0))


def test_bloch_vector_roundtrip():
    v = np.array([0.3, -0.4, 0.5])
    effect = (EYE + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z) / 2
    assert np.allclose(bloch_vector(effect), v, atol=1e-12)


def test_four_outcome_refinement_effects():
    c = four_outcome_refinement(0.8)
    assert np.allclose(c.effect((1, 1)), 0.45 * (EYE + SIGMA_Z))
    assert np.allclose(c.effect((1, -1)), 0.05 * (EYE - SIGMA_Z))
    assert np.allclose(c.effect((-1, 1)), 0.05 * (EYE + SIGMA_X))
    assert np.allclose(
        c.effect((-1, -1)), 0.05 * (EYE - SIGMA_X) + 0.4 * (EYE - SIGMA_Z)
    )


def test_four_outcome_refinement_ranks():
    c = four_outcome_refinement(0.8)
    ranks = {
        lbl: int(np.linalg.matrix_rank(eff, tol=1e-9))
        for lbl, eff in zip(c.labels, c.effects)
    }
    assert ranks[(1, 1)] == 1
    assert ranks[(1, -1)] == 1
    assert ranks[(-1, 1)] == 1
    assert ranks[(-1, -1)] == 2


def test_four_outcome_refinement_range():
    with pytest.raises(ValueError):
        four_outcome_refinement(1.0)
    with pytest.raises(ValueError):
        four_outcome_refinement(0.0)


def test_noisy_spin_triplet():
    x, y, z = noisy_spin_triplet(0.65)
    assert np.allclose(x.effect(1), (EYE + 0.65 * SIGMA_X) / 2)
    assert np.allclose(y.effect(1), (EYE + 0.65 * SIGMA_Y) / 2)
    assert np.allclose(z.effect(1), (EYE + 0.65 * SIGMA_Z) / 2)
    for p in (x, y, z):
        assert validate(p, tol=1e-12)
    sharp_triplet = noisy_spin_triplet(1.0)
    assert all(is_sharp(p) for p in sharp_triplet)
