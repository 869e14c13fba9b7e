"""Known points of the benchmark's reference module.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import math

import numpy as np
import pytest

import reference as ref

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)


def test_busch_value_is_one_on_the_orthogonal_boundary():
    assert ref.busch_value(0.8, 0.6, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert ref.busch_value(0.8, 0.7, math.pi / 2) > 1.0
    # parallel axes are always compatible
    assert ref.busch_value(1.0, 1.0, 0.0) == pytest.approx(1.0)


def test_triplet_boundary():
    assert ref.triplet_compatible(0.55)
    assert not ref.triplet_compatible(0.60)


def test_luders_inverse_inverts_the_dual():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = g @ g.conj().T
    a = ref.binary_effects(0.8, Z)
    assert np.allclose(ref.luders_dual(a, ref.luders_inverse_image(x, 0.8, Z)), x)
    kraus = ref.luders_kraus(0.8, Z)
    assert np.allclose(sum(k.conj().T @ x @ k for k in kraus), ref.luders_dual(a, x))


def test_refinement_is_unreachable_after_luders():
    assert ref.is_povm(ref.refinement_effects(0.8), 1e-12)
    assert ref.luders_reach_margin(0.8, Z, ref.refinement_effects(0.8)) < 0


def test_transverse_targets_after_luders():
    # 0.5 / sqrt(1 - 0.64) < 1, while 0.9 / 0.6 > 1
    assert ref.luders_reach_margin(0.8, Z, ref.binary_effects(0.5, X)) > 0
    assert ref.luders_reach_margin(0.8, Z, ref.binary_effects(0.9, Y)) < 0


def test_validators_accept_the_closed_form_joint_and_its_recovery():
    s, t = 0.6, 0.5
    i, (sx, _, sz) = ref.EYE2, ref.PAULI
    joint = [(i + a * s * sz + b * t * sx) / 4 for a in (1, -1) for b in (1, -1)]
    a_eff = ref.binary_effects(s, Z)
    b_eff = ref.binary_effects(t, X)
    assert ref.joint_witness_ok(joint, [a_eff, b_eff], 1e-12)
    assert not ref.joint_witness_ok(joint, [a_eff, ref.binary_effects(0.4, X)], 1e-6)
    kraus = ref.luders_kraus(s, Z)
    assert ref.instrument_ok(kraus, [(0,), (1,)], a_eff, 1e-12)
    b_prime = [ref.luders_inverse_image(e, s, Z) for e in b_eff]
    assert ref.b_prime_ok(kraus, b_prime, b_eff, 1e-12)
    assert not ref.b_prime_ok(kraus, b_eff, b_eff, 1e-6)


def test_minimal_dilation_dims():
    assert ref.minimal_dilation_dim(ref.binary_effects(0.8, Z)) == 4
    assert ref.minimal_dilation_dim(ref.refinement_effects(0.8)) == 5
    assert ref.minimal_dilation_dim(ref.binary_effects(1.0, Z)) == 2
