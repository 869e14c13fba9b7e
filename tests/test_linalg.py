"""Tests for the dense linear algebra primitives.

Reference values come from closed forms and from one `np.linalg.eigh` call
per matrix, so any bookkeeping mistake in the batched versions shows up as
a disagreement here.
"""

import numpy as np
import pytest

from seqmeas.linalg import (
    dagger,
    frob,
    herm_eig,
    is_psd,
    range_factors,
    sqrt_psd,
)

RNG = np.random.default_rng(20260819)


def random_complex(n, m=None):
    m = n if m is None else m
    return RNG.normal(size=(n, m)) + 1j * RNG.normal(size=(n, m))


def random_hermitian(n):
    m = random_complex(n)
    return (m + dagger(m)) / 2


def random_psd(n):
    m = random_complex(n)
    return m @ dagger(m)


# --- herm_eig ----------------------------------------------------------

def test_herm_eig_reconstructs():
    m = random_hermitian(6)
    vals, vecs = herm_eig(m)
    rebuilt = (vecs * vals) @ dagger(vecs)
    assert frob(rebuilt - m) <= 1e-10
    assert frob(dagger(vecs) @ vecs - np.eye(6)) <= 1e-10
    assert np.all(np.diff(vals) >= 0)


def test_herm_eig_known_spectrum():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    vals, _ = herm_eig(sx)
    assert np.allclose(vals, [-1.0, 1.0])


def test_herm_eig_phase_convention():
    m = random_hermitian(5)
    _, vecs = herm_eig(m)
    for k in range(5):
        col = vecs[:, k]
        anchor = col[np.abs(col).argmax()]
        assert abs(anchor.imag) <= 1e-12
        assert anchor.real > 0


def test_herm_eig_deterministic():
    m = random_hermitian(4)
    a_vals, a_vecs = herm_eig(m)
    b_vals, b_vecs = herm_eig(m.copy())
    assert np.array_equal(a_vals, b_vals)
    assert np.array_equal(a_vecs, b_vecs)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        herm_eig(np.ones((2, 3)))


def test_herm_eig_stack_matches_each_matrix():
    stack = np.stack([random_hermitian(4) for _ in range(3)]).reshape(3, 1, 4, 4)
    vals, vecs = herm_eig(stack)
    assert vals.shape == (3, 1, 4) and vecs.shape == (3, 1, 4, 4)
    for i in range(3):
        one_vals, one_vecs = herm_eig(stack[i, 0])
        assert np.array_equal(vals[i, 0], one_vals)
        assert np.array_equal(vecs[i, 0], one_vecs)


def test_herm_eig_stack_checks_each_matrix():
    stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(stack)


# --- sqrt_psd ----------------------------------------------------------

def test_sqrt_psd_known_values():
    assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3))
    assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sqrt_psd_squares_back():
    m = random_psd(5)
    r = sqrt_psd(m)
    assert frob(r @ r - m) <= 1e-10 * max(frob(m), 1.0)
    assert frob(r - dagger(r)) <= 1e-12


def test_sqrt_psd_clips_tiny_negatives():
    # roundoff of either sign on the kernel must not grow into its root
    for tiny in (-1e-12, 1e-17):
        r = sqrt_psd(np.diag([1.0, tiny]))
        assert np.allclose(r, np.diag([1.0, 0.0]), rtol=0.0, atol=1e-12)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValueError, match="PSD"):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_psd_stack_matches_each_matrix():
    stack = np.stack([random_psd(3), np.diag([1.0, 1e-17, 0.0]), np.eye(3)])
    roots = sqrt_psd(stack)
    for m, r in zip(stack, roots):
        assert np.array_equal(r, sqrt_psd(m))
    with pytest.raises(ValueError, match="PSD"):
        sqrt_psd(np.stack([np.eye(2), np.diag([1.0, -0.5])]))


# --- is_psd ------------------------------------------------------------

def test_is_psd():
    assert is_psd(np.eye(2))
    assert is_psd(random_psd(4))
    assert not is_psd(np.diag([1.0, -1.0]))
    assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    assert not is_psd(np.ones((2, 3)))


# --- range_factors -----------------------------------------------------

def test_range_factors_rank_one():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    rows, owner = range_factors(np.outer(v, v.conj())[None])
    assert rows.shape == (1, 2) and owner.tolist() == [0]
    # spans the same line, with unit weight
    assert abs(abs(np.vdot(rows[0].conj(), v)) - 1.0) <= 1e-12


def test_range_factors_full_rank():
    rows, owner = range_factors(np.diag([0.9, 0.1])[None])
    assert rows.shape == (2, 2) and owner.tolist() == [0, 0]
    assert frob(rows @ dagger(rows) - np.diag([0.9, 0.1])) <= 1e-12
    # descending eigenvalue order puts the 0.9 direction first
    assert abs(abs(rows[0, 0]) ** 2 - 0.9) <= 1e-12


def test_range_factors_factor_each_matrix():
    w = random_complex(5, 2)
    stack = np.stack([w @ dagger(w), np.zeros((5, 5)), random_psd(5)])
    rows, owner = range_factors(stack)
    assert owner.tolist() == [0, 0, 2, 2, 2, 2, 2]
    for i, m in enumerate(stack):
        block = rows[owner == i]
        assert frob(dagger(block) @ block - m) <= 1e-10 * max(frob(m), 1.0)
        # orthogonal rows, weights descending: W W^dag = diag(lambda)
        gram = block @ dagger(block)
        lam = np.linalg.eigvalsh(m)[::-1][: len(block)]
        assert frob(gram - np.diag(lam)) <= 1e-10 * max(frob(m), 1.0)


def test_range_factors_rejects_indefinite():
    with pytest.raises(ValueError, match="PSD"):
        range_factors(np.stack([np.eye(2), np.diag([1.0, -1.0])]))
