"""Tests for the dense linear algebra primitives.

Reference values come from brute-force index loops written independently of
the library code, so any bookkeeping mistake in the vectorized versions
shows up as a disagreement here.
"""

import numpy as np
import pytest

from seqmeas.linalg import (
    dagger,
    frob,
    herm_eig,
    is_psd,
    partial_trace,
    range_isometry,
    sqrt_psd,
    tensor,
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


# --- oracles -----------------------------------------------------------

def tensor_oracle(a, b):
    """Four-index loop definition of the Kronecker product."""
    p, q = a.shape
    r, s = b.shape
    out = np.zeros((p * r, q * s), dtype=complex)
    for i in range(p):
        for j in range(q):
            for k in range(r):
                for l in range(s):
                    out[i * r + k, j * s + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m, d1, d2, traced):
    """Index-loop partial trace over one factor of C^d1 (x) C^d2."""
    if traced == "first":
        out = np.zeros((d2, d2), dtype=complex)
        for j in range(d2):
            for k in range(d2):
                for i in range(d1):
                    out[j, k] += m[i * d2 + j, i * d2 + k]
    else:
        out = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for k in range(d1):
                for j in range(d2):
                    out[i, k] += m[i * d2 + j, k * d2 + j]
    return out


# --- tensor ------------------------------------------------------------

def test_tensor_matches_loop_oracle():
    a = random_complex(2, 3)
    b = random_complex(3, 2)
    assert np.allclose(tensor(a, b), tensor_oracle(a, b), atol=1e-13)


def test_tensor_identity_blocks():
    m = random_complex(2)
    out = tensor(np.eye(2), m)
    assert np.allclose(out[:2, :2], m)
    assert np.allclose(out[2:, 2:], m)
    assert np.allclose(out[:2, 2:], 0)


def test_tensor_three_factors_associative():
    a, b, c = random_complex(2), random_complex(2), random_complex(3)
    assert np.allclose(tensor(a, b, c), tensor(tensor(a, b), c), atol=1e-13)
    assert np.allclose(tensor(a, b, c), tensor(a, tensor(b, c)), atol=1e-13)


def test_tensor_no_factors_raises():
    with pytest.raises(ValueError):
        tensor()


# --- partial trace -----------------------------------------------------

@pytest.mark.parametrize("traced", ["first", "second"])
def test_partial_trace_matches_loop_oracle(traced):
    m = random_complex(6)
    assert np.allclose(
        partial_trace(m, 2, 3, traced),
        partial_trace_oracle(m, 2, 3, traced),
        atol=1e-13,
    )


def test_partial_trace_of_product_state():
    a, b = random_psd(2), random_psd(3)
    m = tensor(a, b)
    assert np.allclose(partial_trace(m, 2, 3, "second"), a * np.trace(b), atol=1e-12)
    assert np.allclose(partial_trace(m, 2, 3, "first"), b * np.trace(a), atol=1e-12)


def test_partial_trace_of_maximally_entangled_pair():
    # |00> + |11>, unnormalized: both reductions are the identity
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0
    m = np.outer(v, v.conj())
    assert np.allclose(partial_trace(m, 2, 2, "first"), np.eye(2))
    assert np.allclose(partial_trace(m, 2, 2, "second"), np.eye(2))


def test_partial_trace_shape_mismatch_raises():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), 2, 3, "first")
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), 2, 3, "both")


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


# --- is_psd ------------------------------------------------------------

def test_is_psd():
    assert is_psd(np.eye(2))
    assert is_psd(random_psd(4))
    assert not is_psd(np.diag([1.0, -1.0]))
    assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    assert not is_psd(np.ones((2, 3)))


# --- range_isometry ----------------------------------------------------

def test_range_isometry_rank_one():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    w = range_isometry(np.outer(v, v.conj()))
    assert w.shape == (2, 1)
    # spans the same line
    assert abs(abs(np.vdot(w[:, 0], v)) - 1.0) <= 1e-12


def test_range_isometry_full_rank():
    m = np.diag([0.9, 0.1])
    w = range_isometry(m)
    assert w.shape == (2, 2)
    assert frob(dagger(w) @ w - np.eye(2)) <= 1e-12
    # descending eigenvalue order puts the 0.9 direction first
    assert abs(w[0, 0]) > 0.99


def test_range_isometry_projects_onto_range():
    w = random_complex(5, 2)
    m = w @ dagger(w)  # rank 2 PSD
    v = range_isometry(m)
    assert v.shape == (5, 2)
    proj = v @ dagger(v)
    assert frob(proj @ m - m) <= 1e-10


def test_range_isometry_rejects_indefinite():
    with pytest.raises(ValueError):
        range_isometry(np.diag([1.0, -1.0]))
