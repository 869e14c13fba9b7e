"""Tests for Kraus channels, Choi matrices and Stinespring forms."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmeas.channels import (
    KrausChannel,
    apply,
    apply_branch,
    branch_observable,
    choi,
    classical_channel,
    conjugate,
    heisenberg_apply,
    heisenberg_branch,
    identity_channel,
    is_trace_preserving,
    luders,
    nondisturbing,
    stinespring,
)
from seqmeas.dilation import naimark_canonical, naimark_minimal
from seqmeas.linalg import dagger, frob
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
    marginals,
    qubit_binary,
    refinement_joint,
    trivial,
    validate,
)
from seqmeas.serialize import channel_from_json, channel_to_json

RNG = np.random.default_rng(314159)
EYE = np.eye(2, dtype=complex)


def random_state(dim):
    m = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    rho = m @ dagger(m)
    return rho / np.trace(rho)


def random_channel(dim_in, dim_out, n_kraus):
    """Random CPTP map: slices of a Haar-ish isometry."""
    n_kraus = max(n_kraus, -(-dim_in // dim_out))  # isometry needs enough rows
    g = RNG.normal(size=(dim_out * n_kraus, dim_in)) + 1j * RNG.normal(
        size=(dim_out * n_kraus, dim_in)
    )
    q, _ = np.linalg.qr(g)
    kraus = tuple(q[e * dim_out : (e + 1) * dim_out, :] for e in range(n_kraus))
    return KrausChannel(dim_in, dim_out, kraus)


def theta_axis(theta):
    return (math.sin(theta), 0.0, math.cos(theta))


# --- construction and validation ----------------------------------------

def test_kraus_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        KrausChannel(2, 3, (np.eye(2),))
    with pytest.raises(ValueError):
        KrausChannel(2, 2, ())


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_kraus_rejected(entry):
    kraus = luders(qubit_binary(0.8, AXIS_Z)).kraus.copy()
    kraus[1, 1, 0] = entry
    with pytest.raises(ValueError, match="finite"):
        KrausChannel(2, 2, kraus, {(-1,): (0,), (1,): (1,)})


def test_stacked_kraus_array_builds_the_same_channel():
    ks = tuple(random_channel(3, 2, 3).kraus)
    from_tuple = KrausChannel(3, 2, ks, {(0,): (0, 2), (1,): (1,)})
    from_array = KrausChannel(3, 2, np.stack(ks), {(0,): (0, 2), (1,): (1,)})
    assert from_array.kraus.shape == (3, 2, 3)
    assert np.array_equal(from_array.kraus, from_tuple.kraus)
    assert from_array.partition == from_tuple.partition


def test_kraus_array_is_a_read_only_copy():
    ks = np.stack(random_channel(3, 2, 3).kraus)
    c = KrausChannel(3, 2, ks)
    env = conjugate(c)
    before = (c.kraus.copy(), env.kraus.copy())
    ks[0] = 0.0
    assert np.array_equal(c.kraus, before[0])
    for ch in (c, env):
        with pytest.raises(ValueError, match="read-only"):
            ch.kraus[0, 0, 0] = 1.0
    assert np.array_equal(env.kraus, before[1])


def test_partition_must_cover_indices():
    k = (EYE / np.sqrt(2), EYE / np.sqrt(2))
    with pytest.raises(ValueError, match="partition"):
        KrausChannel(2, 2, k, {(0,): (0,)})
    with pytest.raises(ValueError, match="partition"):
        KrausChannel(2, 2, k, {(0,): (0, 1), (1,): (1,)})


def test_is_trace_preserving():
    assert is_trace_preserving(identity_channel(3))
    assert is_trace_preserving(random_channel(2, 4, 3))
    broken = KrausChannel(2, 2, (EYE * 0.9,))
    assert not is_trace_preserving(broken)


# --- apply and duality ---------------------------------------------------

def test_apply_identity():
    rho = random_state(3)
    assert np.allclose(apply(identity_channel(3), rho), rho)


def test_apply_validates_state():
    c = identity_channel(2)
    with pytest.raises(ValueError, match="trace"):
        apply(c, EYE)
    with pytest.raises(ValueError, match="Hermitian"):
        apply(c, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="positive"):
        apply(c, np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="shape"):
        apply(c, np.eye(3) / 3)


def test_luders_sharp_z_dephases():
    c = luders(qubit_binary(1.0, AXIS_Z))
    plus = (EYE + SIGMA_X) / 2
    assert np.allclose(apply(c, plus), EYE / 2)


def test_heisenberg_unsharp_z_damps_x():
    # the unsharp z instrument shrinks transverse Bloch components by
    # sqrt(1 - s^2) and keeps the z component
    c = luders(qubit_binary(0.8, AXIS_Z))
    out = heisenberg_apply(c, (EYE + SIGMA_X) / 2)
    assert np.allclose(out, (EYE + 0.6 * SIGMA_X) / 2, atol=1e-12)
    assert np.allclose(heisenberg_apply(c, SIGMA_Z), SIGMA_Z, atol=1e-12)


def test_heisenberg_unital():
    c = random_channel(3, 2, 4)
    assert np.allclose(heisenberg_apply(c, np.eye(2)), np.eye(3), atol=1e-12)


def test_schroedinger_heisenberg_duality():
    for _ in range(100):
        dims = RNG.integers(2, 5, size=2)
        c = random_channel(int(dims[0]), int(dims[1]), int(RNG.integers(1, 5)))
        rho = random_state(c.dim_in)
        t = RNG.normal(size=(c.dim_out, c.dim_out)) + 1j * RNG.normal(
            size=(c.dim_out, c.dim_out)
        )
        lhs = np.trace(apply(c, rho) @ t)
        rhs = np.trace(rho @ heisenberg_apply(c, t))
        assert abs(lhs - rhs) <= 1e-10


def test_branches_sum_to_channel():
    a = qubit_binary(0.8, AXIS_Z)
    c = luders(a)
    rho = random_state(2)
    total = sum(apply_branch(c, lbl, rho) for lbl in c.labels)
    assert np.allclose(total, apply(c, rho), atol=1e-12)


def test_branch_observable_of_luders():
    a = qubit_binary(0.8, AXIS_Z)
    assert effects_close(branch_observable(luders(a)), a, tol=1e-12)


def test_branch_requires_partition():
    c = random_channel(2, 2, 2)
    with pytest.raises(ValueError, match="partition"):
        apply_branch(c, (0,), EYE / 2)


def test_branch_dual_checks_the_operator_shape():
    c = luders(qubit_binary(0.8, AXIS_Z))
    for t in (np.eye(3), np.ones(2), np.ones((4, 3, 3))):
        with pytest.raises(ValueError, match="does not match dim_out"):
            heisenberg_apply(c, t)
        with pytest.raises(ValueError, match="does not match dim_out"):
            heisenberg_branch(c, (1,), t)


@st.composite
def partitioned_channels(draw):
    """A random instrument, some of whose branches may own no Kraus
    operator, with a state on its input and a stack of output operators."""
    d_in, d_out, n = (draw(st.integers(1, 4)) for _ in range(3))
    n_labels = draw(st.integers(1, 3))
    owner = [draw(st.integers(0, n_labels - 1)) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ks = rng.normal(size=(n, d_out, d_in)) + 1j * rng.normal(size=(n, d_out, d_in))
    part = {(x,): tuple(i for i in range(n) if owner[i] == x) for x in range(n_labels)}
    g = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    rho = g @ dagger(g)
    m = draw(st.integers(1, 3))
    ts = rng.normal(size=(m, d_out, d_out)) + 1j * rng.normal(size=(m, d_out, d_out))
    return KrausChannel(d_in, d_out, tuple(ks), part), rho / np.trace(rho), ts


def close(got, want):
    """Equal up to the roundoff of a reordered sum: a few dozen products of
    O(1) entries move it far less than 1e-12 of the largest entry."""
    want = np.asarray(want)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


@settings(derandomize=True, deadline=None, max_examples=150)
@given(partitioned_channels())
def test_batched_actions_match_the_kraus_sums(problem):
    c, rho, ts = problem
    ks = list(c.kraus)

    def dual(ops, t):
        return sum((dagger(k) @ t @ k for k in ops), np.zeros((c.dim_in,) * 2))

    def schroedinger(ops):
        return sum((k @ rho @ dagger(k) for k in ops), np.zeros((c.dim_out,) * 2))

    assert close(apply(c, rho), schroedinger(ks))
    assert close(heisenberg_apply(c, ts[0]), dual(ks, ts[0]))
    whole = heisenberg_apply(c, ts)
    assert close(whole, [dual(ks, t) for t in ts])
    branch_duals, branch_states = 0, 0
    for lbl, idx in c.partition.items():
        got = heisenberg_branch(c, lbl, ts)
        assert close(got, [dual([ks[i] for i in idx], t) for t in ts])
        out = apply_branch(c, lbl, rho)
        assert close(out, schroedinger([ks[i] for i in idx]))
        branch_duals, branch_states = branch_duals + got, branch_states + out
    assert close(branch_duals, whole)
    assert close(branch_states, apply(c, rho))
    vecs = [k.reshape(-1) for k in ks]
    assert close(choi(c), sum(np.outer(v, v.conj()) for v in vecs))
    env = np.eye(len(ks))
    assert np.array_equal(
        stinespring(c), sum(np.kron(k, env[:, [e]]) for e, k in enumerate(ks))
    )
    # conjugate Kraus operator a has row e equal to row a of K_e
    cc = conjugate(c)
    assert (cc.dim_in, cc.dim_out) == (c.dim_in, len(ks))
    assert all(
        np.array_equal(cc.kraus[a][e], ks[e][a])
        for a in range(c.dim_out) for e in range(len(ks))
    )


# --- Choi ----------------------------------------------------------------

def test_choi_of_identity_is_maximally_entangled():
    j = choi(identity_channel(2))
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0
    assert np.allclose(j, np.outer(v, v.conj()))


def test_choi_of_depolarizing_is_flat():
    kraus = tuple(m / 2 for m in (EYE, SIGMA_X, SIGMA_Y, SIGMA_Z))
    c = KrausChannel(2, 2, kraus)
    assert np.allclose(choi(c), np.eye(4) / 2, atol=1e-12)


def test_choi_output_trace_is_identity():
    c = random_channel(3, 2, 3)
    j = choi(c)
    assert j.shape == (c.dim_out * c.dim_in,) * 2
    reduced = np.einsum("ijik->jk", j.reshape(c.dim_out, c.dim_in, c.dim_out, c.dim_in))
    assert np.allclose(reduced, np.eye(3), atol=1e-12)


def test_choi_reproduces_action():
    # Lambda(rho) = Tr_in[ J (I (x) rho^T) ]
    c = random_channel(2, 3, 2)
    j = choi(c)
    rho = random_state(2)
    lifted = j @ np.kron(np.eye(3), rho.T)
    assert np.allclose(
        np.einsum("ijkj->ik", lifted.reshape(3, 2, 3, 2)), apply(c, rho), atol=1e-12
    )


# --- constructors --------------------------------------------------------

def test_luders_kraus_are_roots():
    a = qubit_binary(0.8, AXIS_Z)
    c = luders(a)
    for k, eff in zip(c.kraus, a.effects):
        assert np.allclose(k @ k, eff, atol=1e-12)
    assert is_trace_preserving(c)


def test_classical_channel_of_binary():
    b = qubit_binary(0.6, AXIS_X)
    c = classical_channel(b)
    out = apply(c, np.diag([1.0, 0.0]))
    assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-12)
    assert is_trace_preserving(c)
    # pointer order follows label order: index 0 is outcome (-1,)
    rho_plus = (EYE + SIGMA_X) / 2
    out = apply(c, rho_plus)
    assert np.allclose(out, np.diag([0.2, 0.8]), atol=1e-12)


def test_classical_channel_of_trivial_prepares_point_mass():
    c = classical_channel(trivial(2))
    assert c.dim_out == 1
    assert np.allclose(apply(c, random_state(2)), [[1.0]], atol=1e-12)


def test_classical_channel_branch_traces_give_marginal():
    # readout on axis 1: branches are labeled by axis 0 and trace to its
    # marginal
    m = refinement_joint(qubit_binary(0.8, AXIS_Z))
    c = classical_channel(m, readout_axes=(1,))
    a, b = marginals(m)
    assert effects_close(branch_observable(c), a, tol=1e-12)
    rho = random_state(2)
    expected = sum(
        np.trace(rho @ eff).real * np.outer(np.eye(2)[i], np.eye(2)[i])
        for i, eff in enumerate(b.effects)
    )
    assert np.allclose(apply(c, rho), expected, atol=1e-12)


def test_classical_channel_skips_null_directions():
    # rank-one effects contribute a single Kraus operator each
    p = qubit_binary(1.0, AXIS_Z)
    c = classical_channel(p)
    assert len(c.kraus) == 2


def test_classical_channel_keeps_a_branch_for_every_outcome():
    # the refinement joint of a binary has two zero effects, and the
    # readout joint below has a whole branch of them
    full = refinement_joint(qubit_binary(0.8, AXIS_Z))
    zero = np.zeros((2, 2))
    half = Povm(2, (((0, 0), EYE / 2), ((0, 1), EYE / 2), ((1, 0), zero), ((1, 1), zero)))
    for m, axes, kept in ((full, None, full), (half, (1,), marginal(half, 0))):
        c = classical_channel(m, readout_axes=axes)
        assert c.labels == kept.labels
        assert effects_close(branch_observable(c), kept, tol=1e-12)
        back = channel_from_json(json.loads(json.dumps(channel_to_json(c))))
        assert back.partition == c.partition
        assert () in back.partition.values()


def test_classical_channel_readout_axes_validation():
    b = qubit_binary(0.6, AXIS_X)
    with pytest.raises(ValueError):
        classical_channel(b, readout_axes=(0,))
    # the rule of `marginal`: axes in range and free of repeats
    c = four_outcome_refinement(0.8)
    for axes in ((-1,), (0, 0), (5,)):
        with pytest.raises(ValueError):
            classical_channel(c, readout_axes=axes)


def test_constructions_refuse_an_effect_that_is_not_psd():
    # A(0) dips 1e-8 below zero, past RANK_TOL: dropping that direction, as
    # classical_channel once did, would measure another observable
    a = Povm(2, [((0,), np.diag([1 + 1e-8, -1e-8])), ((1,), np.diag([0.0, 1.0]))])
    for build in (classical_channel, luders, naimark_minimal, naimark_canonical):
        with pytest.raises(ValueError, match="PSD"):
            build(a)


# --- Stinespring and conjugate -------------------------------------------

def test_stinespring_is_isometry():
    c = random_channel(3, 2, 4)
    v = stinespring(c)
    assert v.shape == (2 * 4, 3)
    assert np.allclose(dagger(v) @ v, np.eye(3), atol=1e-12)


def test_stinespring_reductions():
    c = random_channel(2, 3, 3)
    v = stinespring(c)
    rho = random_state(2)
    lifted = (v @ rho @ dagger(v)).reshape((c.dim_out, len(c.kraus)) * 2)
    assert np.allclose(
        np.einsum("ijkj->ik", lifted),
        apply(c, rho),
        atol=1e-12,
    )
    assert np.allclose(
        np.einsum("ijik->jk", lifted),
        apply(conjugate(c), rho),
        atol=1e-12,
    )


def test_conjugate_dimensions():
    c = random_channel(2, 3, 4)
    cc = conjugate(c)
    assert (cc.dim_in, cc.dim_out) == (2, 4)
    assert is_trace_preserving(cc)


def test_conjugate_of_unitary_is_constant():
    u = np.linalg.qr(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))[0]
    cc = conjugate(KrausChannel(2, 2, (u,)))
    assert cc.dim_out == 1
    assert np.allclose(apply(cc, random_state(2)), [[1.0]], atol=1e-12)


def test_conjugate_of_sharp_luders_reads_outcome():
    c = conjugate(luders(qubit_binary(1.0, AXIS_Z)))
    plus = (EYE + SIGMA_X) / 2
    assert np.allclose(apply(c, plus), EYE / 2, atol=1e-12)


def test_conjugate_schmidt_symmetry():
    # for a pure input both reductions of V rho V^dag share their spectrum
    c = random_channel(3, 4, 3)
    psi = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    out = np.linalg.eigvalsh(apply(c, rho))
    env = np.linalg.eigvalsh(apply(conjugate(c), rho))
    out = np.sort(out[out > 1e-12])
    env = np.sort(env[env > 1e-12])
    assert np.allclose(out, env, atol=1e-10)


# --- nondisturbance ------------------------------------------------------

def test_identity_disturbs_nothing():
    b = qubit_binary(0.6, theta_axis(0.7))
    assert nondisturbing(identity_channel(2), b)


def test_unsharp_z_luders_keeps_parallel_observable():
    c = luders(qubit_binary(0.8, AXIS_Z))
    assert nondisturbing(c, qubit_binary(0.6, AXIS_Z))


def test_unsharp_z_luders_disturbs_transverse_observable():
    c = luders(qubit_binary(0.8, AXIS_Z))
    assert not nondisturbing(c, qubit_binary(0.6, AXIS_X))


def test_nondisturbing_dimension_checks():
    with pytest.raises(ValueError):
        nondisturbing(random_channel(2, 3, 2), qubit_binary(0.5, AXIS_Z))
    with pytest.raises(ValueError):
        nondisturbing(identity_channel(3), qubit_binary(0.5, AXIS_Z))
