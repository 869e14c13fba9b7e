"""Tests for the feasibility solvers: channel questions, joint searches, recovery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqmeas import feasibility
from seqmeas.channels import (
    KrausChannel,
    classical_channel,
    conjugate,
    heisenberg_apply,
    identity_channel,
    luders,
)
from seqmeas.feasibility import (
    DEFAULT_OPTIONS,
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    FeasibilityError,
    NecessaryConditionError,
    SolverOptions,
    busch_criterion,
    busch_value,
    conjugate_is_b_channel,
    find_joint_observable,
    is_a_channel,
    orthogonal_joint_observable,
    recover_b_prime,
    witness_povm,
)
from seqmeas.feasibility import _Marginals, _support_pins
from seqmeas.harness import BOUNDARY_MARGIN, GRID_ANGLES, GRID_POINTS
from seqmeas.linalg import CERTIFICATE_SLACK
from seqmeas.povm import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    Povm,
    effects_close,
    four_outcome_refinement,
    marginal,
    noisy_spin_triplet,
    qubit_binary,
    trivial,
    validate,
)
from seqmeas.sequential import modified_observable, universal_channel, verify_sequential

A08 = qubit_binary(0.8, AXIS_Z)
B06 = qubit_binary(0.6, AXIS_X)
B07 = qubit_binary(0.7, AXIS_X)
C08 = four_outcome_refinement(0.8)


def tilted_axis(theta):
    return np.array([math.sin(theta), 0.0, math.cos(theta)])


# ---------------------------------------------------------------- criterion


def test_busch_value_boundary_pair_is_exactly_one():
    assert busch_value(0.8, 0.6, math.pi / 2) == 1.0
    assert busch_criterion(0.8, 0.6, math.pi / 2)


def test_busch_value_rejects_incompatible_pair():
    v = busch_value(0.8, 0.7, math.pi / 2)
    assert v == pytest.approx(1.13, abs=1e-12)
    assert not busch_criterion(0.8, 0.7, math.pi / 2)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("t", [0.2, 0.7, 1.0])
def test_parallel_axes_always_compatible(s, t):
    # s^2 + t^2 - s^2 t^2 = 1 - (1 - s^2)(1 - t^2) <= 1
    assert busch_criterion(s, t, 0.0)


@pytest.mark.parametrize(
    "s,t,theta",
    [
        (0.0, 0.5, 0.1),
        (1.1, 0.5, 0.1),
        (0.5, -0.2, 0.1),
        (0.5, 0.5, -0.1),
        (0.5, 0.5, math.pi / 2 + 0.1),
    ],
)
def test_busch_value_rejects_out_of_range_arguments(s, t, theta):
    with pytest.raises(ValueError):
        busch_value(s, t, theta)


# ----------------------------------------------------- closed-form joints


def test_orthogonal_joint_is_valid_with_exact_marginals():
    j = orthogonal_joint_observable(0.6, 0.6)
    assert validate(j)
    assert effects_close(marginal(j, 0), qubit_binary(0.6, AXIS_Z), tol=1e-12)
    assert effects_close(marginal(j, 1), qubit_binary(0.6, AXIS_X), tol=1e-12)


def test_orthogonal_joint_effect_spectrum():
    # each effect is (1/4)(I + m.sigma) with |m| = hypot(s, t)
    j = orthogonal_joint_observable(0.3, 0.5)
    r = math.hypot(0.3, 0.5)
    for eff in j.effects:
        lo, hi = np.linalg.eigvalsh(eff)
        assert lo == pytest.approx(0.25 * (1 - r), abs=1e-12)
        assert hi == pytest.approx(0.25 * (1 + r), abs=1e-12)


def test_orthogonal_joint_on_the_unit_circle_is_rank_one():
    j = orthogonal_joint_observable(0.6, 0.8)
    assert validate(j)
    assert max(np.linalg.eigvalsh(e)[0] for e in j.effects) <= 1e-12


def test_orthogonal_joint_rejects_excess_strength():
    with pytest.raises(ValueError):
        orthogonal_joint_observable(0.8, 0.8)


# ----------------------------------------------------------- channel tests


def test_partitioned_luders_channel_checks_without_iterating():
    # the branch indicators solve the Lüders channel's question exactly, so
    # the first sweep already meets tol and no second one runs
    out = is_a_channel(luders(A08), A08)
    assert out.status == FEASIBLE
    assert out.reason == "tol"
    assert out.iterations == 1
    assert out.witness is not None


def test_unpartitioned_luders_channel_needs_the_solver():
    bare = KrausChannel(2, 2, luders(A08).kraus, None)
    out = is_a_channel(bare, A08)
    assert out.status == FEASIBLE
    assert 0 < out.iterations < 200


def test_channel_witness_is_an_observable_on_the_environment():
    bare = KrausChannel(2, 2, luders(A08).kraus, None)
    out = is_a_channel(bare, A08)
    env = conjugate(bare)
    w = witness_povm(out)
    assert w.dim == env.dim_out
    assert validate(w, tol=1e-7)
    for lbl, eff in zip(A08.labels, A08.effects):
        assert np.linalg.norm(heisenberg_apply(env, w.effect(lbl)) - eff) <= 1e-7


def test_partitioned_witness_marks_the_branches():
    # the Kraus operators of luders(A08) meet in K_+^dag K_- = 0.3 I, so a
    # witness F_+ = [[a, b], [b*, c]] needs a - c = 1: the branch
    # indicators are the only observable on the environment that works
    out = is_a_channel(luders(A08), A08)
    assert out.status == FEASIBLE
    marks = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    for f, mark in zip(out.witness, marks):
        assert np.allclose(f, mark, atol=1e-7)


def test_channel_test_rejects_a_lossy_channel():
    lossy = KrausChannel(2, 2, (0.5 * np.eye(2, dtype=complex),), None)
    with pytest.raises(NecessaryConditionError, match="sum"):
        is_a_channel(lossy, A08)


def test_identity_channel_cannot_carry_an_unsharp_observable():
    out = is_a_channel(identity_channel(2), A08)
    assert out.status == INFEASIBLE
    assert out.reason == "certificate"
    assert out.infeasibility_floor >= 0.25
    assert out.witness is None


def test_classical_channel_carries_its_own_observable():
    j = orthogonal_joint_observable(0.6, 0.6)
    out = is_a_channel(classical_channel(j), j)
    assert out.status == FEASIBLE


def test_classical_channel_carries_the_marginal():
    j = orthogonal_joint_observable(0.6, 0.6)
    out = is_a_channel(classical_channel(j), marginal(j, 0))
    assert out.status == FEASIBLE


J06 = orthogonal_joint_observable(0.6, 0.6)


@pytest.mark.parametrize(
    "c, a",
    [
        (luders(A08), A08),
        (universal_channel(A08), A08),
        (classical_channel(J06), J06),
        (identity_channel(2), A08),
    ],
    ids=["luders", "universal", "classical", "identity"],
)
def test_channel_test_is_the_conjugate_test_of_the_conjugate(c, a):
    out = is_a_channel(c, a)
    ref = conjugate_is_b_channel(conjugate(c), a)
    assert (out.status, out.reason, out.iterations) == (ref.status, ref.reason, ref.iterations)
    assert out.residual == ref.residual


def test_channel_test_requires_matching_input_dimension():
    bare = KrausChannel(2, 2, luders(A08).kraus, None)
    with pytest.raises(ValueError, match="input"):
        is_a_channel(bare, trivial(4))


# ------------------------------------------------------- conjugate channel


def test_luders_conjugate_admits_the_transverse_observable():
    out = conjugate_is_b_channel(luders(A08), B06)
    assert out.status == FEASIBLE
    assert out.residual <= 1e-8


def test_luders_conjugate_rejects_the_refinement():
    out = conjugate_is_b_channel(luders(A08), C08)
    assert out.status == INFEASIBLE
    assert out.reason == "certificate"
    assert out.infeasibility_floor >= 1e-3
    assert type(out.infeasibility_floor) is float


def test_any_conjugate_admits_the_trivial_observable():
    out = conjugate_is_b_channel(luders(A08), trivial(2))
    assert out.status == FEASIBLE


@pytest.mark.parametrize(
    "axis", [AXIS_X, tilted_axis(math.pi / 6)], ids=["x", "tilted"]
)
def test_luders_conjugate_reaches_a_transverse_target(axis):
    # the transverse part of either target is at most 0.5 < sqrt(1 - 0.8**2),
    # so the later observable exists
    lam = luders(A08)
    b = qubit_binary(0.5, axis)
    out = conjugate_is_b_channel(lam, b)
    assert out.status == FEASIBLE
    assert verify_sequential(lam, witness_povm(out), b, tol=1e-6)


def test_universal_conjugate_admits_the_refinement():
    out = conjugate_is_b_channel(universal_channel(A08), C08)
    assert out.status == FEASIBLE
    assert out.iterations < 500


def test_conjugate_test_ignores_the_kraus_presentation():
    # mixing the Kraus operators by a unitary leaves the channel alone
    k = luders(A08).kraus
    mixed = KrausChannel(
        2, 2, ((k[0] + k[1]) / math.sqrt(2), (k[0] - k[1]) / math.sqrt(2)), None
    )
    for obs in (B06, C08):
        a = conjugate_is_b_channel(luders(A08), obs)
        b = conjugate_is_b_channel(mixed, obs)
        assert a.status == b.status


# ----------------------------------------------------------------- recovery


def test_recovered_observable_after_luders_is_the_sharp_transverse():
    got = recover_b_prime(luders(A08), B06)
    want = qubit_binary(1.0, AXIS_X)
    assert effects_close(got, want, tol=1e-6)


def test_recovery_through_the_identity_channel_is_the_observable_itself():
    got = recover_b_prime(identity_channel(2), B06)
    assert effects_close(got, B06, tol=1e-6)


def test_recovery_of_the_trivial_observable_is_trivial():
    got = recover_b_prime(luders(A08), trivial(2))
    assert effects_close(got, trivial(2), tol=1e-8)


def test_recovered_refinement_measures_through_the_universal_channel():
    uni = universal_channel(A08)
    got = recover_b_prime(uni, C08)
    assert validate(got, tol=1e-7)
    assert verify_sequential(uni, got, C08, tol=1e-7)


def test_recovery_refuses_an_unreachable_observable():
    with pytest.raises(FeasibilityError, match="conjugate-channel"):
        recover_b_prime(luders(A08), C08)


# -------------------------------------------------------------- joint search


def test_boundary_pair_joint_found_in_one_sweep():
    out = find_joint_observable(A08, B06)
    assert out.status == FEASIBLE
    assert out.iterations == 1
    assert out.residual <= 1e-12
    w = witness_povm(out)
    assert validate(w, tol=1e-8)
    assert effects_close(marginal(w, 0), A08, tol=1e-8)
    assert effects_close(marginal(w, 1), B06, tol=1e-8)


def test_transverse_pair_starts_at_its_closed_form_joint():
    # the Jordan product of transverse unbiased binaries is the joint
    out = find_joint_observable(qubit_binary(0.6, AXIS_Z), qubit_binary(0.8, AXIS_X))
    assert (out.status, out.iterations) == (FEASIBLE, 1)
    assert effects_close(witness_povm(out), orthogonal_joint_observable(0.6, 0.8), tol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(2, 4), st.lists(st.integers(2, 3), min_size=2, max_size=3),
       st.integers(0, 2**32 - 1))
def test_the_joint_search_starts_on_every_marginal(d, sizes, seed):
    # independent random observables: the first marginal of an n x 1 joint
    rng = np.random.default_rng(seed)
    shapes = [(n, d, d) for n in sizes]
    observables = [
        _wishart_pair(rng.normal(size=s) + 1j * rng.normal(size=s), s[0], 1)[0] for s in shapes
    ]
    starts = []
    solve = feasibility._solve

    def spy(grid, dim, families, opts, labels, start=None):
        starts.append(start)
        return solve(grid, dim, families, opts, labels, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "_solve", spy)
        find_joint_observable(*observables, opts=SolverOptions(max_iters=1))
    blocks = starts[0].reshape(tuple(sizes) + (d, d))
    for i, o in enumerate(observables):
        others = tuple(j for j in range(len(sizes)) if j != i)
        assert np.abs(blocks.sum(axis=others) - o.effects).max() <= 1e-12


def test_joint_search_rejects_a_pair_past_the_boundary():
    out = find_joint_observable(A08, B07)
    assert out.status == INFEASIBLE
    assert out.reason == "certificate"
    assert out.infeasibility_floor >= 1e-2


def test_every_observable_is_compatible_with_itself():
    out = find_joint_observable(A08, A08)
    assert out.status == FEASIBLE


def test_sharp_observable_with_itself_pins_the_off_cells():
    sharp = qubit_binary(1.0, AXIS_Z)
    out = find_joint_observable(sharp, sharp)
    assert (out.status, out.iterations, out.residual) == (FEASIBLE, 1, 0.0)
    assert out.witness_labels == ((-1, -1), (-1, 1), (1, -1), (1, 1))
    assert np.abs(out.witness[1]).max() <= 1e-7
    assert np.abs(out.witness[2]).max() <= 1e-7


def test_orthogonal_sharp_observables_are_incompatible():
    out = find_joint_observable(
        qubit_binary(1.0, AXIS_Z), qubit_binary(1.0, AXIS_X)
    )
    assert out.status == INFEASIBLE
    assert out.infeasibility_floor >= 0.1


def test_spin_triplet_pairwise_but_not_triplewise():
    x, y, z = noisy_spin_triplet(0.65)
    for p, q in ((x, y), (x, z), (y, z)):
        assert find_joint_observable(p, q).status == FEASIBLE
    out = find_joint_observable(x, y, z)
    assert out.status == INFEASIBLE
    assert out.reason == "certificate"
    assert out.infeasibility_floor >= 0.05


def test_weaker_spin_triplet_is_jointly_measurable():
    out = find_joint_observable(*noisy_spin_triplet(0.55))
    assert out.status == FEASIBLE
    w = witness_povm(out)
    assert validate(w, tol=1e-8)
    for axis_index, obs in enumerate(noisy_spin_triplet(0.55)):
        assert effects_close(marginal(w, axis_index), obs, tol=1e-8)


def test_joint_search_arity_guards():
    with pytest.raises(ValueError, match="two"):
        find_joint_observable(A08)
    with pytest.raises(ValueError, match="three"):
        find_joint_observable(A08, A08, A08, A08)


def test_three_way_search_is_limited_to_small_dimension():
    wide = Povm(
        5,
        (
            ((1,), 0.5 * np.eye(5, dtype=complex)),
            ((-1,), 0.5 * np.eye(5, dtype=complex)),
        ),
    )
    with pytest.raises(ValueError, match="dimension"):
        find_joint_observable(wide, wide, wide)


def test_joint_search_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        find_joint_observable(A08, trivial(4))


def test_joint_search_rejects_mismatched_effect_sums():
    lossy = Povm(
        2,
        (
            ((1,), 0.45 * np.eye(2, dtype=complex)),
            ((-1,), 0.45 * np.eye(2, dtype=complex)),
        ),
    )
    with pytest.raises(NecessaryConditionError, match="sums"):
        find_joint_observable(A08, lossy)


def _scaled(p: Povm, factor: float) -> Povm:
    return Povm(p.dim, zip(p.labels, factor * p.effects))


_LOSSY = KrausChannel(2, 2, (0.5 * np.eye(2, dtype=complex),), None)


@pytest.mark.parametrize(
    "question, refuted",
    [
        (lambda: find_joint_observable(A08, _scaled(B06, 0.9)), True),
        (lambda: find_joint_observable(A08, B06, _scaled(B07, 1.1)), True),
        (lambda: conjugate_is_b_channel(_LOSSY, A08), True),
        (lambda: is_a_channel(_LOSSY, A08), True),
        # c*(I) = I / 4, and B = A08 / 4 sums to it: F = A08 works
        (lambda: conjugate_is_b_channel(_LOSSY, _scaled(A08, 0.25)), False),
    ],
    ids=["pair", "triple", "lossy-conjugate", "lossy-channel", "lossy-matched"],
)
def test_targets_must_sum_to_the_image_of_the_total(question, refuted):
    if refuted:
        with pytest.raises(NecessaryConditionError, match="sums"):
            question()
    else:
        assert question().status == FEASIBLE


def test_a_nan_target_fails_the_necessary_check():
    # a NaN defect compares False with every bound, so the check must ask
    # whether the defect is small enough, not whether it is too large;
    # `Povm` refuses NaN effects, so the families go to `_solve` directly
    spoiled = A08.effects.copy()
    spoiled[0, 0, 1] = math.nan
    eye = np.eye(2, dtype=complex)
    # the families of the joint search and of the conjugate test
    for grid, families in (
        ((2, 2), [((0,), spoiled, None), ((1,), B06.effects, None)]),
        ((2,), [((), eye[None], None), ((0,), spoiled, luders(A08).kraus)]),
    ):
        with pytest.raises(NecessaryConditionError, match="sums"):
            feasibility._solve(grid, 2, families, DEFAULT_OPTIONS, None)


@pytest.mark.parametrize("case", range(5))
def test_randomized_compatible_pairs_yield_valid_witnesses(case):
    rng = np.random.default_rng(1000 + case)
    while True:
        s, t = rng.uniform(0.1, 0.95, size=2)
        theta = rng.uniform(0.0, math.pi / 2)
        if busch_value(s, t, theta) <= 0.98:
            break
    a = qubit_binary(s, AXIS_Z)
    b = qubit_binary(t, tilted_axis(theta))
    out = find_joint_observable(a, b)
    assert out.status == FEASIBLE
    w = witness_povm(out)
    assert validate(w, tol=1e-6)
    assert effects_close(marginal(w, 0), a, tol=1e-6)
    assert effects_close(marginal(w, 1), b, tol=1e-6)


@pytest.mark.parametrize("case", range(5))
def test_randomized_incompatible_pairs_report_a_floor(case):
    rng = np.random.default_rng(2000 + case)
    while True:
        s, t = rng.uniform(0.1, 0.95, size=2)
        theta = rng.uniform(0.0, math.pi / 2)
        if busch_value(s, t, theta) >= 1.05:
            break
    out = find_joint_observable(qubit_binary(s, AXIS_Z), qubit_binary(t, tilted_axis(theta)))
    assert out.status == INFEASIBLE
    assert out.infeasibility_floor >= 1e-3


# ------------------------------------------------------------ outcome shape


def test_outcome_bookkeeping_on_a_feasible_run():
    bare = KrausChannel(2, 2, luders(A08).kraus, None)
    out = is_a_channel(bare, A08)
    assert out.feasible
    assert out.infeasibility_floor is None
    assert len(out.residual_history) == out.iterations
    hist = out.residual_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert hist[-1] == out.residual


def test_budget_exhaustion_is_reported_as_undecided():
    # a compatible pair the solver needs 62 sweeps for
    a, b = _rank_one_pair(1)
    out = find_joint_observable(a, b, opts=SolverOptions(max_iters=5))
    assert out.status == UNDECIDED
    assert not out.feasible
    assert out.witness is None
    assert out.infeasibility_floor is None
    assert out.iterations == 5


def _wishart_pair(g: np.ndarray, na: int, nb: int) -> tuple[Povm, Povm]:
    """The marginals of the joint whose na x nb blocks (row-major) are
    g_k g_k^dag, rescaled by S^(-1/2) on both sides for their sum S:
    compatible by construction, with joint blocks of rank at most the
    column count of g."""
    d = g.shape[1]
    blocks = g @ np.conj(np.swapaxes(g, 1, 2))
    w, v = np.linalg.eigh(blocks.sum(axis=0))
    isq = (v * w**-0.5) @ np.conj(v.T)
    m = isq @ blocks @ isq
    m = ((m + np.conj(np.swapaxes(m, 1, 2))) / 2).reshape(na, nb, d, d)
    a = Povm(d, tuple(((x,), m[x].sum(axis=0)) for x in range(na)))
    b = Povm(d, tuple(((y,), m[:, y].sum(axis=0)) for y in range(nb)))
    return a, b


def _rank_one_pair(draw: int) -> tuple[Povm, Povm]:
    """The marginals of the draw-th Wishart joint at seed 7 (d = 3, 2 x 3
    outcomes, one column each): effects of rank 2 whose joint blocks have
    rank one inside their supports, so the solutions sit on a face the
    pins do not cut out."""
    rng = np.random.default_rng(7)
    for _ in range(draw):
        g = rng.normal(size=(6, 3, 1)) + 1j * rng.normal(size=(6, 3, 1))
    return _wishart_pair(g, 2, 3)


@pytest.mark.parametrize("draw", range(1, 7))
def test_rank_one_joint_is_decided_feasible(draw):
    # unaccelerated sweeps converge sublinearly on this face and stall
    # above tolerance after tens of thousands of sweeps; a stall must never
    # turn into INFEASIBLE, and acceleration should not stall at all
    a, b = _rank_one_pair(draw)
    out = find_joint_observable(a, b, opts=SolverOptions(tol=1e-10))
    assert out.status == FEASIBLE
    assert out.certificate is None
    assert out.iterations <= 500


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.integers(2, 4), st.integers(2, 3), st.integers(2, 3), st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
def test_compatible_rank_deficient_pairs_are_never_refuted(d, na, nb, cols, seed):
    # the joint search and, after the universal channel of a, the search
    # for the later observable recovering b: both have solutions, so
    # neither may end infeasible or produce a certificate; a joint found
    # must yield a B' that recovers b
    rng = np.random.default_rng(seed)
    shape = (na * nb, d, cols)
    a, b = _wishart_pair(rng.normal(size=shape) + 1j * rng.normal(size=shape), na, nb)
    tight = SolverOptions(tol=1e-10)
    uni = universal_channel(a)
    joint = find_joint_observable(a, b, opts=tight)
    for out in (joint, conjugate_is_b_channel(uni, b, opts=tight)):
        assert out.status != INFEASIBLE
        assert out.certificate is None
    if joint.status == FEASIBLE:
        b_prime = modified_observable(a, witness_povm(joint))
        assert validate(b_prime, tol=1e-12)
        assert verify_sequential(uni, b_prime, b)


NEARLY_SHARP = qubit_binary(1 - 2e-10, AXIS_Z)


@pytest.mark.parametrize(
    "b, tol",
    [
        # the effects' 1e-10 eigenvalues fall below the rank tolerance, so
        # the face misses them and its residual stays near 2e-10, above tol
        (NEARLY_SHARP, 1e-10),
        # s^2 + t^2 < 1: every face block is diagonal and misses B's
        # transverse parts by about t, while a true joint reaches them
        # through off-diagonal terms of order sqrt(1e-10) on the cut
        # directions, so a bound of order t proves nothing either
        (qubit_binary(1e-5, AXIS_X), 1e-8),
        (qubit_binary(1e-6, AXIS_X), 1e-8),
    ],
)
def test_rank_cut_alone_never_yields_a_certificate(b, tol):
    out = find_joint_observable(NEARLY_SHARP, b, opts=SolverOptions(tol=tol))
    assert out.status != INFEASIBLE
    assert out.certificate is None


def test_rank_cut_still_certifies_a_pair_past_the_boundary():
    # s^2 + t^2 = 1 + 1e-6: the face misses B by 1e-3, far beyond what the
    # cut eigenvalues let a solution reach
    out = find_joint_observable(NEARLY_SHARP, qubit_binary(1e-3, AXIS_X))
    assert out.status == INFEASIBLE
    assert out.reason == "certificate"


def test_witness_povm_requires_a_labeled_witness():
    out = find_joint_observable(A08, B07)
    with pytest.raises(ValueError, match="witness"):
        witness_povm(out)


def test_default_options():
    assert DEFAULT_OPTIONS.tol == 1e-8
    assert DEFAULT_OPTIONS.max_iters == 50_000
    assert [f.name for f in dataclasses.fields(SolverOptions)] == ["tol", "max_iters"]
    # the stall and certificate settings are constants, yet stay readable
    # on an instance
    assert DEFAULT_OPTIONS.stall_window == 500
    assert DEFAULT_OPTIONS.stall_delta == 1e-12
    assert DEFAULT_OPTIONS.infeasible_ratio == 10.0
    with pytest.raises(TypeError):
        SolverOptions(stall_window=1)


@pytest.mark.parametrize(
    "setting",
    [{"tol": math.nan}, {"tol": -1.0}, {"tol": math.inf}, {"max_iters": 0}, {"max_iters": -3}],
    ids=["nan-tol", "negative-tol", "infinite-tol", "zero-max-iters", "negative-max-iters"],
)
def test_options_refuse_settings_no_run_can_meet(setting):
    # accepted, a NaN or negative tol ran out the budget with a residual
    # of 0.0, and max_iters=0 reported a residual of inf
    with pytest.raises(ValueError, match=next(iter(setting))):
        SolverOptions(**setting)
    assert SolverOptions(tol=0.0, max_iters=1).tol == 0.0


# ------------------------------------------------- recovery consistency


@pytest.mark.parametrize("strength,axis", [(0.6, AXIS_X), (0.9, AXIS_Y)])
def test_recovery_agrees_with_the_conjugate_test(strength, axis):
    # a transverse target is reachable after the Luders channel exactly
    # when strength**2 + 0.8**2 <= 1
    reachable = strength**2 + 0.8**2 <= 1 + 1e-12
    lam = luders(A08)
    b = qubit_binary(strength, axis)
    pre = conjugate_is_b_channel(lam, b)
    assert pre.status == (FEASIBLE if reachable else INFEASIBLE)
    assert pre.reason == ("tol" if reachable else "certificate")
    if reachable:
        got = recover_b_prime(lam, b)
        assert verify_sequential(lam, got, b, tol=1e-6)
    else:
        with pytest.raises(FeasibilityError):
            recover_b_prime(lam, b)


@pytest.mark.parametrize("draw", [4, 16, 60])
def test_recovery_after_a_rank_one_joint(draw):
    # Wishart joint effects with one column each, as in the benchmark's
    # rank-one stream; these draws leave roundoff-level eigenvalues in the
    # Gram matrix of the dual map, which its pseudo-inverse must drop
    rng = np.random.default_rng(20140217)
    for _ in range(draw):
        g = rng.normal(size=(4, 4, 1)) + 1j * rng.normal(size=(4, 4, 1))
        blocks = g @ np.conj(np.swapaxes(g, 1, 2))
        w, v = np.linalg.eigh(blocks.sum(axis=0))
        isq = (v * w**-0.5) @ np.conj(v.T)
        m = isq @ blocks @ isq
        m = ((m + np.conj(np.swapaxes(m, 1, 2))) / 2).reshape(2, 2, 4, 4)
    a = Povm(4, tuple(((x,), m[x].sum(axis=0)) for x in range(2)))
    b = Povm(4, tuple(((y,), m[:, y].sum(axis=0)) for y in range(2)))
    uni = universal_channel(a)
    got = recover_b_prime(uni, b)
    assert verify_sequential(uni, got, b, tol=1e-6)


def test_conjugate_of_the_universal_channel_reaches_the_first_marginal():
    # reading the later observable must not disturb the branch record
    uni = universal_channel(A08)
    out = conjugate_is_b_channel(uni, A08)
    assert out.status == FEASIBLE
    got = recover_b_prime(uni, A08)
    assert verify_sequential(uni, got, A08, tol=1e-7)


# ------------------------------------------------------- the constraint set


@st.composite
def marginal_problems(draw):
    """A grid, kept axes, an optional Kraus map and a sampler of grid points."""
    grid = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    keep = tuple(i for i in range(len(grid)) if draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_in = draw(st.integers(1, 3))
    kraus = None
    d_out = d_in
    if draw(st.booleans()):
        d_out = draw(st.integers(1, 3))
        shape = (draw(st.integers(1, 3)), d_out, d_in)
        u, _, vh = np.linalg.svd(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        # singular values in [0.5, 1] keep the map well conditioned, so
        # roundoff stays far below the tolerances checked
        sv = rng.uniform(0.5, 1.0, size=(shape[0], min(d_out, d_in)))
        kraus = (u[..., : sv.shape[1]] * sv[:, None]) @ vh[:, : sv.shape[1]]

    def point():
        shape = (math.prod(grid), d_out, d_out)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return grid, keep, kraus, point


def _read(grid, keep, kraus, x):
    """The kept marginals of x read through the map, one per kept cell."""
    sums = x.reshape(grid + x.shape[1:]).sum(
        axis=tuple(i for i in range(len(grid)) if i not in keep)
    )
    sums = sums.reshape((-1,) + x.shape[1:])
    if kraus is None:
        return sums
    return sum(np.conj(k.T) @ sums @ k for k in kraus)


def _universal_problem(d, grid):
    """The universal channel of a random full-rank 3-outcome observable on
    C^d (three Kraus operators into C^(3d)), read on `grid` keeping axis 0."""
    rng = np.random.default_rng(d)
    g = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    grams = g @ np.conj(np.swapaxes(g, 1, 2))
    vals, vecs = np.linalg.eigh(grams.sum(axis=0))
    root = (vecs / np.sqrt(vals)) @ np.conj(vecs.T)
    a = Povm(d, zip(range(3), root @ grams @ root))
    kraus = universal_channel(a).kraus

    def point():
        shape = (math.prod(grid), 3 * d, 3 * d)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return grid, (0,), kraus, point


@settings(derandomize=True, deadline=None, max_examples=200)
@given(marginal_problems())
@example(_universal_problem(4, (2, 3)))
@example(_universal_problem(8, (2,)))
def test_marginals_projection_is_the_orthogonal_projection(problem):
    grid, keep, kraus, point = problem
    # targets read off a point of the grid, so the set is never empty
    targets = _read(grid, keep, kraus, point())
    cset = _Marginals(grid, keep, list(targets), kraus)
    x = point()
    px, z = cset.project(x)
    assert np.linalg.norm(_read(grid, keep, kraus, px) - targets) <= 1e-10
    assert cset.violation(px) <= 1e-10
    assert np.linalg.norm(cset.project(px)[0] - px) <= 1e-10
    # x - P(x) is normal to every direction P(z) - P(x) inside the set
    direction = cset.project(point())[0] - px
    normal = x - px
    scale = max(1.0, np.linalg.norm(normal) * np.linalg.norm(direction))
    assert abs(np.vdot(normal, direction)) <= 1e-10 * scale
    # the multiplier reproduces the step, and adjoint is the adjoint map
    blocks = grid + x.shape[1:]
    assert np.linalg.norm(x.reshape(blocks) + cset.adjoint(z) - px.reshape(blocks)) <= 1e-10
    probe = z + 1j * z[::-1]
    lhs = np.vdot(np.broadcast_to(cset.adjoint(probe), blocks), x)
    rhs = np.vdot(probe.reshape(targets.shape), _read(grid, keep, kraus, x))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_off_range_is_the_unreachable_part_of_the_targets():
    # two Kraus operators C^3 -> C^2: the map reaches at most 4 of the 9
    # dimensions of the 3 x 3 matrices, so its Gram operator is singular
    rng = np.random.default_rng(5)
    kraus = rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3))
    targets = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    cset = _Marginals((2,), (0,), targets, kraus)
    off = cset.off_range
    assert off.shape == (2, 9)
    assert np.linalg.norm(off) > 0.1 * np.linalg.norm(targets)
    # the matrix of the map on row-major vec, one column per basis matrix
    basis = np.eye(4).reshape(4, 2, 2)
    images = np.stack([_read((1,), (0,), kraus, e[None])[0].ravel() for e in basis], axis=1)
    # off_range is orthogonal to every image of the map ...
    assert np.linalg.norm(np.conj(images.T) @ off.T) <= 1e-12
    # ... and the rest of each target is the image of some block
    reach = targets.reshape(2, 9) - off
    coeffs = np.linalg.lstsq(images, reach.T, rcond=None)[0]
    assert np.linalg.norm(images @ coeffs - reach.T) <= 1e-12
    # so projecting onto the reachable targets leaves no defect
    reachable = _Marginals((2,), (0,), reach.reshape(2, 3, 3), kraus)
    x = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    assert reachable.violation(reachable.project(x)[0]) <= 1e-12
    assert _Marginals((2,), (0,), targets).off_range == 0.0


# ------------------------------------------------------------ support pins


def _wishart_targets(rng, d, ranks):
    """Wishart targets g g^dag of the given ranks on C^d, and for each an
    orthonormal basis of its kernel as columns."""
    targets, kernels = [], []
    for rank in ranks:
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        targets.append(g @ np.conj(g.T))
        kernels.append(np.linalg.svd(g)[0][:, rank:])
    return np.array(targets), kernels


@st.composite
def pin_problems(draw, full):
    """Constraint sets over Wishart targets, each of its own rank below d
    (or, when `full`, of full rank), the block dimension and, per grid cell,
    the kernel columns of every target the cell sums into, read through
    the family's map: either a joint pair on a 2-axis grid at d = 2-4, or
    the conjugate test of a target family on the universal channel of a
    random observable."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 4))

    def targets(n):
        ranks = [2 * d if full else draw(st.integers(1, d - 1)) for _ in range(n)]
        return _wishart_targets(rng, d, ranks)

    if draw(st.booleans()):
        grid = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
        (ta, ka), (tb, kb) = targets(grid[0]), targets(grid[1])
        sets = [_Marginals(grid, (0,), ta), _Marginals(grid, (1,), tb)]
        return sets, d, [[ka[x], kb[y]] for x in range(grid[0]) for y in range(grid[1])]
    shape = (4, d, d)
    a, _ = _wishart_pair(rng.normal(size=shape) + 1j * rng.normal(size=shape), 2, 2)
    kraus = universal_channel(a).kraus
    dim = kraus.shape[1]
    tb, kb = targets(draw(st.integers(2, 3)))
    grid = (len(tb),)
    sets = [_Marginals(grid, (), np.eye(dim)[None]), _Marginals(grid, (0,), tb, kraus)]
    return sets, dim, [[k @ kern for k in kraus] for kern in kb]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pin_problems(full=False))
def test_support_pins_cut_out_every_kernel_image(problem):
    sets, dim, cells = problem
    pins, reach = _support_pins(sets, dim)
    assert pins.shape == (len(cells), dim, dim)
    assert 0.0 <= reach < math.inf
    for pin, images in zip(pins, cells):
        cols = np.hstack(images)
        assert np.linalg.norm(pin - np.conj(pin.T)) <= 1e-12
        assert np.linalg.norm(pin @ pin - pin) <= 1e-12
        assert np.linalg.norm(pin @ cols, axis=0).max() <= 1e-12
        assert abs(np.trace(pin) - (dim - np.linalg.matrix_rank(cols))) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=20)
@given(pin_problems(full=True))
def test_full_rank_targets_pin_nothing(problem):
    sets, dim, _ = problem
    pins, reach = _support_pins(sets, dim)
    assert pins is None
    assert reach == 0.0


# ------------------------------------------------------------ lazy face


def _count_pins(monkeypatch) -> list:
    """Wrap `_support_pins` so that each call appends its arguments to the
    returned list."""
    calls = []
    pins = feasibility._support_pins

    def counted(*args):
        calls.append(args)
        return pins(*args)

    monkeypatch.setattr(feasibility, "_support_pins", counted)
    return calls


@pytest.mark.parametrize(
    "question",
    [
        lambda: find_joint_observable(qubit_binary(0.5, AXIS_Z), qubit_binary(0.5, AXIS_X)),
        lambda: conjugate_is_b_channel(
            luders(qubit_binary(0.5, AXIS_Z)), qubit_binary(0.6, AXIS_Z)
        ),
        # sharp targets have kernels, but the start is already the joint
        lambda: find_joint_observable(qubit_binary(1.0, AXIS_Z), qubit_binary(1.0, AXIS_Z)),
    ],
    ids=["joint", "conjugate", "sharp-self"],
)
def test_a_solve_decided_in_its_first_sweep_builds_no_face(question, monkeypatch):
    calls = _count_pins(monkeypatch)
    out = question()
    assert (out.status, out.iterations) == (FEASIBLE, 1)
    assert calls == []


def test_a_solve_past_its_first_sweep_builds_the_face_once(monkeypatch):
    calls = _count_pins(monkeypatch)
    out = find_joint_observable(*_rank_one_pair(1))
    assert (out.status, out.iterations, len(calls)) == (FEASIBLE, 62, 1)


def test_a_redone_first_sweep_certifies_on_the_face(monkeypatch):
    # the first sweep falls short, so its cone step is redone on the
    # face: the certificate at sweep 2 proves the floor it proves when
    # the face is built before the first sweep
    calls = _count_pins(monkeypatch)
    out = conjugate_is_b_channel(luders(A08), C08)
    assert (out.status, out.reason, out.iterations) == (INFEASIBLE, "certificate", 2)
    assert len(calls) == 1
    assert out.infeasibility_floor == pytest.approx(0.10264224024639092, rel=1e-12)
    assert out.infeasibility_floor <= out.residual


def _check_one_face(question):
    """Ask `question` with `_support_pins` counted: a solve decided in
    its first sweep builds no face and any other builds it once; the
    best point of an outcome that is not feasible lies on the face, so
    a certificate's floor holds below its residual."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_pins(mp)
        out = question()
    assert len(calls) == (0 if (out.status, out.iterations) == (FEASIBLE, 1) else 1)
    if out.status != FEASIBLE and out.infeasibility_floor is not None:
        assert out.infeasibility_floor <= out.residual


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pin_problems(full=False), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_a_solve_builds_the_face_at_most_once(problem, d, seed):
    # the pin problem with each family rescaled by S^(-1/2) on both sides
    # to sum to the identity, which keeps the ranks of its targets, and
    # the joint search and universal-channel test of a compatible pair
    # of rank-one joint blocks
    sets, dim, _ = problem
    families = []
    for cset in sets:
        w, v = np.linalg.eigh(cset.targets.sum(axis=0))
        assume(w[0] > 1e-6 * w[-1])
        isq = (v * w**-0.5) @ np.conj(v.T)
        families.append((cset.keep, isq @ cset.targets @ isq, cset.kraus))
    _check_one_face(
        lambda: feasibility._solve(sets[0].grid, dim, families, DEFAULT_OPTIONS, None)
    )
    rng = np.random.default_rng(seed)
    a, b = _wishart_pair(rng.normal(size=(4, d, 1)) + 1j * rng.normal(size=(4, d, 1)), 2, 2)
    _check_one_face(lambda: find_joint_observable(a, b))
    _check_one_face(lambda: conjugate_is_b_channel(universal_channel(a), b))


# ------------------------------------------------------------ certificates


def _face(kernels, dim):
    """Projector onto the complement of the span of the given columns."""
    cols = np.hstack(kernels)
    if cols.shape[1] == 0:
        return np.eye(dim)
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    u = u[:, sv > 1e-10 * sv[0]]
    return np.eye(dim) - u @ np.conj(u.T)


def _kernel(m):
    w, v = np.linalg.eigh(m)
    return v[:, np.abs(w) <= 1e-9 * max(1.0, np.abs(w).max())]


def _check_certificate(duals, faces, y, b):
    """The Farkas conditions on y, rebuilt in plain numpy: the dual blocks
    are positive on their faces and <y, b> is negative, both within the
    certificate slack.  Returns the bound -<y, b> / |y|."""
    duals = np.asarray(duals)
    lows = [np.linalg.eigvalsh(p @ d @ p)[0] for p, d in zip(faces, duals)]
    assert min(lows) >= -CERTIFICATE_SLACK * np.linalg.norm(duals)
    gap = -sum(np.vdot(yi, bi).real for yi, bi in zip(y, b))
    norm = math.sqrt(sum(np.vdot(yi, yi).real for yi in y))
    scale = math.sqrt(sum(np.vdot(bi, bi).real for bi in b))
    assert gap > CERTIFICATE_SLACK * norm * scale
    return gap / norm


def _check_joint_certificate(a, b, out):
    assert out.status == INFEASIBLE
    assert out.reason == "certificate"
    y_a, y_b = out.certificate
    assert y_a.shape == (len(a), a.dim, a.dim)
    assert y_b.shape == (len(b), b.dim, b.dim)
    duals, faces = [], []
    for i, ea in enumerate(a.effects):
        for j, eb in enumerate(b.effects):
            duals.append(y_a[i] + y_b[j])
            faces.append(_face([_kernel(ea), _kernel(eb)], a.dim))
    bound = _check_certificate(
        duals, faces, list(y_a) + list(y_b), list(a.effects) + list(b.effects)
    )
    assert bound == pytest.approx(out.infeasibility_floor, rel=1e-9)
    # the solver's best point lies on the face, so it obeys the bound
    assert out.infeasibility_floor <= out.residual * (1 + 1e-12)


def _check_preimage_certificate(channel, b, out):
    assert out.status == INFEASIBLE
    assert out.reason == "certificate"
    y_eye, y_b = out.certificate
    d = channel.dim_out
    assert y_eye.shape == (1, d, d)
    assert y_b.shape == (len(b), b.dim, b.dim)
    duals, faces = [], []
    for yk, eb in zip(y_b, b.effects):
        duals.append(y_eye[0] + sum(k @ yk @ np.conj(k.T) for k in channel.kraus))
        kern = _kernel(eb)
        faces.append(_face([k @ kern for k in channel.kraus], d))
    bound = _check_certificate(
        duals, faces, [y_eye[0]] + list(y_b), [np.eye(d)] + list(b.effects)
    )
    assert bound == pytest.approx(out.infeasibility_floor, rel=1e-9)
    assert out.infeasibility_floor <= out.residual * (1 + 1e-12)


def bloch_axis(theta, phi):
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


# axes at least 0.3 rad off z, so that strengths up to 1 reach past the
# boundary by the margin below
tilts = st.floats(0.3, math.pi / 2)
MARGIN = 1.02


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.floats(0.5, 1.0), tilts, st.floats(0.0, 1.0))
def test_incompatible_pair_certificates_check_independently(s, theta, u):
    # the smallest t with busch_value(s, t, theta) >= MARGIN, then beyond
    c = math.cos(theta)
    t_min = math.sqrt(max(0.0, MARGIN - s * s) / (1 - c * c * s * s))
    t = t_min + u * (1.0 - t_min)
    assume(t > 0.0 and busch_value(s, t, theta) >= MARGIN)
    a = qubit_binary(s, AXIS_Z)
    b = qubit_binary(t, tilted_axis(theta))
    _check_joint_certificate(a, b, find_joint_observable(a, b))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.floats(0.5, 0.95), tilts, st.floats(0.0, 2 * math.pi), st.floats(0.0, 1.0))
def test_unreachable_luders_preimage_certificates_check_independently(s, theta, phi, u):
    # after luders(s Z) the transverse Bloch components shrink by
    # sqrt(1 - s^2), so B is reachable exactly when t^2 * stretch <= 1
    stretch = math.cos(theta) ** 2 + math.sin(theta) ** 2 / (1 - s * s)
    t_min = math.sqrt(MARGIN / stretch)
    t = t_min + u * (1.0 - t_min)
    assume(t * t * stretch >= MARGIN)
    lam = luders(qubit_binary(s, AXIS_Z))
    b = qubit_binary(t, bloch_axis(theta, phi))
    _check_preimage_certificate(lam, b, conjugate_is_b_channel(lam, b))


def test_fixed_infeasible_cases_carry_checkable_certificates():
    _check_joint_certificate(A08, B07, find_joint_observable(A08, B07))
    sharp_z, sharp_x = qubit_binary(1.0, AXIS_Z), qubit_binary(1.0, AXIS_X)
    _check_joint_certificate(sharp_z, sharp_x, find_joint_observable(sharp_z, sharp_x))
    lam = luders(A08)
    _check_preimage_certificate(lam, C08, conjugate_is_b_channel(lam, C08))
    y09 = qubit_binary(0.9, AXIS_Y)
    _check_preimage_certificate(lam, y09, conjugate_is_b_channel(lam, y09))
    # the identity's environment is one-dimensional: A08 leaves the range
    # of the conjugate channel's dual, and that part alone is the proof
    env = conjugate(identity_channel(2))
    _check_preimage_certificate(env, A08, is_a_channel(identity_channel(2), A08))


def test_every_compatible_grid_pair_is_found_within_eight_sweeps():
    # unaccelerated sweeps approach a boundary point of the cone by a
    # fixed factor per sweep and need up to 63 sweeps on these pairs
    opts = SolverOptions(max_iters=8)
    strengths = np.linspace(0.05, 1.0, GRID_POINTS)
    for theta in GRID_ANGLES:
        for s in strengths:
            for t in strengths:
                if busch_value(s, t, theta) > 1.0 - BOUNDARY_MARGIN:
                    continue
                out = find_joint_observable(
                    qubit_binary(s, AXIS_Z), qubit_binary(t, tilted_axis(theta)), opts=opts
                )
                assert out.status == FEASIBLE, (s, t, theta)


def test_no_compatible_grid_pair_is_ever_certified():
    # a zero tolerance never stops a run early, so every scheduled
    # certificate attempt up to the budget is made on every pair
    opts = SolverOptions(tol=0.0, max_iters=16)
    strengths = np.linspace(0.05, 1.0, GRID_POINTS)
    for theta in GRID_ANGLES:
        for s in strengths:
            for t in strengths:
                if busch_value(s, t, theta) > 1.0 - BOUNDARY_MARGIN:
                    continue
                out = find_joint_observable(
                    qubit_binary(s, AXIS_Z), qubit_binary(t, tilted_axis(theta)), opts=opts
                )
                assert out.status != INFEASIBLE
                assert out.certificate is None
