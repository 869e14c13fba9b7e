"""Named end-to-end checks with a machine-readable report.

Each check reconstructs its own inputs, so any subset can run in isolation
and two runs with the same seed produce the same statuses and residuals.
Wall-clock seconds are recorded per check; they are the only report fields
that vary between identical runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .channels import (
    KrausChannel,
    apply,
    choi,
    classical_channel,
    heisenberg_apply,
    luders,
)
from .dilation import (
    NaimarkDilation,
    connecting_isometry,
    is_minimal,
    naimark_canonical,
    naimark_minimal,
    verify_dilation,
)
from .feasibility import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    DEFAULT_OPTIONS,
    SolverOptions,
    conjugate_is_b_channel,
    find_joint_observable,
    orthogonal_joint_observable,
    qubit_pair_value,
    recover_b_prime,
    witness_povm,
)
from .linalg import CHECK_TOL, MARGINAL_TOL, WITNESS_TOL, dagger, frob
from .povm import (
    AXIS_X,
    AXIS_Z,
    Povm,
    bloch_vector,
    effects_close,
    four_outcome_refinement,
    marginal,
    noisy_spin_triplet,
    qubit_binary,
    refinement_joint,
    validate,
)
from .sequential import _instrument, _modified
from .serialize import povm_to_json

__all__ = ["CheckResult", "Report", "CHECK_NAMES", "run_checks", "digest"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "undecided"
    gating: bool
    seconds: float
    details: dict


@dataclass(frozen=True)
class Report:
    version: str
    command: tuple[str, ...]
    seed: int
    checks: tuple[CheckResult, ...]
    input_digests: dict

    def exit_code(self) -> int:
        gating = [c for c in self.checks if c.gating]
        if any(c.status == "fail" for c in gating):
            return 1
        if any(c.status == "undecided" for c in gating):
            return 3
        return 0

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "command": list(self.command),
            "seed": self.seed,
            "inputs": dict(self.input_digests),
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "gating": c.gating,
                    "seconds": c.seconds,
                    "details": c.details,
                }
                for c in self.checks
            ],
        }


def digest(doc) -> str:
    """Canonical sha256 of a JSON-serializable document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


A_STRENGTH = 0.8
# the reference B: the strength of the sharpest X binary jointly
# measurable with A, sqrt(1 - A_STRENGTH**2)
B_STRENGTH = 0.6
GRID_POINTS = 20
GRID_ANGLES = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
BOUNDARY_MARGIN = 1e-3
# bounds the checks hold their results to and report: the floor a certified
# "no" must prove, the defect of identities exact up to roundoff, and that
# of dilation identities, whose isometries come from eigensolves
FLOOR_REQUIREMENT = 1e-4
IDENTITY_TOL = 1e-10
DILATION_TOL = 1e-9

QUBIT_BASIS_STATES = (
    np.diag([1.0, 0.0]).astype(complex),
    np.diag([0.0, 1.0]).astype(complex),
    np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
)


def _tilted_axis(theta: float) -> np.ndarray:
    return np.array([math.sin(theta), 0.0, math.cos(theta)])


def _reference_inputs() -> dict:
    return {
        "A": digest(povm_to_json(qubit_binary(A_STRENGTH, AXIS_Z))),
        "B": digest(povm_to_json(qubit_binary(B_STRENGTH, AXIS_X))),
        "C": digest(povm_to_json(four_outcome_refinement(A_STRENGTH))),
    }


# ------------------------------------------------------------------ checks


def _check_busch_grid(seed: int, opts: SolverOptions) -> tuple[str, dict]:
    strengths = [float(s) for s in np.linspace(0.05, 1.0, GRID_POINTS)]
    a_obs = [qubit_binary(s, AXIS_Z) for s in strengths]
    run = skipped = agree = undecided = 0
    worst_feasible = 0.0
    worst_floor = math.inf
    reasons: dict[str, int] = {}
    sweeps: dict[str, int] = {}
    max_sweeps: dict[str, int] = {}
    for theta in GRID_ANGLES:
        b_obs = [qubit_binary(t, _tilted_axis(theta)) for t in strengths]
        for a in a_obs:
            for b in b_obs:
                value = qubit_pair_value(a, b)
                if abs(value - 1.0) <= BOUNDARY_MARGIN:
                    skipped += 1
                    continue
                run += 1
                out = find_joint_observable(a, b, opts=opts)
                reasons[out.reason] = reasons.get(out.reason, 0) + 1
                sweeps[out.status] = sweeps.get(out.status, 0) + out.iterations
                max_sweeps[out.status] = max(max_sweeps.get(out.status, 0), out.iterations)
                if out.status == UNDECIDED:
                    undecided += 1
                    continue
                if (out.status == FEASIBLE) == (value <= 1.0):
                    agree += 1
                if out.status == FEASIBLE:
                    worst_feasible = max(worst_feasible, out.residual)
                else:
                    worst_floor = min(worst_floor, out.infeasibility_floor)
    ok = (
        agree == run
        and undecided == 0
        and worst_feasible <= CHECK_TOL
        and worst_floor >= FLOOR_REQUIREMENT
    )
    status = "undecided" if undecided and agree + undecided == run else (
        "pass" if ok else "fail"
    )
    return status, {
        "points_run": run,
        "points_skipped": skipped,
        "agreements": agree,
        "undecided": undecided,
        "worst_feasible_residual": worst_feasible,
        "worst_infeasibility_floor": None if math.isinf(worst_floor) else worst_floor,
        "feasible_tolerance": CHECK_TOL,
        "floor_requirement": FLOOR_REQUIREMENT,
        "reasons": reasons,
        "sweeps": sweeps,
        "max_sweeps": max_sweeps,
    }


def _check_luders_implementation(seed: int, opts: SolverOptions) -> tuple[str, dict]:
    a = qubit_binary(A_STRENGTH, AXIS_Z)
    lam = luders(a)
    rows = []
    worst = 0.0
    for theta in GRID_ANGLES[1:]:
        sharp = qubit_binary(1.0, _tilted_axis(theta))
        implemented = Povm(2, zip(sharp.labels, heisenberg_apply(lam, sharp.effects)))
        t_imp = float(np.linalg.norm(bloch_vector(implemented.effect((1,)))))
        defect = abs(qubit_pair_value(a, implemented) - 1.0)
        worst = max(worst, defect)
        rows.append({"theta": theta, "t_implemented": t_imp, "boundary_defect": defect})
    status = "pass" if worst <= IDENTITY_TOL else "fail"
    return status, {"cases": rows, "worst_defect": worst, "tolerance": IDENTITY_TOL}


def _check_luders_not_universal(seed: int, opts: SolverOptions) -> tuple[str, dict]:
    a = qubit_binary(A_STRENGTH, AXIS_Z)
    c = four_outcome_refinement(A_STRENGTH)
    out = conjugate_is_b_channel(luders(a), c, opts=opts)
    refinement_ok = validate(c) and effects_close(marginal(c, 0), a, tol=1e-12)
    if out.status == UNDECIDED:
        status = "undecided"
    elif (out.status == INFEASIBLE and out.infeasibility_floor >= FLOOR_REQUIREMENT
          and refinement_ok):
        status = "pass"
    else:
        status = "fail"
    return status, {
        "status": out.status,
        "residual_floor": out.infeasibility_floor,
        "floor_requirement": FLOOR_REQUIREMENT,
        "refinement_valid": refinement_ok,
        "reason": out.reason,
        "sweeps": out.iterations,
    }


def _recovery_cases(seed: int, opts: SolverOptions) -> list[tuple[str, Povm, Povm]]:
    """(name, joint observable with leading marginal A, target B) triples."""
    a = qubit_binary(A_STRENGTH, AXIS_Z)
    cases = [
        ("refinement", refinement_joint(four_outcome_refinement(A_STRENGTH)),
         four_outcome_refinement(A_STRENGTH)),
        ("orthogonal", orthogonal_joint_observable(A_STRENGTH, B_STRENGTH),
         qubit_binary(B_STRENGTH, AXIS_X)),
    ]
    rng = np.random.default_rng(seed)
    tight = SolverOptions(tol=WITNESS_TOL, max_iters=opts.max_iters)
    found = 0
    while found < 5:
        t = float(rng.uniform(0.1, 0.95))
        b = qubit_binary(t, _tilted_axis(float(rng.uniform(0.0, math.pi / 2))))
        if qubit_pair_value(a, b) > 0.98:
            continue
        found += 1
        out = find_joint_observable(a, b, opts=tight)
        cases.append((f"random-{found}", witness_povm(out), b))
    return cases


def _check_universal_recovery(seed: int, opts: SolverOptions) -> tuple[str, dict]:
    a = qubit_binary(A_STRENGTH, AXIS_Z)
    mini = naimark_minimal(a)
    uni = _instrument(mini)
    rows = []
    worst = 0.0
    for name, joint, b in _recovery_cases(seed, opts):
        # _modified returns B' in the sorted labels of B
        recovered = heisenberg_apply(uni, _modified(mini, a, joint).effects)
        resid = float(np.linalg.norm(recovered - b.effects, axis=(1, 2)).max())
        worst = max(worst, resid)
        rows.append({"case": name, "residual": resid})
    status = "pass" if worst <= CHECK_TOL else "fail"
    return status, {
        "channel_dim_out": uni.dim_out,
        "cases": rows,
        "worst_residual": worst,
        "tolerance": CHECK_TOL,
    }


def _check_sharp_reduction(seed: int, opts: SolverOptions) -> tuple[str, dict]:
    sharp = qubit_binary(1.0, AXIS_Z)
    mini = naimark_minimal(sharp)
    identified = KrausChannel(2, 2, dagger(mini.isometry) @ _instrument(mini).kraus)
    diff = frob(choi(identified) - choi(luders(sharp)))
    status = "pass" if diff <= IDENTITY_TOL else "fail"
    return status, {"choi_difference": diff, "tolerance": IDENTITY_TOL}


def _check_minimal_dilation_dims(seed: int, opts: SolverOptions) -> tuple[str, dict]:
    expected = [
        ("A", qubit_binary(A_STRENGTH, AXIS_Z), 4),
        ("C", four_outcome_refinement(A_STRENGTH), 5),
        ("sharp-z", qubit_binary(1.0, AXIS_Z), 2),
    ]
    rows = []
    ok = True
    for name, obs, want in expected:
        d = naimark_minimal(obs)
        good = (
            d.dim_k == want
            and verify_dilation(obs, d, tol=DILATION_TOL)
            and is_minimal(d)
        )
        ok = ok and good
        rows.append({"observable": name, "dim": d.dim_k, "expected": want, "ok": good})
    return ("pass" if ok else "fail"), {"cases": rows, "tolerance": DILATION_TOL}


def _check_triplet(seed: int, opts: SolverOptions) -> tuple[str, dict]:
    rows = []
    saw_undecided = False
    ok = True
    for t, want_triple in ((0.65, False), (0.55, True)):
        x, y, z = noisy_spin_triplet(t)
        pair_status = [
            find_joint_observable(p, q, opts=opts).status
            for p, q in ((x, y), (x, z), (y, z))
        ]
        triple = find_joint_observable(x, y, z, opts=opts)
        saw_undecided = saw_undecided or triple.status == UNDECIDED or any(
            s == UNDECIDED for s in pair_status
        )
        good = all(s == FEASIBLE for s in pair_status) and (
            (triple.status == FEASIBLE) == want_triple
        )
        if not want_triple:
            good = good and triple.status == INFEASIBLE and (
                triple.infeasibility_floor >= FLOOR_REQUIREMENT
            )
        ok = ok and good
        rows.append({
            "strength": t,
            "pairwise": pair_status,
            "triple": triple.status,
            "triple_floor": triple.infeasibility_floor,
            "triple_reason": triple.reason,
            "triple_sweeps": triple.iterations,
        })
    status = "undecided" if saw_undecided else ("pass" if ok else "fail")
    return status, {"cases": rows, "floor_requirement": FLOOR_REQUIREMENT}


def _random_cptp(rng: np.random.Generator) -> KrausChannel:
    din, dout = (int(v) for v in rng.integers(2, 4, size=2))
    n_kraus = int(rng.integers(max(1, -(-din // dout)), 4))
    ks = rng.normal(size=(n_kraus, dout, din)) + 1j * rng.normal(size=(n_kraus, dout, din))
    total = (dagger(ks) @ ks).sum(axis=0)
    w, v = np.linalg.eigh(total)
    fix = v @ np.diag(1.0 / np.sqrt(w)) @ dagger(v)
    return KrausChannel(din, dout, ks @ fix)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def _random_effect(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    t = g @ dagger(g)
    return t / (np.linalg.eigvalsh(t)[-1] * (1.0 + rng.uniform(0.0, 1.0)))


def _check_duality(seed: int, opts: SolverOptions) -> tuple[str, dict]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        c = _random_cptp(rng)
        rho = _random_state(rng, c.dim_in)
        t = _random_effect(rng, c.dim_out)
        lhs = np.trace(apply(c, rho) @ t)
        rhs = np.trace(rho @ heisenberg_apply(c, t))
        worst = max(worst, abs(lhs - rhs))
    status = "pass" if worst <= IDENTITY_TOL else "fail"
    return status, {"triples": 100, "worst_gap": worst, "tolerance": IDENTITY_TOL}


def _check_dilation_identities(seed: int, opts: SolverOptions) -> tuple[str, dict]:
    a = qubit_binary(A_STRENGTH, AXIS_Z)
    mini = naimark_minimal(a)
    uni = _instrument(mini)
    worst_aux = worst_factor = worst_witness = worst_b_prime = 0.0
    witnesses_valid = True
    for name, joint, b in _recovery_cases(seed, opts):
        cano = naimark_canonical(joint)
        upstairs = NaimarkDilation(
            cano.dim_k, cano.isometry, marginal(cano.sharp, 0)
        )
        j = connecting_isometry(mini, upstairs)
        # sharp joint effects annihilate mismatched branches of the embedding
        for m_lbl, m_hat in zip(cano.sharp.labels, cano.sharp.effects):
            for (x_lbl,), a_hat in zip(mini.sharp.labels, mini.sharp.effects):
                want = m_hat @ j if m_lbl[0] == x_lbl else 0.0
                worst_aux = max(worst_aux, frob(m_hat @ j @ a_hat - want))
        # the closed-form B' is the sharp readout compressed through J
        b_hat = marginal(cano.sharp, tuple(range(1, joint.arity)))
        b_prime = _modified(mini, a, joint)
        gaps = b_prime.effects - dagger(j) @ b_hat.effects @ j
        worst_b_prime = max(worst_b_prime, float(np.linalg.norm(gaps, axis=(1, 2)).max()))
        # measure-and-prepare for b factors through the universal channel
        gamma = classical_channel(b_prime)
        readout = classical_channel(b)
        for rho in QUBIT_BASIS_STATES:
            gap = frob(apply(readout, rho) - apply(gamma, apply(uni, rho)))
            worst_factor = max(worst_factor, gap)
        # solver witnesses must stand on their own
        witnesses_valid = witnesses_valid and validate(joint, tol=MARGINAL_TOL)
        gaps = marginal(joint, 0).effects - a.effects
        worst_witness = max(worst_witness, float(np.linalg.norm(gaps, axis=(1, 2)).max()))
    recovered = recover_b_prime(uni, four_outcome_refinement(A_STRENGTH), opts=opts)
    witnesses_valid = witnesses_valid and validate(recovered, tol=MARGINAL_TOL)
    ok = (
        worst_aux <= DILATION_TOL
        and worst_b_prime <= DILATION_TOL
        and worst_factor <= DILATION_TOL
        and witnesses_valid
        and worst_witness <= MARGINAL_TOL
    )
    return ("pass" if ok else "fail"), {
        "worst_auxiliary_residual": worst_aux,
        "worst_b_prime_compression_gap": worst_b_prime,
        "worst_factorization_residual": worst_factor,
        "worst_witness_marginal_gap": worst_witness,
        "witnesses_valid": witnesses_valid,
        "tolerance": DILATION_TOL,
    }


_CHECKS: tuple[tuple[str, bool, Callable[[int, SolverOptions], tuple[str, dict]]], ...] = (
    ("busch-grid", True, _check_busch_grid),
    ("luders-implementation", True, _check_luders_implementation),
    ("luders-not-universal", True, _check_luders_not_universal),
    ("universal-recovery", True, _check_universal_recovery),
    ("sharp-reduction", True, _check_sharp_reduction),
    ("minimal-dilation-dims", True, _check_minimal_dilation_dims),
    ("triplet", False, _check_triplet),
    ("duality", True, _check_duality),
    ("dilation-identities", True, _check_dilation_identities),
)

CHECK_NAMES: tuple[str, ...] = tuple(name for name, _, _ in _CHECKS)


def run_checks(
    only: Iterable[str] | None = None,
    seed: int = 0,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> Report:
    """Run the named checks, all of them when `only` is None, in `_CHECKS`
    order. `seqmeas selftest` reports them under its own command line."""
    wanted = None if only is None else set(only)
    if wanted is not None:
        unknown = wanted.difference(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
    results = []
    for name, gating, fn in _CHECKS:
        if wanted is not None and name not in wanted:
            continue
        start = time.perf_counter()
        status, details = fn(seed, opts)
        results.append(
            CheckResult(name, status, gating, time.perf_counter() - start, details)
        )
    return Report(
        version=__version__,
        command=(),
        seed=seed,
        checks=tuple(results),
        input_digests=_reference_inputs(),
    )
