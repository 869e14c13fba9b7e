"""Acceptance gate: every headline claim checked at its stated tolerance.

Each test prints one pass/fail line; run with -v for per-criterion status.
The heavy numerical work lives in the selftest harness so the CLI and this
gate exercise identical code paths.
"""

import pytest

from seqmeas.feasibility import FEASIBLE, INFEASIBLE, UNDECIDED
from seqmeas.harness import run_checks


@pytest.fixture(scope="module")
def report():
    rep = run_checks(seed=0)
    return {c.name: c for c in rep.checks}


def _line(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'pass' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_busch_grid_agreement(report):
    c = report["busch-grid"]
    d = c.details
    ok = (
        c.status == "pass"
        and d["points_run"] + d["points_skipped"] == 20 * 20 * 5
        and d["agreements"] == d["points_run"]
        and d["undecided"] == 0
        and d["worst_feasible_residual"] <= 1e-8
        and d["worst_infeasibility_floor"] >= 1e-4
    )
    _line(1, "exact criterion vs solver on the strength grid", ok)


def test_busch_grid_solves_end_within_four_sweeps(report):
    # the joint search starts from the Jordan product of the pair, which
    # for unbiased qubit binaries is positive exactly when busch_value <= 1
    d = report["busch-grid"].details
    assert d["max_sweeps"] == {"feasible": 1, "infeasible": 4}


def test_criterion_2_luders_implementation_boundary(report):
    c = report["luders-implementation"]
    ok = (
        c.status == "pass"
        and len(c.details["cases"]) == 4
        and c.details["worst_defect"] <= 1e-10
    )
    _line(2, "Luders channel implements boundary observables", ok)


def test_criterion_3_luders_is_not_universal(report):
    c = report["luders-not-universal"]
    d = c.details
    ok = (
        c.status == "pass"
        and d["status"] == INFEASIBLE
        and d["residual_floor"] >= 1e-4
        and d["refinement_valid"]
    )
    _line(3, "Luders channel cannot reach the four-outcome refinement", ok)


def test_criterion_4_universal_recovery(report):
    c = report["universal-recovery"]
    names = [row["case"] for row in c.details["cases"]]
    ok = (
        c.status == "pass"
        and names[:2] == ["refinement", "orthogonal"]
        and len(names) == 7
        and c.details["worst_residual"] <= 1e-8
    )
    _line(4, "every compatible observable is recovered downstream", ok)


def test_criterion_5_sharp_inputs_reduce_to_luders(report):
    c = report["sharp-reduction"]
    ok = c.status == "pass" and c.details["choi_difference"] <= 1e-10
    _line(5, "sharp input collapses the channel to Luders form", ok)


def test_criterion_6_minimal_dilation_dimensions(report):
    c = report["minimal-dilation-dims"]
    dims = {row["observable"]: row["dim"] for row in c.details["cases"]}
    ok = (
        c.status == "pass"
        and dims == {"A": 4, "C": 5, "sharp-z": 2}
        and all(row["ok"] for row in c.details["cases"])
    )
    _line(6, "minimal dilation dimension equals total effect rank", ok)


def test_criterion_7_triplet_interval(report):
    c = report["triplet"]
    rows = {row["strength"]: row for row in c.details["cases"]}
    pairwise_ok = all(
        s == FEASIBLE for row in rows.values() for s in row["pairwise"]
    )
    assert pairwise_ok, "pairwise joint searches must succeed at both strengths"
    decided = all(
        rows[t]["triple"] != UNDECIDED for t in (0.65, 0.55)
    )
    if not decided:
        # heuristic search: an exhausted budget is reported, not failed
        print("criterion 7 (three-observable interval): undecided")
        return
    ok = (
        rows[0.65]["triple"] == INFEASIBLE
        and rows[0.65]["triple_floor"] >= 1e-4
        and rows[0.55]["triple"] == FEASIBLE
    )
    _line(7, "three-observable interval", ok)


def test_criterion_8_structural_identities(report):
    dual = report["duality"]
    ident = report["dilation-identities"]
    d = ident.details
    ok = (
        dual.status == "pass"
        and dual.details["triples"] == 100
        and dual.details["worst_gap"] <= 1e-10
        and ident.status == "pass"
        and d["worst_auxiliary_residual"] <= 1e-9
        and d["worst_b_prime_compression_gap"] <= 1e-9
        and d["worst_factorization_residual"] <= 1e-9
        and d["witnesses_valid"]
        and d["worst_witness_marginal_gap"] <= 1e-6
    )
    _line(8, "duality, auxiliary and factorization identities", ok)
