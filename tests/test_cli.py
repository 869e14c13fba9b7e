"""CLI tests driving main() directly with artifact files on disk."""

import json

import numpy as np
import pytest

from seqmeas.channels import KrausChannel, luders
from seqmeas.cli import main
from seqmeas.dilation import NaimarkDilation, naimark_minimal
from seqmeas.povm import (
    AXIS_X,
    AXIS_Z,
    Povm,
    effects_close,
    four_outcome_refinement,
    qubit_binary,
    validate,
)
from seqmeas.serialize import channel_to_json, dilation_to_json, povm_from_json, povm_to_json

A08 = qubit_binary(0.8, AXIS_Z)
B06 = qubit_binary(0.6, AXIS_X)
B07 = qubit_binary(0.7, AXIS_X)


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return tmp_path, write


def test_validate_accepts_observables_and_channels(files, capsys):
    _, write = files
    assert main(["validate", write("a.json", povm_to_json(A08))]) == 0
    assert main(["validate", write("c.json", povm_to_json(four_outcome_refinement(0.8)))]) == 0
    assert main(["validate", write("lud.json", channel_to_json(luders(A08)))]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_names_the_normalization_defect(files, capsys):
    _, write = files
    doubled = povm_to_json(A08)
    for rec in doubled["outcomes"]:
        rec["matrix"] = [[[2 * re, 2 * im] for re, im in row] for row in rec["matrix"]]
    assert main(["validate", write("bad.json", doubled)]) == 1
    assert "normalization" in capsys.readouterr().out


def test_validate_judges_normalization_like_the_library(files):
    # effects summing to (1 + 0.75e-8) I on C^4 miss the identity by 1.5e-8
    # in Frobenius norm, inside tol * sqrt(dim) = 2e-8
    _, write = files
    scale = 1 + 0.75e-8
    p = Povm(4, (((0,), 0.25 * scale * np.eye(4)), ((1,), 0.75 * scale * np.eye(4))))
    assert validate(p, 1e-8)
    assert main(["validate", write("p.json", povm_to_json(p)), "--tol", "1e-8"]) == 0


@pytest.mark.parametrize("spoil", ["isometry", "sharp"])
def test_validate_rejects_a_broken_dilation(files, capsys, spoil):
    tmp, write = files
    d = naimark_minimal(A08)
    if spoil == "isometry":
        d = NaimarkDilation(d.dim_k, 1.01 * d.isometry, d.sharp)
    else:
        half = 0.5 * np.eye(d.dim_k)
        d = NaimarkDilation(d.dim_k, d.isometry, Povm(d.dim_k, ((lbl, half) for lbl in d.sharp.labels)))
    report = tmp / "report.json"
    path = write("d.json", dilation_to_json(d))
    assert main(["validate", path, "--json-out", str(report)]) == 1
    assert "dilation structure fails" in capsys.readouterr().out
    assert json.loads(report.read_text())["checks"][0]["details"]["verified"] is False


def test_validate_rejects_lossy_channels(files):
    _, write = files
    half = KrausChannel(2, 2, (0.5 * np.eye(2, dtype=complex),), None)
    assert main(["validate", write("half.json", channel_to_json(half))]) == 1


def test_validate_flags_malformed_input(files, capsys):
    tmp, write = files
    assert main(["validate", write("junk.json", {"what": 1})]) == 2
    assert main(["validate", str(tmp / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_joint_writes_a_witness_that_revalidates(files, capsys):
    tmp, write = files
    a = write("a.json", povm_to_json(A08))
    b = write("b.json", povm_to_json(B06))
    witness = str(tmp / "witness.json")
    assert main(["joint", a, b, "--witness-out", witness]) == 0
    assert main(["validate", witness]) == 0
    loaded = povm_from_json(json.loads((tmp / "witness.json").read_text()))
    assert loaded.dim == 2 and len(loaded) == 4


def test_joint_reports_incompatibility_with_exit_one(files, capsys):
    _, write = files
    code = main(["joint", write("a.json", povm_to_json(A08)),
                 write("b.json", povm_to_json(B07))])
    assert code == 1
    assert "infeasible" in capsys.readouterr().out


def test_joint_exhausted_budget_exits_three(files):
    _, write = files
    a = write("a.json", povm_to_json(A08))
    assert main(["joint", a, a, "--max-iters", "3"]) == 3


def test_exact_qubit_criterion_paths(files, capsys):
    _, write = files
    a = write("a.json", povm_to_json(A08))
    b_yes = write("by.json", povm_to_json(B06))
    b_no = write("bn.json", povm_to_json(B07))
    c = write("c.json", povm_to_json(four_outcome_refinement(0.8)))
    assert main(["joint", a, b_yes, "--exact-qubit"]) == 0
    assert main(["joint", a, b_no, "--exact-qubit"]) == 1
    assert main(["joint", a, c, "--exact-qubit"]) == 0
    assert "falling back" in capsys.readouterr().out


def test_universal_writes_channel_and_recovers(files, tmp_path):
    _, write = files
    a = write("a.json", povm_to_json(A08))
    c = write("c.json", povm_to_json(four_outcome_refinement(0.8)))
    out = str(tmp_path / "artifacts")
    assert main(["universal", a, c, "--out-dir", out]) == 0
    assert main(["validate", f"{out}/universal_channel.json"]) == 0
    assert main(["validate", f"{out}/modified_observable.json"]) == 0


def test_universal_propagates_incompatibility(files):
    _, write = files
    code = main(["universal", write("a.json", povm_to_json(A08)),
                 write("b.json", povm_to_json(B07))])
    assert code == 1


def test_conjugate_test_recovers_the_sharp_transverse(files, tmp_path, capsys):
    _, write = files
    lud = write("lud.json", channel_to_json(luders(A08)))
    b = write("b.json", povm_to_json(B06))
    recovered = str(tmp_path / "bprime.json")
    assert main(["conjugate-test", lud, b, "--witness-out", recovered]) == 0
    assert "verifies: True" in capsys.readouterr().out
    got = povm_from_json(json.loads((tmp_path / "bprime.json").read_text()))
    assert effects_close(got, qubit_binary(1.0, AXIS_X), tol=1e-6)


def test_conjugate_test_refutes_the_refinement(files):
    _, write = files
    code = main(["conjugate-test",
                 write("lud.json", channel_to_json(luders(A08))),
                 write("c.json", povm_to_json(four_outcome_refinement(0.8)))])
    assert code == 1


def test_nondisturb_distinguishes_commuting_from_transverse(files):
    _, write = files
    lud = write("lud.json", channel_to_json(luders(A08)))
    assert main(["nondisturb", lud, write("a.json", povm_to_json(A08))]) == 0
    assert main(["nondisturb", lud, write("b.json", povm_to_json(B06))]) == 1


def test_dilate_writes_a_readable_dilation(files, tmp_path, capsys):
    _, write = files
    a = write("a.json", povm_to_json(A08))
    out = str(tmp_path / "dilation.json")
    assert main(["dilate", a, "--out", out]) == 0
    assert "dimension 4" in capsys.readouterr().out
    assert main(["validate", out]) == 0


def test_dilate_canonical_dimension(files, capsys):
    _, write = files
    c = write("c.json", povm_to_json(four_outcome_refinement(0.8)))
    assert main(["dilate", c, "--canonical"]) == 0
    assert "dimension 8" in capsys.readouterr().out


def test_selftest_subset_and_artifacts(files, tmp_path, capsys):
    out_dir = str(tmp_path / "cases")
    report = str(tmp_path / "report.json")
    code = main(["selftest", "--only", "sharp-reduction", "--only", "duality",
                 "--only", "minimal-dilation-dims",
                 "--json-out", report, "--out-dir", out_dir])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [c["name"] for c in doc["checks"]] == [
        "sharp-reduction", "minimal-dilation-dims", "duality"]
    assert all(c["status"] == "pass" for c in doc["checks"])
    for artifact in ("universal_channel.json", "modified_refinement.json",
                     "boundary_witness.json"):
        assert main(["validate", f"{out_dir}/{artifact}"]) == 0


def test_selftest_reports_are_deterministic(files, tmp_path):
    paths = []
    for run in range(2):
        report = str(tmp_path / f"r{run}.json")
        assert main(["selftest", "--only", "duality", "--only", "universal-recovery",
                     "--seed", "7", "--json-out", report]) == 0
        paths.append(report)

    def strip(doc):
        return [{k: v for k, v in c.items() if k != "seconds"} for c in doc["checks"]]

    first, second = (json.loads(open(p).read()) for p in paths)
    assert strip(first) == strip(second)
    assert first["inputs"] == second["inputs"]


def test_config_file_sets_solver_budget(files):
    _, write = files
    a = write("a.json", povm_to_json(A08))
    cfg = write("cfg.json", {"feas.max_iters": 3})
    assert main(["joint", a, a, "--config", cfg]) == 3
