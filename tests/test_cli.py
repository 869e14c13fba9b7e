"""CLI tests driving main() directly with artifact files on disk."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from seqmeas.channels import KrausChannel, luders
from seqmeas.cli import build_parser, main
from seqmeas.dilation import NaimarkDilation, naimark_minimal
from seqmeas.povm import (
    AXIS_X,
    AXIS_Z,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Povm,
    effects_close,
    four_outcome_refinement,
    qubit_binary,
    validate,
)
from seqmeas.sequential import universal_channel, verify_sequential
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


def test_validate_reports_on_channels(files, tmp_path):
    _, write = files
    report = tmp_path / "r.json"
    assert main(["validate", write("lud.json", channel_to_json(luders(A08))),
                 "--json-out", str(report)]) == 0
    (check,) = json.loads(report.read_text())["checks"]
    assert check["details"]["trace_preserving"] is True


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


def test_validate_refuses_an_entry_too_large_for_a_float(files, capsys):
    _, write = files
    doc = povm_to_json(A08)
    doc["outcomes"][1]["matrix"][0][1][0] = 10**400
    assert main(["validate", write("big.json", doc)]) == 2
    assert "/outcomes/1/matrix/0/1/0" in capsys.readouterr().err


def test_a_nan_entry_is_an_input_error(files, capsys):
    _, write = files
    doc = povm_to_json(A08)
    doc["outcomes"][0]["matrix"][0][1][0] = float("nan")
    a, b = write("a.json", doc), write("b.json", povm_to_json(B06))
    for argv in (["validate", a], ["joint", a, b]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "/outcomes/0/matrix/0/1/0" in err
        assert "finite" in err


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
    # a compatible pair that needs 14 sweeps
    a = write("a.json", povm_to_json(A08))
    c = write("c.json", povm_to_json(four_outcome_refinement(0.8)))
    assert main(["joint", a, c, "--max-iters", "3"]) == 3


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


def _binary(y, b):
    """The qubit observable with effects ((1 +- y) I +- b.sigma) / 2."""
    pointing = sum(c * sigma for c, sigma in zip(b, (SIGMA_X, SIGMA_Y, SIGMA_Z)))
    eye = np.eye(2)
    return Povm(2, [((1,), ((1 + y) * eye + pointing) / 2),
                    ((-1,), ((1 - y) * eye - pointing) / 2)])


@pytest.mark.parametrize("f, code", [
    pytest.param(_binary(-0.1, (0.4, 0.0, 0.0)), 0, id="compatible"),
    pytest.param(_binary(-0.1, (0.85, 0.0, 0.0)), 1, id="incompatible"),
])
def test_exact_qubit_criterion_decides_biased_pairs(files, capsys, f, code):
    _, write = files
    e = write("e.json", povm_to_json(_binary(0.1, (0.0, 0.0, 0.85))))
    assert main(["joint", e, write("f.json", povm_to_json(f)), "--exact-qubit"]) == code
    out = capsys.readouterr().out
    assert "exact qubit criterion" in out
    assert "falling back" not in out


def test_exact_qubit_criterion_leaves_invalid_binaries_to_the_solver(files, capsys):
    # effects (I +- 1.2 Z) / 2 sum to I, but one has eigenvalue -0.1
    _, write = files
    bad = write("bad.json", povm_to_json(_binary(0.0, (0.0, 0.0, 1.2))))
    assert main(["joint", bad, write("b.json", povm_to_json(B06)), "--exact-qubit"]) == 1
    out = capsys.readouterr().out
    assert "falling back" in out
    assert "nan" not in out


def test_universal_writes_channel_and_recovers(files, tmp_path):
    _, write = files
    a = write("a.json", povm_to_json(A08))
    c = write("c.json", povm_to_json(four_outcome_refinement(0.8)))
    out = str(tmp_path / "artifacts")
    assert main(["universal", a, c, "--out-dir", out]) == 0
    assert main(["validate", f"{out}/universal_channel.json"]) == 0
    assert main(["validate", f"{out}/modified_observable.json"]) == 0


def _wishart_pair(seed, d=6, na=2, nb=3, cols=2):
    """Marginals of the first Wishart joint drawn from ``seed``, whitened to
    sum to I."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(na * nb, d, cols)) + 1j * rng.normal(size=(na * nb, d, cols))
    blocks = g @ np.conj(np.swapaxes(g, 1, 2))
    w, v = np.linalg.eigh(blocks.sum(axis=0))
    isq = (v * w**-0.5) @ np.conj(v.T)
    m = isq @ blocks @ isq
    m = ((m + np.conj(np.swapaxes(m, 1, 2))) / 2).reshape(na, nb, d, d)
    a = Povm(d, tuple(((x,), m[x].sum(axis=0)) for x in range(na)))
    b = Povm(d, tuple(((y,), m[:, y].sum(axis=0)) for y in range(nb)))
    return a, b


@pytest.mark.parametrize("seed", [5, 9, 11, 12])
def test_universal_recovers_compatible_pairs_at_dimension_six(files, tmp_path, seed):
    # A's smallest eigenvalues (about 6e-3) magnify the witness residual,
    # which must not keep B' from verifying
    _, write = files
    a, b = _wishart_pair(seed)
    out = tmp_path / "artifacts"
    assert main(["universal", write("a.json", povm_to_json(a)),
                 write("b.json", povm_to_json(b)), "--out-dir", str(out)]) == 0
    b_prime = povm_from_json(json.loads((out / "modified_observable.json").read_text()))
    assert verify_sequential(universal_channel(a), b_prime, b)


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

    first, second = (json.loads(Path(p).read_text()) for p in paths)
    assert strip(first) == strip(second)
    assert first["inputs"] == second["inputs"]


@pytest.mark.parametrize(
    "flags",
    [["--max-iters", "-3"], ["--max-iters", "0"], ["--tol", "nan"], ["--tol=-1e-8"],
     ["--tol", "inf"]],
    ids=["negative-max-iters", "zero-max-iters", "nan-tol", "negative-tol", "infinite-tol"],
)
def test_malformed_solver_settings_are_input_errors(files, capsys, flags):
    # every --tol flag, the solvers' and the checkers', refuses the same values
    _, write = files
    a = write("a.json", povm_to_json(A08))
    lud = write("lud.json", channel_to_json(luders(A08)))
    commands = [["joint", a, write("b.json", povm_to_json(B06))]]
    if flags[0].startswith("--tol"):
        commands += [["validate", a], ["validate", lud], ["nondisturb", lud, a]]
    for command in commands:
        assert main([*command, *flags]) == 2
        captured = capsys.readouterr()
        assert "input error" in captured.err
        assert captured.out == ""


def test_reports_digest_the_input_bytes(files, tmp_path, capsys):
    _, write = files
    a = write("a.json", povm_to_json(A08))
    b = write("b.json", povm_to_json(B06))
    report = tmp_path / "r.json"

    def sha(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    assert main(["joint", a, b, "--json-out", str(report)]) == 0
    assert json.loads(report.read_text())["inputs"] == {a: sha(a), b: sha(b)}
    assert main(["universal", a, b, "--json-out", str(report)]) == 0
    assert json.loads(report.read_text())["inputs"] == {a: sha(a), b: sha(b)}
    assert main(["validate", a, "--json-out", str(report)]) == 0
    assert json.loads(report.read_text())["inputs"] == {a: sha(a)}


def test_inputs_are_not_digested_without_a_report(files, monkeypatch):
    _, write = files
    a = write("a.json", povm_to_json(A08))
    lud = write("lud.json", channel_to_json(luders(A08)))

    def refuse(*_):
        raise AssertionError("digest taken without --json-out")

    monkeypatch.setattr(hashlib, "sha256", refuse)
    assert main(["validate", a]) == 0
    assert main(["joint", a, a]) == 0
    assert main(["nondisturb", lud, a]) == 0
    assert main(["dilate", a]) == 0


def test_written_documents_are_single_line_json(files, tmp_path):
    _, write = files
    out = tmp_path / "dil.json"
    assert main(["dilate", write("a.json", povm_to_json(A08)), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == json.loads(json.dumps(dilation_to_json(naimark_minimal(A08))))


def test_consecutive_calls_share_the_parser_but_not_its_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["selftest", "--only", "duality", "--only", "sharp-reduction",
                 "--tol", "1e-9", "--json-out", str(r1)]) == 0
    assert main(["selftest", "--only", "duality", "--json-out", str(r2)]) == 0
    first, second = (json.loads(r.read_text()) for r in (r1, r2))
    assert [c["name"] for c in first["checks"]] == ["sharp-reduction", "duality"]
    assert [c["name"] for c in second["checks"]] == ["duality"]
    assert any(part.startswith("tol=") for part in first["command"])
    assert not any(part.startswith("tol=") for part in second["command"])


def test_report_echoes_a_flag_set_to_zero(files, tmp_path):
    _, write = files
    report = tmp_path / "r.json"
    a, b = write("a.json", povm_to_json(A08)), write("b.json", povm_to_json(B06))
    assert main(["joint", a, b, "--tol", "0", "--json-out", str(report)]) == 0
    assert "tol=0.0" in json.loads(report.read_text())["command"]


def test_version_exit_leaves_the_parser_usable(files, capsys):
    _, write = files
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert main(["validate", write("a.json", povm_to_json(A08))]) == 0
    assert "valid observable" in capsys.readouterr().out


REPORT_CALLS = {
    "validate-pass": (["validate", "a.json"], 0),
    "validate-fail": (["validate", "doubled.json"], 1),
    "joint-pass": (["joint", "a.json", "b06.json"], 0),
    "joint-fail": (["joint", "a.json", "b07.json"], 1),
    "joint-undecided": (["joint", "a.json", "b09.json", "--max-iters", "1"], 3),
    "exact-qubit-pass": (["joint", "a.json", "b06.json", "--exact-qubit"], 0),
    "exact-qubit-fail": (["joint", "a.json", "b07.json", "--exact-qubit"], 1),
    "universal-pass": (["universal", "a.json", "c.json"], 0),
    "universal-fail": (["universal", "a.json", "b07.json"], 1),
    "universal-undecided": (["universal", "a.json", "c.json", "--max-iters", "1"], 3),
    "conjugate-pass": (["conjugate-test", "lud.json", "b06.json"], 0),
    "conjugate-refuted": (["conjugate-test", "lud.json", "c.json"], 1),
    "nondisturb-pass": (["nondisturb", "lud.json", "a.json"], 0),
    "nondisturb-fail": (["nondisturb", "lud.json", "b06.json"], 1),
    "dilate-pass": (["dilate", "c.json", "--canonical"], 0),
    "selftest-subset": (["selftest", "--only", "duality", "--only", "triplet"], 0),
}


@pytest.fixture
def documents(files):
    tmp, write = files
    doubled = povm_to_json(A08)
    for rec in doubled["outcomes"]:
        rec["matrix"] = [[[2 * re, 2 * im] for re, im in row] for row in rec["matrix"]]
    docs = {"a.json": povm_to_json(A08), "b06.json": povm_to_json(B06),
            "b07.json": povm_to_json(B07), "doubled.json": doubled,
            "b09.json": povm_to_json(qubit_binary(0.9, AXIS_X)),
            "c.json": povm_to_json(four_outcome_refinement(0.8)),
            "lud.json": channel_to_json(luders(A08))}
    return tmp, {name: write(name, doc) for name, doc in docs.items()}


@pytest.mark.parametrize("argv, expected", REPORT_CALLS.values(), ids=REPORT_CALLS.keys())
def test_exit_code_is_read_from_the_reports_gating_checks(documents, argv, expected):
    tmp, paths = documents
    report = tmp / "report.json"
    code = main([paths.get(a, a) for a in argv] + ["--json-out", str(report)])
    gating = {c["status"] for c in json.loads(report.read_text())["checks"] if c["gating"]}
    assert code == expected == (1 if "fail" in gating else 3 if "undecided" in gating else 0)


def test_selftest_report_names_its_command_and_seed(tmp_path):
    report = tmp_path / "r.json"
    assert main(["selftest", "--only", "duality", "--seed", "7",
                 "--json-out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["command"][0] == "selftest" and "seed=7" in doc["command"]
    assert doc["seed"] == 7


def test_an_output_path_that_cannot_be_written_is_an_input_error(documents, capsys):
    tmp, paths = documents
    missing = str(tmp / "nodir" / "out.json")
    calls = [
        (["joint", paths["a.json"], paths["b06.json"], "--witness-out", missing], missing),
        (["universal", paths["a.json"], paths["b06.json"], "--out-dir", paths["c.json"]],
         paths["c.json"]),
        (["validate", paths["a.json"], "--json-out", missing], missing),
    ]
    for argv, target in calls:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot write {target}" in err and "Traceback" not in err
