"""Round-trip and schema tests for the JSON wire formats."""

import json

import numpy as np
import pytest

from seqmeas.channels import KrausChannel, luders
from seqmeas.dilation import naimark_minimal
from seqmeas.feasibility import SolverOptions, find_joint_observable
from seqmeas.linalg import frob
from seqmeas.povm import (
    AXIS_X,
    AXIS_Z,
    SIGMA_X,
    Povm,
    effects_close,
    four_outcome_refinement,
    qubit_binary,
)
from seqmeas.sequential import sequential_scheme
from seqmeas.serialize import (
    SchemaError,
    channel_from_json,
    channel_to_json,
    dilation_from_json,
    dilation_to_json,
    document_kind,
    matrix_from_json,
    matrix_to_json,
    outcome_to_json,
    povm_from_json,
    povm_to_json,
    scheme_to_json,
)

A08 = qubit_binary(0.8, AXIS_Z)


def through_text(doc):
    # a genuine serialization pass catches any non-JSON value types
    return json.loads(json.dumps(doc))


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    back = matrix_from_json(through_text(matrix_to_json(m)))
    assert np.array_equal(back, m)


def test_matrix_encoding_layout():
    assert matrix_to_json(SIGMA_X) == [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]


@pytest.mark.parametrize(
    "doc,path_part",
    [
        ("nope", "/m"),
        ([], "/m"),
        ([[[0, 0]], [[0, 0], [1, 0]]], "/m/1"),
        ([[[0, 0, 0]]], "/m/0/0"),
        ([[[0, "x"]]], "/m/0/0/1"),
        ([[[True, 0]]], "/m/0/0/0"),
        ([[0]], "/m/0/0"),
        ([[[0, None]]], "/m/0/0/1"),
        ([[[0, 0], [0, 10**400]]], "/m/0/1/1"),
        ([[[-(10**400), "x"]]], "/m/0/0/0"),
    ],
)
def test_matrix_schema_errors_carry_paths(doc, path_part):
    with pytest.raises(SchemaError) as err:
        matrix_from_json(doc, "/m")
    assert err.value.path.startswith(path_part)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_matrix_reader_refuses_non_finite_entries(literal):
    # Python's json reads these non-standard literals as floats
    doc = json.loads(f"[[[0, 0], [1, 0]], [[1, 0], [0, {literal}]]]")
    with pytest.raises(SchemaError, match="finite") as err:
        matrix_from_json(doc, "/m")
    assert err.value.path == "/m/1/1/1"


def test_matrix_reader_accepts_numpy_scalars():
    doc = [[[np.float64(0.5), np.float64(-1.0)], [1, np.float64(2.0)]]]
    back = matrix_from_json(doc)
    assert back.dtype == np.complex128
    assert np.array_equal(back, np.array([[0.5 - 1j, 1 + 2j]]))


def test_matrix_codec_matches_the_elementwise_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m[0, :3] = [-0.0 + 1e-300j, 1e-300 - 0.0j, complex(-0.0, -0.0)]
    m[1, 0] = 5e-324
    doc = matrix_to_json(m)
    assert doc == [[[float(e.real), float(e.imag)] for e in row] for row in m]
    # a strided view (here the adjoint) encodes like its copy
    assert matrix_to_json(m.conj().T) == [
        [[float(e.real), float(e.imag)] for e in row] for row in m.conj().T]
    assert all(type(x) is float for row in doc for e in row for x in e)
    text = through_text(doc)
    back = matrix_from_json(text)
    reference = np.array([[complex(re, im) for re, im in row] for row in text])
    # bit-exact, so -0.0 stays distinct from 0.0
    assert back.view(np.uint64).tolist() == m.view(np.uint64).tolist()
    assert back.view(np.uint64).tolist() == reference.view(np.uint64).tolist()


def test_povm_round_trip():
    p = four_outcome_refinement(0.8)
    back = povm_from_json(through_text(povm_to_json(p)))
    assert back.labels == p.labels
    assert effects_close(back, p, tol=0)


def test_povm_schema_requires_fields():
    with pytest.raises(SchemaError, match="dim"):
        povm_from_json({"outcomes": []})
    with pytest.raises(SchemaError, match="outcomes"):
        povm_from_json({"dim": 2})


def test_povm_schema_checks_effect_shape():
    doc = povm_to_json(A08)
    doc["outcomes"][0]["matrix"] = [[[1, 0]]]
    with pytest.raises(SchemaError) as err:
        povm_from_json(doc)
    assert "/outcomes/0/matrix" in err.value.path


def test_povm_schema_rejects_duplicate_labels():
    doc = povm_to_json(A08)
    doc["outcomes"][1]["label"] = doc["outcomes"][0]["label"]
    with pytest.raises(SchemaError, match="duplicate"):
        povm_from_json(doc)


def test_channel_round_trip_with_partition():
    c = luders(A08)
    doc = through_text(channel_to_json(c))
    assert set(doc["partition"]) == {"1", "-1"}
    back = channel_from_json(doc)
    assert (back.dim_in, back.dim_out) == (c.dim_in, c.dim_out)
    assert all(np.array_equal(a, b) for a, b in zip(back.kraus, c.kraus))
    assert back.partition == dict(c.partition)


def test_channel_round_trip_without_partition():
    c = KrausChannel(2, 2, luders(A08).kraus, None)
    doc = through_text(channel_to_json(c))
    assert "partition" not in doc
    assert channel_from_json(doc).partition is None


def test_channel_schema_checks_kraus_shape():
    doc = channel_to_json(luders(A08))
    doc["dim_out"] = 3
    with pytest.raises(SchemaError) as err:
        channel_from_json(doc)
    assert "/kraus/0" in err.value.path


def test_channel_schema_rejects_bad_partition_key():
    doc = channel_to_json(luders(A08))
    doc["partition"] = {"one": [0]}
    with pytest.raises(SchemaError, match="label"):
        channel_from_json(doc)


def test_dilation_round_trip():
    d = naimark_minimal(A08)
    back = dilation_from_json(through_text(dilation_to_json(d)))
    assert back.dim_k == d.dim_k
    assert np.array_equal(back.isometry, d.isometry)
    assert effects_close(back.sharp, d.sharp, tol=0)


def test_outcome_json_carries_witness_only_when_feasible():
    good = outcome_to_json(find_joint_observable(A08, qubit_binary(0.6, AXIS_X)))
    assert good["status"] == "feasible"
    assert len(good["witness"]) == 4
    bad = outcome_to_json(find_joint_observable(A08, qubit_binary(0.7, AXIS_X)))
    assert bad["status"] == "infeasible"
    assert "witness" not in bad
    json.dumps(good), json.dumps(bad)


def test_outcome_json_carries_the_floor_only_when_infeasible():
    good = find_joint_observable(A08, qubit_binary(0.6, AXIS_X))
    bad = find_joint_observable(A08, qubit_binary(0.7, AXIS_X))
    assert "infeasibility_floor" not in outcome_to_json(good)
    doc = json.loads(json.dumps(outcome_to_json(bad)))
    # the certified lower bound, which never exceeds the best residual
    assert doc["infeasibility_floor"] == bad.infeasibility_floor >= 1e-2
    assert doc["infeasibility_floor"] <= doc["residual"]


def test_outcome_json_says_why_the_solver_stopped():
    good = find_joint_observable(A08, qubit_binary(0.6, AXIS_X))
    bad = find_joint_observable(A08, qubit_binary(0.7, AXIS_X))
    # a compatible pair, A08 and a refinement of it, that needs 14 sweeps
    short = find_joint_observable(
        A08, four_outcome_refinement(0.8), opts=SolverOptions(max_iters=1)
    )
    reasons = [through_text(outcome_to_json(o))["reason"] for o in (good, bad, short)]
    assert reasons == ["tol", "certificate", "budget"]
    assert "infeasibility_floor" not in outcome_to_json(short)


def test_scheme_bundle_parses_back():
    joint = find_joint_observable(A08, qubit_binary(0.6, AXIS_X))
    from seqmeas.feasibility import witness_povm

    doc = through_text(scheme_to_json(sequential_scheme(A08, witness_povm(joint))))
    a = povm_from_json(doc["A"])
    chan = channel_from_json(doc["channel"])
    b_prime = povm_from_json(doc["B_prime"])
    implemented = povm_from_json(doc["implemented"])
    assert effects_close(a, A08, tol=0)
    assert chan.dim_out == b_prime.dim
    assert implemented.dim == a.dim


def test_document_kind_detection():
    assert document_kind(povm_to_json(A08)) == "povm"
    assert document_kind(channel_to_json(luders(A08))) == "channel"
    assert document_kind(dilation_to_json(naimark_minimal(A08))) == "dilation"
    with pytest.raises(SchemaError):
        document_kind({"stuff": 1})
