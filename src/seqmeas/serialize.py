"""JSON wire formats for observables, channels, dilations and solver outcomes.

Matrices are nested arrays of [re, im] pairs in row-major order, so the
files stay language-neutral.  Readers validate structure eagerly, refuse
matrix entries that are not finite numbers, and report the
JSON-pointer-style path of the first offending element; semantic checks
(positivity, normalization, trace preservation) stay with the owning types.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from .channels import KrausChannel
from .dilation import NaimarkDilation
from .feasibility import FeasibilityOutcome
from .povm import Label, Povm
from .sequential import SequentialScheme

__all__ = [
    "SchemaError",
    "matrix_to_json",
    "matrix_from_json",
    "povm_to_json",
    "povm_from_json",
    "channel_to_json",
    "channel_from_json",
    "dilation_to_json",
    "dilation_from_json",
    "outcome_to_json",
    "scheme_to_json",
    "document_kind",
]


class SchemaError(ValueError):
    """Structurally malformed document; ``path`` points at the bad element."""

    def __init__(self, path: str, message: str):
        self.path = path or "/"
        super().__init__(f"{self.path}: {message}")


def _as_int(obj: Any, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(path, f"expected an integer, got {type(obj).__name__}")
    return obj


def _as_number(obj: Any, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(obj).__name__}")
    try:
        value = float(obj)
    except OverflowError:
        raise SchemaError(path, "integer too large for a float") from None
    if not math.isfinite(value):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return value


def _as_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(path, f"expected an array, got {type(obj).__name__}")
    return obj


def _as_object(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _field(obj: Mapping, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(path, f"missing required field '{key}'")
    return obj[key]


def matrix_to_json(m: np.ndarray) -> list:
    a = np.ascontiguousarray(m, dtype=np.complex128)
    # each complex entry read in place as its [re, im] pair of float64
    return a[..., None].view(np.float64).tolist()


# the number types json.load produces; anything else takes the exact check
_JSON_NUMBERS = {int, float}


def _check_pair(obj: Any, path: str) -> None:
    pair = _as_list(obj, path)
    if len(pair) != 2:
        raise SchemaError(path, "expected a [re, im] pair")
    for k, part in enumerate(pair):
        _as_number(part, f"{path}/{k}")


def matrix_from_json(obj: Any, path: str = "") -> np.ndarray:
    rows = _as_list(obj, path)
    if not rows:
        raise SchemaError(path, "matrix has no rows")
    width = len(_as_list(rows[0], f"{path}/0"))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            entries = _as_list(row, f"{path}/{i}")
            raise SchemaError(f"{path}/{i}", f"row has {len(entries)} entries, expected {width}")
        for j, entry in enumerate(row):
            # paths are formatted only for entries the fast test cannot pass
            if (entry.__class__ is not list or len(entry) != 2
                    or entry[0].__class__ not in _JSON_NUMBERS
                    or entry[1].__class__ not in _JSON_NUMBERS):
                _check_pair(entry, f"{path}/{i}/{j}")
    if width == 0:
        raise SchemaError(path, "matrix has no columns")
    try:
        m = np.array(rows, dtype=np.float64)
    except OverflowError:
        m = None
    if m is None or not np.isfinite(m).all():
        # only now walk the entries, to name the one that overflowed or
        # is NaN or infinite (Python's json reads NaN and Infinity)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                _check_pair(entry, f"{path}/{i}/{j}")
    return m.view(np.complex128)[..., 0]


def _label_from_json(obj: Any, path: str) -> Label:
    parts = _as_list(obj, path)
    if not parts:
        raise SchemaError(path, "label has no components")
    return tuple(_as_int(c, f"{path}/{i}") for i, c in enumerate(parts))


def povm_to_json(p: Povm) -> dict:
    return {
        "dim": p.dim,
        "outcomes": [
            {"label": list(lbl), "matrix": eff}
            for lbl, eff in zip(p.labels, matrix_to_json(p.effects))
        ],
    }


def povm_from_json(obj: Any, path: str = "") -> Povm:
    doc = _as_object(obj, path)
    dim = _as_int(_field(doc, "dim", path), f"{path}/dim")
    if dim < 1:
        raise SchemaError(f"{path}/dim", f"dimension must be positive, got {dim}")
    raw = _as_list(_field(doc, "outcomes", path), f"{path}/outcomes")
    if not raw:
        raise SchemaError(f"{path}/outcomes", "observable has no outcomes")
    outcomes = []
    for i, item in enumerate(raw):
        here = f"{path}/outcomes/{i}"
        rec = _as_object(item, here)
        lbl = _label_from_json(_field(rec, "label", here), f"{here}/label")
        eff = matrix_from_json(_field(rec, "matrix", here), f"{here}/matrix")
        if eff.shape != (dim, dim):
            raise SchemaError(f"{here}/matrix", f"expected a {dim}x{dim} matrix, got {eff.shape[0]}x{eff.shape[1]}")
        outcomes.append((lbl, eff))
    try:
        return Povm(dim, tuple(outcomes))
    except ValueError as exc:
        raise SchemaError(f"{path}/outcomes", str(exc)) from exc


def _label_key(lbl: Label) -> str:
    return ",".join(str(c) for c in lbl)


def _label_from_key(key: str, path: str) -> Label:
    try:
        return tuple(int(c) for c in key.split(","))
    except ValueError:
        raise SchemaError(path, f"cannot parse label key '{key}'") from None


def channel_to_json(c: KrausChannel) -> dict:
    doc: dict = {
        "dim_in": c.dim_in,
        "dim_out": c.dim_out,
        "kraus": matrix_to_json(c.kraus),
    }
    if c.partition is not None:
        doc["partition"] = {
            _label_key(lbl): list(idx) for lbl, idx in c.partition.items()
        }
    return doc


def channel_from_json(obj: Any, path: str = "") -> KrausChannel:
    doc = _as_object(obj, path)
    dim_in = _as_int(_field(doc, "dim_in", path), f"{path}/dim_in")
    dim_out = _as_int(_field(doc, "dim_out", path), f"{path}/dim_out")
    raw = _as_list(_field(doc, "kraus", path), f"{path}/kraus")
    if not raw:
        raise SchemaError(f"{path}/kraus", "channel has no Kraus operators")
    kraus = []
    for i, item in enumerate(raw):
        k = matrix_from_json(item, f"{path}/kraus/{i}")
        if k.shape != (dim_out, dim_in):
            raise SchemaError(
                f"{path}/kraus/{i}",
                f"expected a {dim_out}x{dim_in} matrix, got {k.shape[0]}x{k.shape[1]}",
            )
        kraus.append(k)
    partition = None
    if "partition" in doc:
        part_doc = _as_object(doc["partition"], f"{path}/partition")
        partition = {}
        for key, val in part_doc.items():
            here = f"{path}/partition/{key}"
            lbl = _label_from_key(key, here)
            idx = _as_list(val, here)
            partition[lbl] = tuple(_as_int(v, f"{here}/{j}") for j, v in enumerate(idx))
    try:
        return KrausChannel(dim_in, dim_out, tuple(kraus), partition)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def dilation_to_json(d: NaimarkDilation) -> dict:
    return {
        "dim_k": d.dim_k,
        "v": matrix_to_json(d.isometry),
        "sharp": povm_to_json(d.sharp),
    }


def dilation_from_json(obj: Any, path: str = "") -> NaimarkDilation:
    doc = _as_object(obj, path)
    dim_k = _as_int(_field(doc, "dim_k", path), f"{path}/dim_k")
    v = matrix_from_json(_field(doc, "v", path), f"{path}/v")
    sharp = povm_from_json(_field(doc, "sharp", path), f"{path}/sharp")
    try:
        return NaimarkDilation(dim_k, v, sharp)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def outcome_to_json(o: FeasibilityOutcome) -> dict:
    doc: dict = {
        "status": o.status,
        "residual": float(o.residual),
        "iterations": int(o.iterations),
        "reason": o.reason,
    }
    if o.witness is not None:
        doc["witness"] = [matrix_to_json(w) for w in o.witness]
    if o.infeasibility_floor is not None:
        doc["infeasibility_floor"] = float(o.infeasibility_floor)
    return doc


def scheme_to_json(s: SequentialScheme) -> dict:
    return {
        "A": povm_to_json(s.first),
        "channel": channel_to_json(s.channel),
        "B_prime": povm_to_json(s.second),
        "implemented": povm_to_json(s.implemented),
    }


def document_kind(obj: Any) -> str:
    """Classify a parsed document as 'povm', 'channel' or 'dilation'."""
    doc = _as_object(obj, "")
    if "outcomes" in doc:
        return "povm"
    if "kraus" in doc:
        return "channel"
    if "dim_k" in doc:
        return "dilation"
    raise SchemaError("", "document is neither an observable, a channel nor a dilation")
