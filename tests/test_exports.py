"""Every name a seqmeas module lists in ``__all__`` exists in it, only
predicates take a tolerance, and every imported name is used."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import seqmeas

MODULES = ["seqmeas"] + [f"seqmeas.{m.name}" for m in pkgutil.iter_modules(seqmeas.__path__)]

# constructions read their tolerances from the linalg constants; these
# predicates keep a `tol` because their callers hold them to different
# accuracies (SolverOptions, a class, carries the solver's stopping tol)
TOLERANCE_TAKERS = {
    "validate", "is_sharp", "effects_close", "is_psd",
    "is_trace_preserving", "nondisturbing", "verify_dilation", "verify_sequential",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_only_predicates_take_a_tolerance(name):
    module = importlib.import_module(name)
    taking = {
        n for n in getattr(module, "__all__", ())
        if inspect.isfunction(f := getattr(module, n))
        and {"tol", "rank_tol"} & set(inspect.signature(f).parameters)
    }
    assert taking - TOLERANCE_TAKERS == set()


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_no_unused_imports():
    # no linter ships with the package, so this stands in for one rule of it
    unused = {}
    for path in sorted(Path(seqmeas.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        name = "seqmeas" if path.stem == "__init__" else f"seqmeas.{path.stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        if left := sorted(set(_imported_names(tree)) - used - exported):
            unused[path.name] = left
    assert unused == {}
