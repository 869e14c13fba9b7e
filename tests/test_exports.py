"""Every name a seqmeas module lists in ``__all__`` exists in it, and only
predicates take a tolerance."""

import importlib
import inspect
import pkgutil

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
