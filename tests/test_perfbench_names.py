"""The benchmark's tracer wraps package functions by name, so every name
in perfbench/tracing.py's LAYER_FUNCTIONS must still exist in its module;
a deleted or renamed function would otherwise break `--trace 1` runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_FUNCTIONS


@pytest.mark.parametrize("module,names", sorted(_layer_functions().items()))
def test_traced_functions_resolve(module, names):
    package_module = importlib.import_module(f"leonardpairs.{module}")
    assert [n for n in names if not callable(getattr(package_module, n, None))] == []
