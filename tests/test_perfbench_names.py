"""The benchmark reaches package functions by name, so every name it uses
must still exist in its module: perfbench/tracing.py's LAYER_FUNCTIONS,
which the tracer wraps, and every ``lp_<module>.<name>`` attribute and
``from leonardpairs.<module> import`` name in perfbench/workloads.py.  A
deleted or renamed function would otherwise break every benchmark run
while the package's own tests stay green."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_FUNCTIONS


def _workload_names() -> list:
    """(module, name) pairs read from workloads.py's source, not imported."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "leonardpairs":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("leonardpairs."):
            module = node.module.removeprefix("leonardpairs.")
            used.update((module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                used.add((aliases[node.value.id], node.attr))
    return sorted(used)


@pytest.mark.parametrize("module,names", sorted(_layer_functions().items()))
def test_traced_functions_resolve(module, names):
    package_module = importlib.import_module(f"leonardpairs.{module}")
    assert [n for n in names if not callable(getattr(package_module, n, None))] == []


def test_workload_names_resolve():
    names = _workload_names()
    # names only the benchmark and the tests reach; a parse that found
    # none of them would pass vacuously
    assert {("matrix", "conjugate"), ("parray", "poly_u"), ("parray", "poly_u_dual")} <= set(names)
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"leonardpairs.{module}"), name)
    ]
    assert missing == []
