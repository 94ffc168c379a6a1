"""Every public name a module lists in __all__ exists, so star imports work."""

import importlib
import pkgutil

import pytest

import leonardpairs

# __main__ runs the command line when imported
MODULES = ["leonardpairs"] + sorted(
    f"leonardpairs.{name}"
    for _, name, _ in pkgutil.iter_modules(leonardpairs.__path__)
    if name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
