"""The public names: every module's ``__all__`` and the package's re-exports."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import structprox

MODULES = sorted(m.name for m in pkgutil.iter_modules(structprox.__path__, "structprox."))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    # tools that walk __all__ skip a missing name silently, so a deleted
    # helper left listed would otherwise go unnoticed
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_imports_only_listed_names():
    imports = [node for node in ast.parse(inspect.getsource(structprox)).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("structprox." + node.module)
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(structprox, alias.asname or alias.name) is getattr(module, alias.name)
