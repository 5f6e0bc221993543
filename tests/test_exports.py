"""Every exported name exists, and the package namespace re-exports only exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import longwire

MODULES = sorted(info.name for info in pkgutil.iter_modules(longwire.__path__))
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(f"longwire.{name}"), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"longwire.{name}")
    assert [item for item in module.__all__ if not hasattr(module, item)] == []


def package_imports():
    """(module, name) for every `from .module import name` in longwire/__init__.py."""
    tree = ast.parse(Path(longwire.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_only_exported_names():
    imports = package_imports()
    assert len(imports) > 30  # the parse found the import block
    missing = [
        (module, name)
        for module, name in imports
        if name not in getattr(importlib.import_module(f"longwire.{module}"), "__all__", ())
    ]
    assert missing == []
