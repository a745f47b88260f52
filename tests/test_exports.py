"""The package's export lists: every name they give exists.

``bench/tracer.py`` wraps every callable named in a module's ``__all__``
with ``getattr``, so a stale entry would stop every traced benchmark pass.
"""

import ast
import importlib
from pathlib import Path

import pytest

import homconj

MODULES = ("cli", "conjugacy", "families", "funcspace", "homspace", "koopman")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"homconj.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing


def test_the_package_imports_only_exported_names():
    tree = ast.parse(Path(homconj.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        exported = importlib.import_module(f"homconj.{node.module}").__all__
        unexported = [a.name for a in node.names if a.name not in exported]
        assert not unexported, node.module
