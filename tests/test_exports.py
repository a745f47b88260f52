"""The package's export lists: every name they give exists, and the package
re-exports each of them as the module's own object.

``bench/tracer.py`` wraps every callable named in a module's ``__all__``
with ``getattr``, so a stale entry would stop every traced benchmark pass,
and rebinds each wrapper wherever the same object is bound, so a package
name bound to another object would escape the trace.
"""

import importlib

import pytest

import homconj

MODULES = ("cli", "conjugacy", "families", "funcspace", "homspace", "koopman")
# the modules whose __all__ the package re-exports; cli is its entry point
REEXPORTED = ("conjugacy", "families", "funcspace", "homspace", "koopman")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"homconj.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing


def test_the_package_binds_each_exported_name_to_its_module_object():
    exported = set()
    for name in REEXPORTED:
        mod = importlib.import_module(f"homconj.{name}")
        stray = [attr for attr in mod.__all__
                 if getattr(homconj, attr, None) is not getattr(mod, attr)]
        assert not stray, name
        exported.update(mod.__all__)
    public = {attr for attr in vars(homconj) if not attr.startswith("_")}
    assert public - set(MODULES) == exported
