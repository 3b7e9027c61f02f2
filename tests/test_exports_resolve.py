"""Every exported name resolves.

A deletion that leaves its name in an ``__all__`` breaks only
``from module import *``, which no caller runs; this checks the package's
``__all__`` and each module's, so such a stale export fails here.
"""

import importlib
import pkgutil
import types

import pytest

import polarmin

MODULES = ["polarmin"] + [
    f"polarmin.{info.name}" for info in pkgutil.iter_modules(polarmin.__path__)
]


def stale_exports(module: types.ModuleType) -> list[str]:
    return [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert stale_exports(module) == [], f"{name}.__all__ names missing attributes"


def test_the_guard_finds_a_stale_export():
    module = types.ModuleType("stale")
    module.kept = 1
    module.__all__ = ["kept", "deleted"]
    assert stale_exports(module) == ["deleted"]
