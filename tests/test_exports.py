"""Every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import dualband

MODULES = ["dualband"] + sorted(
    m.name for m in pkgutil.iter_modules(dualband.__path__, "dualband."))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
