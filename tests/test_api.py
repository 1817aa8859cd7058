"""The public surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import spherestruct

MODULES = ["spherestruct"] + [
    f"spherestruct.{info.name}" for info in pkgutil.iter_modules(spherestruct.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], name
