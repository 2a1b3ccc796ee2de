"""The package's public names."""

import importlib
import pkgutil

import pytest

import switchopt

MODULES = ["switchopt"] + [f"switchopt.{info.name}" for info
                           in pkgutil.iter_modules(switchopt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
