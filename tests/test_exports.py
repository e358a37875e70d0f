"""Every name a module lists in __all__ resolves on that module."""

import importlib

import pytest


@pytest.mark.parametrize("module", [
    "wavefield",
    "wavefield.connection",
    "wavefield.transform",
    "wavefield.fock",
    "wavefield.flow",
    "wavefield.diagnostics",
    "wavefield.cli",
])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
