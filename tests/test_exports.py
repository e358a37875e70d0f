"""Every name a module lists in __all__ resolves on that module, and is
read somewhere in the package, the benchmark or the demos."""

import ast
import importlib
import pathlib

import pytest

import wavefield

MODULES = [
    "wavefield",
    "wavefield.connection",
    "wavefield.transform",
    "wavefield.fock",
    "wavefield.flow",
    "wavefield.diagnostics",
    "wavefield.cli",
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_exported_names_are_read():
    # a name counts as read where a bare name or an attribute loads it;
    # strings, imports and the __all__ lists themselves do not count
    package = pathlib.Path(wavefield.__file__).resolve().parent
    root = package.parents[1]
    reads = set()
    for folder in (package, root / "bench", root / "demos"):
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
    unread = sorted({name for module in MODULES
                     for name in importlib.import_module(module).__all__} - reads)
    assert not unread, f"exported but never read: {unread}"
