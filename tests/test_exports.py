"""Every exported name resolves, so a deletion leaves no stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import traintrack


def test_every_export_resolves():
    # each name in a module's __all__ is defined there, and each name the
    # package imports from a module is defined there and, where the module
    # has an __all__, listed in it
    stale = []
    for info in pkgutil.iter_modules(traintrack.__path__):
        module = importlib.import_module(f"traintrack.{info.name}")
        stale += [
            f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)
        ]
    for node in ast.parse(Path(traintrack.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"traintrack.{node.module}")
            exported = getattr(module, "__all__", None)
            stale += [
                f"{node.module}.{a.name}"
                for a in node.names
                if not hasattr(module, a.name) or (exported and a.name not in exported)
            ]
    assert not stale
