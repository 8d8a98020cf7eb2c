"""Every exported name resolves, so a deletion leaves no stale export behind;
the package imports numpy and nothing else outside the standard library;
every cache is bounded."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_import_loads_numpy_only():
    # numpy is the one dependency: importing the package in a fresh
    # interpreter pulls in neither scipy nor mpmath
    code = (
        "import sys; before = set(sys.modules); import traintrack; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    src = str(Path(traintrack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    loaded = ast.literal_eval(out.stdout)
    assert "traintrack" in loaded and "numpy" in loaded
    assert not {"scipy", "mpmath"} & set(loaded)


def test_every_cache_is_bounded():
    # a functools cache without a maxsize grows with every key it sees,
    # which would void the memory bound the memoized modules document
    caches = {}
    for info in pkgutil.iter_modules(traintrack.__path__):
        module = importlib.import_module(f"traintrack.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                caches[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert caches  # the scan finds the caches there are
    assert all(size is not None for size in caches.values()), caches
