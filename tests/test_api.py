"""Every public name and every name the benchmark traces resolves.

A deleted or renamed function fails here, naming the attribute, instead of
only in a traced benchmark run."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import sphbeam

SHIM = Path(__file__).resolve().parents[1] / "bench" / "shim.py"
MODULES = sorted(f"sphbeam.{info.name}" for info in pkgutil.iter_modules(sphbeam.__path__))


def _traced(monkeypatch):
    """bench/shim.py's TRACED, loaded without running its main or writing
    its bytecode under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_shim", SHIM)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    return [(modname, name) for modname, names in shim.TRACED.items() for name in names]


@pytest.mark.parametrize("modname", MODULES)
def test_public_names_exist(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{modname}.__all__ names missing attributes: {missing}"


def test_traced_names_resolve(monkeypatch):
    missing = [f"{modname}.{name}" for modname, name in _traced(monkeypatch)
               if not callable(getattr(importlib.import_module(modname), name, None))]
    assert not missing, f"bench/shim.py TRACED names missing functions: {missing}"
