"""Every public name and every name the benchmark traces resolves, no
module reaches into another's private names, and in the CLI only _write
creates files or directories.

A deleted or renamed function fails here, naming the attribute, instead of
only in a traced benchmark run."""

import ast
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


def _private_cross_module_uses(source):
    """(line, name) of every underscore name that the module source imports
    from a sphbeam module, or reads as an attribute of a sphbeam module it
    imported (``from . import mod`` ... ``mod._name``); dunders excepted."""
    tree = ast.parse(source)
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "sphbeam"
                                                 or (node.module or "").startswith("sphbeam.")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    uses.append((node.lineno, alias.name))
                if node.module in (None, "sphbeam"):  # a module: from . import name
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return uses


def test_no_private_cross_module_imports():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(Path(sphbeam.__file__).parent.glob("*.py"))
             for line, name in _private_cross_module_uses(path.read_text())]
    assert not found, f"private names used across sphbeam modules: {found}"


@pytest.mark.parametrize("source, count", [
    ("from .virtualmeas import _sh_tables, simulate", 1),
    ("from sphbeam.cli import _write", 1),
    ("from . import virtualmeas as vm\nvm._pattern_grids()", 1),
    ("from . import sphmath\nsphmath.sh_matrix\nsphmath.__name__", 0),
    ("from _sha2 import sha256\nfrom .radiation import C", 0),
])
def test_private_cross_module_check_finds_its_cases(source, count):
    assert len(_private_cross_module_uses(source)) == count


# calls that create a file or a directory: open() and these attributes of any object
_CREATING_ATTRS = ("open", "makedirs", "mkdir", "write_text", "write_bytes")


def _file_creations(source):
    """(line, call) of every call in the module source that can create a
    file or a directory, outside the module-level function ``_write``."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == "_write"
              for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(node.func, ast.Attribute) and node.func.attr in _CREATING_ATTRS:
            found.append((node.lineno, f".{node.func.attr}"))
    return found


def test_only_write_creates_files_in_the_cli():
    path = Path(sphbeam.__file__).parent / "cli.py"
    found = [f"cli.py:{line}: {call}" for line, call in _file_creations(path.read_text())]
    assert not found, f"files or directories created outside cli._write: {found}"


@pytest.mark.parametrize("source, count", [
    ("with open(path, 'w') as f:\n    f.write('x')", 1),
    ("fd = os.open(path, os.O_WRONLY | os.O_CREAT)", 1),
    ("os.makedirs(out, exist_ok=True)", 1),
    ("def _make_out(out):\n    out.mkdir(parents=True, exist_ok=True)", 1),
    ("Path(out).write_text('x')\nPath(out).write_bytes(b'x')", 2),
    ("def cmd(out):\n    def _write(path):\n        open(path, 'w')", 1),  # not module level
    ("def _write(path, chunks):\n    try:\n        fd = os.open(path, os.O_CREAT)\n"
     "    except FileNotFoundError:\n        os.makedirs(Path(path).parent)", 0),
    ("Path(path).read_text()\nos.write(fd, b'x')\njson.dumps(doc)\nos.fstat(fd)", 0),
])
def test_file_creation_check_finds_its_cases(source, count):
    assert len(_file_creations(source)) == count
