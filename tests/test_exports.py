"""Every public name the package declares must resolve, and every name a
module imports must be used."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import motioncode

MODULES = sorted(info.name for info in pkgutil.iter_modules(motioncode.__path__))


def test_every_module_is_checked():
    assert {"bench", "cli", "core", "dataio", "inference", "kernel", "objective",
            "optimizer"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"motioncode.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(motioncode.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.level == 1]
    assert imports, "the package re-exports nothing"
    for node in imports:
        source = importlib.import_module(f"motioncode.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(motioncode, name) is getattr(source, alias.name)
            assert alias.name in source.__all__, f"{node.module}.{alias.name}"


def test_dataio_imports_no_numerics():
    # reading and writing files, model files included, needs no kernel,
    # bound or posterior code
    code = ("import sys, motioncode.dataio; print(sorted(m for m in "
            "('motioncode.inference', 'motioncode.kernel', 'motioncode.objective') "
            "if m in sys.modules))")
    src = str(Path(motioncode.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_package_imports_no_scipy():
    # the only dense linear algebra beyond numpy's Cholesky is m x m
    # substitution, done in numpy; scipy would load a second BLAS
    code = ("import sys, motioncode, motioncode.cli, motioncode.bench, "
            "motioncode.objective, motioncode.inference; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(motioncode.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


ROOT = Path(__file__).resolve().parent.parent
IMPORTING = ([f"src/motioncode/{name}.py" for name in MODULES] + ["scripts/ucr_harness.py"]
             + sorted(f"tests/{path.name}" for path in (ROOT / "tests").glob("*.py")))


@pytest.mark.parametrize("path", IMPORTING)
def test_every_import_is_used(path):
    # the package's own __init__ imports only to re-export, so it is not listed
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
