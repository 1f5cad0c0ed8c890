import ast
import importlib
import pathlib

import pytest

import mtfr

# the library modules that declare __all__ (errors.py holds only the
# exception classes and declares none)
MODULES = ["certify", "checks", "gaussian", "grid", "serialize", "symplectic", "unitary"]
PACKAGE = pathlib.Path(mtfr.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"mtfr.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing


def unused_imports(source: str, package_init: bool = False) -> list:
    """The names a module imports and never reads, by line.

    A name counts as read when it appears as a name anywhere in the module
    or as a string in its __all__.  `from __future__` imports are exempt,
    and so, in a package's __init__, are `from . import submodule` loads,
    which run the submodules.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (
                package_init and node.level == 1 and node.module is None
            ):
                continue
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), package_init=path.name == "__init__.py") == []


def test_unused_import_scan_finds_them():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .symplectic import Chirp, Dilation\n"
        "from . import grid\n"
        "__all__ = ['Chirp']\n"
        "x = np.zeros(2)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: Dilation", "line 5: grid"]
    assert unused_imports(source, package_init=True) == ["line 2: os", "line 4: Dilation"]
