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


def _tolerance(node) -> bool:
    """Whether an expression reads a TOL_* name, COND_MAX, tol or a float
    literal in (0, 1e-6]."""
    return any(
        (isinstance(n, ast.Name) and (n.id.startswith("TOL_") or n.id in ("COND_MAX", "tol")))
        or (isinstance(n, ast.Constant) and type(n.value) is float and 0.0 < n.value <= 1e-6)
        for n in ast.walk(node)
    )


def _open_comparison(node, negated=False) -> bool:
    """Whether node holds an ordering comparison against a tolerance that no
    `not` encloses: such a comparison is False on a nan."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        negated = True
    if (
        not negated
        and isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
        and _tolerance(node)
    ):
        return True
    return any(_open_comparison(child, negated) for child in ast.iter_child_nodes(node))


def open_gates(source: str) -> list:
    """The raising gates that a nan passes, by line.

    A gate is an `if` whose body raises.  It is open when its test compares
    with <, <=, > or >= against a tolerance outside a `not`: the comparison
    is then False on a nan, and the raise never runs.  `symplectic._within`
    and `symplectic._near_singular` are the fail-closed forms.
    """
    return [f"line {line}" for line in sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If)
        and any(isinstance(stmt, ast.Raise) for stmt in node.body)
        and _open_comparison(node.test)
    )]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_gate_fails_closed(path):
    assert open_gates(path.read_text()) == []


def test_open_gate_scan_finds_them():
    source = (
        "if defect > TOL_SYMPL:\n"  # line 1: open
        "    raise E\n"
        "if not defect <= tol * max(scale, 1.0):\n"
        "    raise E\n"
        "if not _within(defect, tol, scale):\n"
        "    raise E\n"
        "if np.isfinite(c) and c > COND_MAX:\n"  # line 7: open
        "    raise E\n"
        "if s[0] <= 1e-12:\n"  # line 9: open
        "    raise E\n"
        "if x < 1.5 or w <= 0.0:\n"  # no tolerance
        "    raise E\n"
        "if abs(wn - w) <= 1e-8:\n"  # does not raise
        "    w = wn\n"
    )
    assert open_gates(source) == ["line 1", "line 7", "line 9"]
