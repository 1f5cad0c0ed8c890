import importlib

import pytest

# the library modules that declare __all__ (errors.py holds only the
# exception classes and declares none)
MODULES = ["certify", "checks", "gaussian", "grid", "serialize", "symplectic", "unitary"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"mtfr.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing
