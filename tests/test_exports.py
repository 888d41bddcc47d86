"""Every name that a module of the package exports exists."""

import importlib
import pkgutil

import pytest

import opentropy

MODULES = [f"opentropy.{info.name}" for info in pkgutil.iter_modules(opentropy.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # A stale entry breaks `from module import *` while explicit imports pass.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_exporting_modules_are_found():
    assert {"opentropy.bounds", "opentropy.matcore", "opentropy.verify"} <= set(MODULES)
