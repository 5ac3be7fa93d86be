import importlib
import pkgutil

import pytest

import dressedrabi

MODULES = ["hilbert", "rabi", "adiabatic", "schrieffer_wolff", "lindblad", "dynamics", "spectroscopy", "cli"]


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"dressedrabi.{module}" if module else "dressedrabi")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_lists_every_module():
    found = {info.name for info in pkgutil.iter_modules(dressedrabi.__path__)}
    assert found == set(MODULES)
