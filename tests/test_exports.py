"""Every name a lagkit module exports in ``__all__`` must resolve."""

import importlib
import pkgutil

import pytest

import lagkit

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(lagkit.__path__, "lagkit.")
)


def test_every_module_found():
    assert "lagkit.verifier" in MODULES and "lagkit.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"duplicate names in {name}.__all__"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
