import importlib
import pkgutil

import pytest

import carlitz

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(carlitz.__path__)
                    if m.name != "__main__")


def test_package_exports_resolve():
    missing = [n for n in carlitz.__all__ if not hasattr(carlitz, n)]
    assert not missing
    assert len(set(carlitz.__all__)) == len(carlitz.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    mod = importlib.import_module(f"carlitz.{name}")
    names = getattr(mod, "__all__", [])
    assert [n for n in names if not hasattr(mod, n)] == []
