import ast
import importlib
import pathlib
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


def fp_kernel_names(tree):
    """The F_p kernel's private names that a module's code refers to: its
    ``_fp_*`` functions, the index views (``_ints``, ``_ix``) and the test
    for its domain (``_interned``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name.startswith("_fp_") or name in ("_ints", "_ix", "_interned"):
            yield name


def test_only_poly_and_ratfun_see_the_fp_kernel():
    # the index-list format stays behind poly's kernel and ratfun's index
    # kernel of Henrici's rule; every other module goes through those
    src = pathlib.Path(carlitz.__file__).parent
    users = {path.name for path in src.glob("*.py")
             if any(fp_kernel_names(ast.parse(path.read_text())))}
    assert users == {"poly.py", "ratfun.py"}
