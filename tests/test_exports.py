import ast
import importlib
import pathlib
import pkgutil

import pytest

import carlitz
from carlitz.fq import Fq

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
    ``_fp_*`` functions, the index view (``_ix``) and the test for its
    domain (``_interned``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name.startswith("_fp_") or name in ("_ix", "_interned"):
            yield name


def test_only_poly_and_ratfun_see_the_fp_kernel():
    # the index-list format stays behind poly's kernel and ratfun's index
    # kernel of Henrici's rule; every other module goes through those
    src = pathlib.Path(carlitz.__file__).parent
    users = {path.name for path in src.glob("*.py")
             if any(fp_kernel_names(ast.parse(path.read_text())))}
    assert users == {"poly.py", "ratfun.py"}


def ix_writers(node, scope=""):
    """The function, qualified by its class, of every store to ``_ix``
    under node: an assignment target or a ``setattr(x, "_ix", ...)``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from ix_writers(child, f"{scope}.{child.name}".lstrip("."))
            continue
        store = (isinstance(child, ast.Attribute) and child.attr == "_ix"
                 and not isinstance(child.ctx, ast.Load))
        if isinstance(child, ast.Call) and "setattr" in ast.unparse(
                child.func):
            store = any(isinstance(a, ast.Constant) and a.value == "_ix"
                        for a in child.args)
        if store:
            yield scope
        yield from ix_writers(child, scope)


def test_index_views_are_set_only_where_polys_are_built():
    # every F_p Poly gets its view when it is built, by Poly.__init__ or by
    # the kernel's _fp_poly, and nothing writes one afterwards
    src = pathlib.Path(carlitz.__file__).parent
    writers = {(path.name, scope) for path in src.glob("*.py")
               for scope in ix_writers(ast.parse(path.read_text()))}
    assert writers == {("poly.py", "Poly.__init__"), ("poly.py", "_fp_poly")}


def test_field_tables_are_built_with_the_field():
    src = pathlib.Path(carlitz.__file__).parent
    tree = ast.parse((src / "fq.py").read_text())
    assert "_Table" not in {getattr(n, "name", getattr(n, "id", None))
                            for n in ast.walk(tree)}
    for q in (2, 4, 9):
        field = Fq(q)  # fresh, not the cached instance
        for name in ("_add", "_neg", "_mul", "_inv"):
            assert type(getattr(field, name)) is list, (q, name)
    assert type(Fq.get(4)._mul) is list


def test_no_assert_statements_in_the_package():
    # invariants are explicit exceptions (InvariantError), which python -O
    # keeps; an assert statement would vanish under it
    src = pathlib.Path(carlitz.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
