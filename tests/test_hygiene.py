"""Import hygiene of the package sources, checked with ``ast`` alone.

Every name in a module's ``__all__`` is defined in that module, and every
module-level import is used in it (or re-exported through ``__all__``).  A
deletion that leaves an import or an export behind fails here.
"""

import ast
from pathlib import Path

import pytest

_SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "supermod").glob("*.py"))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by module-level imports, with their line numbers."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _definitions(tree: ast.Module) -> set[str]:
    defined = set(_imports(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return defined


@pytest.fixture(params=_SOURCES, ids=[p.name for p in _SOURCES])
def tree(request) -> ast.Module:
    return ast.parse(request.param.read_text(), filename=str(request.param))


def test_sources_are_found():
    assert {p.name for p in _SOURCES} >= {"cli.py", "scalars.py", "weyl.py"}


def test_every_export_is_defined(tree):
    missing = [name for name in _exports(tree) if name not in _definitions(tree)]
    assert not missing


def test_every_import_is_used(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exports(tree))
    unused = {name: line for name, line in _imports(tree).items() if name not in used}
    assert not unused
