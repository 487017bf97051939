"""No dead code in `src/laguerre_lab`, read off each module's syntax tree:
every import a module makes is read there (or re-exported through its
`__all__`), and every module-level private function, class or assignment
is read by some module of the package.  `__init__.py` imports only to
export, so its imports are exempt."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import laguerre_lab

SOURCES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(Path(laguerre_lab.__path__[0]).glob("*.py"))}


def _loaded(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _public_list(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _private_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _read_anywhere() -> set[str]:
    names = set()
    for tree in SOURCES.values():
        names |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {a.name for a in node.names}
    return names


# every name some module loads, reads as an attribute or imports
READ = _read_anywhere()


def test_the_package_modules_are_found():
    assert {"__init__.py", "checks.py", "gf.py", "models.py", "plane.py"} <= set(SOURCES)


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {"__init__.py"}))
def test_every_import_is_read(name):
    tree = SOURCES[name]
    unread = _imported(tree) - _loaded(tree) - _public_list(tree)
    assert not unread, f"{name} imports {sorted(unread)} and never reads them"


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_private_module_name_is_read(name):
    unread = _private_definitions(SOURCES[name]) - READ
    assert not unread, f"{name} defines {sorted(unread)} and no module reads them"
