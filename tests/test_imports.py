"""No module of the package imports a name it never uses. No linter runs
on the package, so this walks its syntax trees instead. The package's
__init__ imports only to re-export, and is left out."""

import ast
from pathlib import Path

import loopsoup

ROOT = Path(loopsoup.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names that source imports (but from __future__) and never reads
    or lists in __all__."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from typing import Iterable, Sequence\n"
              "from .freegroup import TRIVIAL, canonical_class\n"
              "def f(x: Sequence) -> None:\n    return system.exit(canonical_class(x))\n")
    assert unused_imports(source) == ["os", "Iterable", "TRIVIAL"]
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(ROOT.glob("*.py")) if path.name != "__init__.py"}
    assert len(found) >= 9
    assert {name: names for name, names in found.items() if names} == {}
