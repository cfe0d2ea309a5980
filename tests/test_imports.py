"""No module of the package imports a name it never uses, and every public
name it defines has a reader. No linter runs on the package, so this walks
its syntax trees instead. The package's __init__ imports only to re-export,
and is left out."""

import ast
import importlib.util
import re
from pathlib import Path

import loopsoup

ROOT = Path(loopsoup.__file__).parent
REPO = Path(__file__).resolve().parents[1]

# Public names that nothing in the package or the benchmark reads and the
# README does not name, each with the reason it stays.
UNREAD_BUT_KEPT = {
    "signature.shuffle_check": "free-Lie-algebra toolkit of the README "
    "introduction; acceptance criterion 02 checks the shuffle identity with it",
    "signature.is_lie_component": "free-Lie-algebra toolkit; acceptance "
    "criterion 02 checks that log-signature components are Lie with it",
    "signature.witt_dimension": "free-Lie-algebra toolkit; acceptance "
    "criterion 01 checks the Witt dimensions",
    "signature.bracket_expansion": "free-Lie-algebra toolkit: a Lyndon "
    "bracket expanded into words, the triangular change to the Lyndon basis",
    "signature.h3_slot_word": "free-Lie-algebra toolkit: the group word "
    "of an H3 slot's basis bracket, which homology3 maps to that slot alone",
    "signature.LiePoly.to_tensor": "free-Lie-algebra toolkit: the tensor "
    "of a Lie polynomial, the inverse of LiePoly.from_tensor",
}


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


def scipy_imports(source: str) -> list[str]:
    """The scope of every import of scipy or of a scipy submodule: the
    names of the enclosing classes and functions, each followed by a dot,
    or "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                modules = [child.module]
            else:
                modules = []
            found.extend(scope for m in modules if m.partition(".")[0] == "scipy")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}{child.name}.")
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_check_finds_scipy_imports():
    source = ("import scipy.linalg\nclass A:\n    def f(self):\n"
              "        from scipy import sparse\n        if x:\n"
              "            import numpy, scipy as s\n"
              "def g():\n    from .scipy import x\n")
    assert scipy_imports(source) == ["", "A.f.", "A.f."]


def test_scipy_is_imported_by_the_newton_step_alone():
    # scipy's sparse modules cost more at start-up than the whole package;
    # only the sparse Newton step of a rho solve above the dense limit needs
    # them, and a second caller would load them in a verb that does not
    found = {path.stem: scipy_imports(path.read_text())
             for path in sorted(ROOT.glob("*.py"))}
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "spectra": ["_EdgeSystem.newton_step.", "_EdgeSystem.newton_step."]}


def public_definitions(path: Path) -> list[tuple[str, str, bool]]:
    """(module.name or module.Class.member, name, whether a member) for
    every top-level function and class of a module, and every method and
    annotated class attribute (a dataclass field) of its public classes,
    whose name does not start with an underscore."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
            continue
        found.append((f"{path.stem}.{node.name}", node.name, False))
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if name[0] != "_":
                found.append((f"{path.stem}.{node.name}.{name}", name, True))
    return found


def test_public_definitions_list_fields_and_methods(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class Table:\n    size: int\n    _rows: list\n    note = 1\n"
                    "    def read(self):\n        pass\n"
                    "class _Hidden:\n    size: int\n")
    assert public_definitions(path) == [("mod.Table", "Table", False),
                                        ("mod.Table.size", "size", True),
                                        ("mod.Table.read", "read", True)]


def read_names(paths) -> tuple[set[str], set[str]]:
    """The names that the sources read as a Name, and those they read as
    an Attribute."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def code_names(markdown: str) -> set[str]:
    """The words inside the code blocks and code spans of a Markdown text."""
    code = re.findall(r"^```.*?^```|`[^`\n]+`", markdown, re.M | re.S)
    return set(re.findall(r"\w+", " ".join(code)))


def test_code_names_skip_prose():
    text = ("The base of a `BasedLoop`.\n\n```python\nx = f(primitive)\n```\n"
            "A primitive word, and ``` in prose.\n")
    assert code_names(text) == {"BasedLoop", "python", "x", "f", "primitive"}


def test_every_public_name_has_a_reader():
    # a public name is read in the package or the benchmark (a method or
    # a field only as an attribute), wrapped by the benchmark's span
    # tracer, named in the README's code, or kept above with a reason; the
    # tests alone do not keep a name
    names, attributes = read_names(sorted(ROOT.glob("*.py"))
                                   + sorted((REPO / "perfbench").glob("*.py")))
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = ({f"{mod}.{attr}" for mod, attr, _ in spans.FUNCTIONS}
               | {f"{mod}.{cls}.{meth}" for mod, cls, meth, _ in spans.METHODS})
    readme = code_names((REPO / "README.md").read_text())
    defined = [d for path in sorted(ROOT.glob("*.py")) if path.name != "__init__.py"
               for d in public_definitions(path)]
    assert len(defined) >= 100
    unread = {full for full, name, method in defined
              if name not in attributes and (method or name not in names)
              and full not in wrapped and name not in readme}
    # equality: an entry above that gains a reader, or loses its definition,
    # leaves the list
    assert unread == set(UNREAD_BUT_KEPT)
