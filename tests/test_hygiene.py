"""Static hygiene of the package source, read with ``ast`` only: every import
is used, every ``__all__`` entry names something the module defines, and every
def and class is referenced somewhere in the repository's code."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stefanlab"
MODULES = sorted(SRC.glob("*.py"))
#: where a reference to a package definition may come from
CODE_DIRS = ("src", "tests", "demos", "benchmarks")
#: definitions only called from outside the repository: argparse calls ``error``
CALLED_FROM_OUTSIDE = {"_Parser.error"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree):
    """Name bound by each import in the module, except ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names | set(_imported(tree))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_all_entries(tree))
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_all_entries_resolve(path):
    tree = _tree(path)
    missing = sorted(set(_all_entries(tree)) - _top_level_names(tree))
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


def _definitions(node, prefix=""):
    """(qualified name, name, line) of every def and class under node; methods
    and nested functions are qualified by what encloses them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child.name, child.lineno
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _referenced_names():
    """Every name, attribute, imported name and whole string constant in the
    repository's code."""
    names = set()
    for top in CODE_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_definition_is_referenced():
    used = _referenced_names()
    unused = [f"{path.name}: {qual} (line {line})"
              for path in MODULES for qual, name, line in _definitions(_tree(path))
              if not (name.startswith("__") and name.endswith("__"))
              and qual not in CALLED_FROM_OUTSIDE and name not in used]
    assert not unused, f"definitions nothing references: {unused}"
