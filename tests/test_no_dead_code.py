"""Every package definition has a caller, and every import a reader.

A top-level function or class of ``src/continuum_lab``, or a non-dunder
method of a top-level class, must be named in ``src/``, ``demos/`` or
``perfbench/*.py`` other than by a definition: as a name, an attribute,
an imported name or part of a dotted string (the tracer's targets).
Definitions do not count as names, so two same-named definitions that
nothing calls both fail.  Tests are not callers: library code that only
tests call fails here.  An import must be read by its module, or
re-imported from it by another package module.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "continuum_lab").glob("*.py"))
CALLERS = (PACKAGE + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))

# Definitions kept with no caller, each with its reason.
KEEP = {
    # The only reader of a tower's origin and rotation, the placement in the
    # plane that build_tower(x, y) promises; the frame tests check it.
    "realize.ChainTower.cell_center",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def _definitions(tree):
    """(qualified name, name) of the top-level functions and classes and of
    the non-dunder methods of top-level classes."""
    for node in tree.body:
        if _is_def(node):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_def(item) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _names(tree):
    """Every name the tree mentions outside a definition's own name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def _dead():
    refs = Counter(name for path in CALLERS for name in _names(_tree(path)))
    return {f"{path.stem}.{qual}" for path in PACKAGE
            for qual, name in _definitions(_tree(path)) if not refs[name]}


def test_every_definition_has_a_caller():
    assert sorted(_dead() - KEEP) == []


def test_the_keep_list_holds_only_definitions_with_no_caller():
    assert _dead() >= KEEP


def test_every_import_is_read():
    trees = {path.stem: _tree(path) for path in PACKAGE}
    reimported = {(node.module, alias.name) for tree in trees.values()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level
                  for alias in node.names}
    unread = []
    for stem, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and (stem, alias.name) not in reimported:
                    unread.append(f"{stem}: {alias.name}")
    assert unread == []
