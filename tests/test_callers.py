"""Regrowth guards: every definition in the program has a caller in the
program, every module under ``src/`` and ``tests/`` reads each name it
imports (``unread_imports``; the package ``__init__`` re-exports are exempt),
and no module under ``src/`` memoises with ``functools.cached_property``,
since ``rewrite.stored`` is the one per-object memo.

The program is ``src/``, ``scripts/`` and ``benchmark/``; ``tests/`` does not
count, so a function that only tests call is reported. The scan is by name:
a top-level function, class or method (dunders excepted) is live when its
name is referenced from module-level code, from a dunder method or class body
of a live class, or from the body of another live definition. References are
names, attribute names, and the dotted parts of string constants (the
benchmark looks up what it wraps by strings such as "Tensor.merge_legs").
Import statements are not references, so re-exporting a name from
``__init__.py`` does not keep it alive. Definitions that share a name are one
node, which can only hide dead code, never invent it. A module that imports
pytest (``benchmark/selftest.py``) is a test module and is not scanned.
Allowlisted definitions count as live, and so does what they call.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "benchmark")

# name -> why it stays although nothing in the program calls it
ALLOWLIST = {
    "registry": "builtin's public list of algebra names, the index of ``builtin.build``",
    "confluent": "ConfluenceReport's verdict, the documented reading of a confluence report",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Refs(ast.NodeVisitor):
    """Names referenced in a tree, skipping the bodies of nested definitions
    that are scanned as nodes of their own."""

    def __init__(self, skip: set[int]):
        self.skip = skip
        self.names: set[str] = set()

    def generic_visit(self, node):
        if id(node) in self.skip:
            return
        super().generic_visit(node)

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                self.names.update(parts)

    def visit_Import(self, node):
        pass

    def visit_ImportFrom(self, node):
        pass


def _definitions(tree: ast.Module):
    """(name, node, class node or None) for each top-level function or class
    and each method, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(sub.name):
                    yield sub.name, sub, node


def _refs(node: ast.AST, skip: set[int]) -> set[str]:
    visitor = _Refs(skip)
    for child in ast.iter_child_nodes(node):
        visitor.visit(child)
    return visitor.names


def _is_test_module(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Import) and any(a.name == "pytest" for a in node.names) for node in tree.body
    )


def unreferenced_definitions(allow=ALLOWLIST) -> list[str]:
    """``path:line name`` for each program definition that no live code
    references, the names in ``allow`` excepted."""
    edges: dict[str, set[str]] = {}  # definition name -> names its body references
    where: dict[str, list[str]] = {}
    roots: set[str] = set()
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if _is_test_module(tree):
                continue
            defs = list(_definitions(tree))
            nodes = {id(node) for _, node, _ in defs}
            for name, node, _ in defs:
                edges.setdefault(name, set()).update(_refs(node, nodes))
                where.setdefault(name, []).append(f"{path.relative_to(ROOT)}:{node.lineno}")
            roots |= _refs(tree, nodes)
    live: set[str] = set()
    todo = [n for n in roots | set(allow) if n in edges]
    while todo:
        name = todo.pop()
        if name in live:
            continue
        live.add(name)
        todo += [n for n in edges[name] if n in edges and n not in live]
    return sorted(
        f"{loc} {name}" for name in edges if name not in live for loc in where[name]
    )


def test_every_src_definition_has_a_caller():
    dead = unreferenced_definitions()
    assert not dead, "definitions that only tests reach (delete them, or allowlist with a reason):\n" + "\n".join(
        dead
    )


def test_allowlist_names_only_uncalled_definitions():
    """An allowlist entry that the program does call is stale."""
    dead = {line.split()[-1] for line in unreferenced_definitions(allow=())}
    assert set(ALLOWLIST) <= dead


def unread_imports(dirs=("src", "tests")) -> list[str]:
    """``path:line name`` for each name a module imports and never reads as a
    name; the package ``__init__`` modules, whose imports are re-exports, and
    ``from __future__`` imports are exempt."""
    found = []
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = (alias.asname or alias.name).split(".")[0]
                        if name not in read:
                            found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_every_import_is_read():
    unread = unread_imports()
    assert not unread, "imported names that nothing reads (delete them):\n" + "\n".join(unread)


def cached_property_uses(dirs=("src",)) -> list[str]:
    """``path:line`` for each import or attribute read of ``cached_property``."""
    found = []
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                names = [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
                if isinstance(node, ast.Attribute):
                    names = [node.attr]
                if "cached_property" in names:
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_no_src_module_uses_cached_property():
    """Every per-object memo is ``rewrite.stored``: one rule, one key (the
    qualified name) and one way for a test to forget a result."""
    uses = cached_property_uses()
    assert not uses, "memoise with rewrite.stored instead:\n" + "\n".join(uses)
