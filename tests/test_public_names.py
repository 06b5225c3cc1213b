"""Every public module-level function and class of the package is either
exported or used by the package itself, and every private one, and every
public method or property of its classes, is used by it: no library code
lives only for its tests."""

from __future__ import annotations

import ast
from pathlib import Path

import hyperbetti

PACKAGE = Path(hyperbetti.__file__).parent

# Named instances that tests and benchmarks build; the package itself
# only draws random ones.
INSTANCE_CONSTRUCTORS = {
    "path_graph", "cycle_graph", "complete_graph", "fan_graph",
    "complete_uniform", "star_hypergraph", "random_free_vertex",
}


def _names_read(node: ast.AST) -> set[str]:
    """Names and attribute names that ``node`` mentions."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def _package() -> tuple[dict[str, ast.Module], list[ast.stmt], dict[int, set[str]]]:
    """The package's modules by file name, their top-level statements, and
    the names each statement reads, keyed by its id."""
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    statements = [stmt for tree in modules.values() for stmt in tree.body]
    return modules, statements, {id(stmt): _names_read(stmt) for stmt in statements}


def _unread_definitions(private: bool) -> list[str]:
    """Module-level functions and classes, private or public as asked,
    whose names no other top-level statement of the package reads."""
    modules, statements, reads = _package()
    unread = []
    for module, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name.startswith("_") != private:
                continue
            # a read inside the definition itself, such as recursion, does not count
            if not any(stmt.name in reads[id(other)] for other in statements if other is not stmt):
                unread.append(f"{module}:{stmt.name}")
    return unread


def _unread_members() -> list[str]:
    """Public methods and properties of the package's classes whose names
    no top-level statement outside the class and no other statement of
    its body reads."""
    modules, statements, reads = _package()
    unread = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            outside = [reads[id(stmt)] for stmt in statements if stmt is not cls]
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                inside = [_names_read(other) for other in cls.body if other is not member]
                if not any(member.name in names for names in outside + inside):
                    unread.append(f"{module}:{cls.name}.{member.name}")
    return unread


def test_every_public_definition_is_exported_or_used():
    orphans = [name for name in _unread_definitions(private=False)
               if name.split(":")[1] not in {*hyperbetti.__all__, *INSTANCE_CONSTRUCTORS}]
    assert orphans == []


def test_every_private_definition_is_used():
    # a private helper that a fold leaves behind has no reader but its tests
    assert _unread_definitions(private=True) == []


def test_every_public_member_is_used():
    # a method or property that only tests read is dead library code too
    assert _unread_members() == []
