"""Every function, class and method in `src/jzero` has a caller there.

A name counts as used when it occurs as an `ast.Name`, an `ast.Attribute`
or an import alias anywhere in the package outside its own definition, so
a helper that only the tests call fails here: move it under `tests/` or
delete it.  Comments and docstrings do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jzero"
ENTRY_POINTS = {("cli", "main")}


def _definitions(tree):
    """(name, first line, last line) of module-level functions and classes
    and of the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub.name, sub.lineno, sub.end_lineno


def _uses(tree):
    """(name, line) of every name, attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
            if node.asname:
                yield node.asname, node.lineno


def unused_names(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = [(name, mod, line) for mod, tree in trees.items() for name, line in _uses(tree)]
    unused = []
    for mod, tree in trees.items():
        for name, first, last in _definitions(tree):
            if (mod, name) in ENTRY_POINTS:
                continue
            if not any(n == name and not (m == mod and first <= line <= last) for n, m, line in uses):
                unused.append(f"{mod}.{name}")
    return unused


def test_every_definition_has_a_caller_in_the_package():
    assert unused_names() == []
