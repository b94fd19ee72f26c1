"""The counting path stays in integer arithmetic.

`forms`, `lattices`, `families`, `counting`, `classes` and `oracle` must
not import `fractions`: their hot loops run on integers only, so a
`Fraction` there is a regression in both speed and design.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jzero"
INTEGER_ONLY = ("forms", "lattices", "families", "counting", "classes", "oracle")


def imported_modules(source: str) -> set[str]:
    """Top-level names of every module imported anywhere in `source`."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module.split(".")[0])
    return out


def test_imported_modules_sees_every_import_form():
    src = "import fractions as fr\ndef f():\n    from fractions import Fraction\n"
    assert imported_modules(src) == {"fractions"}
    assert imported_modules("from .forms import invariants\nimport math\n") == {"math"}


@pytest.mark.parametrize("module", INTEGER_ONLY)
def test_module_does_not_import_fractions(module):
    assert "fractions" not in imported_modules((SRC / f"{module}.py").read_text())
