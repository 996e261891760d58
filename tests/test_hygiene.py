"""Source hygiene that needs no linter: every name a package module imports
is used in that module.  ``__init__.py`` is exempt, since its imports are
the package's re-exports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gangle"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements of ``source`` that no expression in
    it reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport math as m\nfrom itertools import product, chain\n"
        "def f(x: chain) -> None:\n    return m.sqrt(x)\n"
    )
    assert unused_imports(source) == ["os", "product"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
