"""Source hygiene that needs no linter: every name a package module imports
is used in that module, and ``__init__.py``, whose imports are the package's
re-exports, lists exactly those in ``__all__``."""

import ast
from pathlib import Path

import pytest

import gangle

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


def test_all_lists_exactly_the_public_names_init_binds():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(gangle.__all__) == sorted(name for name in bound if not name.startswith("_"))
