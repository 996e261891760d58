"""Source hygiene that needs no linter: every name a package module imports
is used in that module, every module-level definition is used somewhere in
the package, exported or the console script, ``__init__.py``, whose
imports are the package's re-exports, lists exactly those in ``__all__``,
and only ``vectors.py`` sets the fields of a ``SparseVector``, so that
``__init__``, ``_exact`` and ``_checked`` are the only ways to build one.
Only ``vectors.py`` and the kernels of ``semi_inner.py`` read a vector's
stored form, its int or float entries and its denominator.  Only
``angles._clamp`` builds a ``ConsistencyError``, so every value kept in its
range passes one round-off rule.  ``semi_inner.py`` calls ``sgn`` in one
place, the weight |x_i|^(p-1) * sgn(x_i) of the closed form, which the
single g and the map of ``g_functional`` share.  Only ``gram.py`` names the
solver's internals or assigns a subspace's ``_solver``, so the form of a
solver stays gram's decision."""

import ast
import re
from pathlib import Path

import pytest

import gangle

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gangle"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


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


def module_definitions(source):
    """Names bound at module level by def, class or assignment to a name."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def names_used(sources):
    """Names the sources read as a Name or an Attribute, or spell as a string
    constant (the CLI looks its handlers up by name).  A Name bound by an
    assignment is not a use."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def unused_definitions(modules, exported=(), scripts=()):
    """``module.name`` for each module-level definition in ``modules`` (module
    name -> source) that no module uses and that is neither exported nor a
    console script (``module.name`` in ``scripts``)."""
    used = names_used(modules.values()) | set(exported)
    return [
        f"{module}.{name}"
        for module, source in modules.items()
        for name in module_definitions(source)
        if name not in used and f"{module}.{name}" not in scripts
    ]


def test_the_check_sees_unused_definitions():
    modules = {
        "a": "X = 1\nclass C: pass\ndef f(): return helper\ndef dead(): pass\ndef main(): pass\n",
        "b": "def helper(): return C\ndef g(): pass\nHANDLERS = {'go': 'g'}\ndef k(m): return m.X\n",
    }
    assert unused_definitions(modules, exported=["f", "k"], scripts=["a.main"]) == ["a.dead", "b.HANDLERS"]


def test_every_module_level_definition_is_used():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    scripts = {
        f"{module}.{name}"
        for module, name in re.findall(r'=\s*"gangle\.(\w+):(\w+)"', PYPROJECT.read_text())
    }
    assert scripts  # the console script entry was found
    definers = {m: s for m, s in modules.items() if m != "__init__"}
    assert unused_definitions(definers, gangle.__all__, scripts) == []


VECTOR_FIELDS = frozenset({"_entries", "_den", "_backend"})


def vector_field_assignments(source):
    """Line numbers of ``source`` that assign an attribute named like a
    field of ``SparseVector``, by assignment, ``setattr`` or
    ``object.__setattr__``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t for target in targets for t in ast.walk(target)]
            if any(isinstance(t, ast.Attribute) and t.attr in VECTOR_FIELDS for t in targets):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            field = node.args[-2]
            if (
                name in ("setattr", "__setattr__")
                and isinstance(field, ast.Constant)
                and field.value in VECTOR_FIELDS
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_vector_field_assignments():
    source = (
        "v._entries = ()\n"
        "a, b._den = 1, 2\n"
        "v._backend += 'x'\n"
        "setattr(v, '_den', 1)\n"
        "object.__setattr__(v, '_entries', ())\n"
        "data._factors = v._entries\n"
        "object.__setattr__(data, '_maps', None)\n"
    )
    assert vector_field_assignments(source) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "vectors.py"])
def test_only_vectors_sets_the_fields_of_a_vector(module):
    assert vector_field_assignments((PACKAGE / module).read_text()) == []


STORED_FORM = VECTOR_FIELDS - {"_backend"}


def stored_form_reads(source):
    """Line numbers of ``source`` that read an attribute named like the
    entries or the denominator of a ``SparseVector``, directly or by
    ``getattr``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in STORED_FORM:
            lines.add(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in STORED_FORM
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_the_check_sees_stored_form_reads():
    source = (
        "n = v._entries\n"
        "f(x._den * y._den, [e for e in y._entries])\n"
        "w = getattr(v, '_den', 1)\n"
        "v._entries = ()\n"
        "b = v._backend\n"
        "m = data._factors\n"
        "getattr(v, 'backend')\n"
    )
    assert stored_form_reads(source) == [1, 2, 3]


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("vectors.py", "semi_inner.py")])
def test_only_vectors_and_semi_inner_read_the_stored_form_of_a_vector(module):
    assert stored_form_reads((PACKAGE / module).read_text()) == []


def consistency_error_builders(source):
    """The innermost function around each ``ConsistencyError(...)`` call of
    ``source``, in source order; None for a call outside any function."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "ConsistencyError":
                    found.append(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_check_sees_consistency_errors():
    source = (
        "E = ConsistencyError('x')\n"
        "def f(v):\n"
        "    def g():\n        raise errors.ConsistencyError('y')\n"
        "    if v:\n        raise ConsistencyError(f'{v}')\n"
        "class C:\n    def m(self):\n        return [ConsistencyError]\n"
    )
    assert consistency_error_builders(source) == [None, "g", "f"]


def test_only_the_angle_clamp_builds_a_consistency_error():
    sites = {p.name: consistency_error_builders(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name: found for name, found in sites.items() if found} == {"angles.py": ["_clamp"]}


def sgn_calls(source):
    """Line numbers of ``source`` that call ``sgn``, by name or as an
    attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "sgn" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_the_check_sees_sgn_calls():
    # the two copies of the weight a map and a single g once formed each
    source = (
        "weights = {i: abs(v) ** (p - 1.0) * sgn(v) for i, v in x._entries}\n"
        "value = sum([abs(a) ** (p - 1.0) * sgn(a) * c for i, c in y._entries if (a := xs.get(i)) is not None])\n"
        "s = vectors.sgn(t)\n"
        "f = sgn\n"
    )
    assert sgn_calls(source) == [1, 2, 3]


def test_semi_inner_forms_the_weight_in_one_place():
    assert len(sgn_calls((PACKAGE / "semi_inner.py").read_text())) == 1


SOLVER_NAMES = frozenset({"_Factors", "_forward", "_cramer", "_substitute"})


def solver_uses(source):
    """Line numbers of ``source`` that name one of ``SOLVER_NAMES``, as a
    name, an attribute or an import, or assign an attribute ``_solver``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Name) and node.id in SOLVER_NAMES
            or isinstance(node, ast.Attribute) and node.attr in SOLVER_NAMES
            or isinstance(node, ast.ImportFrom) and any(a.name in SOLVER_NAMES for a in node.names)
        ):
            lines.add(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t for target in targets for t in ast.walk(target)]
            if any(isinstance(t, ast.Attribute) and t.attr == "_solver" for t in targets):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_check_sees_solver_uses():
    source = (
        "from .gram import _forward\n"
        "x = gram._substitute(f, b)\n"
        "sub._solver = solve, maps\n"
        "a, b._solver = 1, 2\n"
        "f = _Factors\n"
        "solve, maps = sub._solver\n"
        "_cramer_rule = 1\n"
    )
    assert solver_uses(source) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "gram.py"])
def test_only_gram_names_the_solver(module):
    assert solver_uses((PACKAGE / module).read_text()) == []
