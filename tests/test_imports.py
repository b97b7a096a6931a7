"""Every name a module of ``entpow`` imports is used there, and only
``entanglement`` reaches its purity core and unitarity gate.

No linter ships with the project, so this parses each module with ``ast``.
A name counts as used when the module reads it anywhere or lists it in
``__all__``; an import line marked ``# noqa: F401`` is a deliberate
exception.  Every other module gets measures of a stack of operators from
the one gated call ``entanglement._measures``.
"""

import ast
from pathlib import Path

import pytest

import entpow

MODULES = sorted(Path(entpow.__file__).parent.glob("*.py"))

# The purity core and its gate, private to ``entanglement``.
CORE = {"_gate", "_purities", "_purity", "_entanglement", "_power"}


def imported(tree: ast.AST) -> list[ast.alias]:
    """Every name an import statement of ``tree`` binds, ``__future__`` aside."""
    return [
        alias
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]


def core_names_reached(source: str) -> set[str]:
    """Names of ``CORE`` imported (under any alias) or read as an attribute."""
    tree = ast.parse(source)
    names = {alias.name for alias in imported(tree)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names & CORE


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported_at = {}
    for alias in imported(tree):
        if "# noqa: F401" not in lines[alias.lineno - 1]:
            imported_at[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported_at.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("import math\n", ["line 1: math"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["line 1: c"]),
    ("from a import (\n    b,\n    c,\n)\nc\n", ["line 2: b"]),
    ("from a import b  # noqa: F401\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("import numpy as np\ndef f(x: np.ndarray): pass\n", []),
])
def test_the_guard_itself(source, found):
    assert unused_imports(source) == found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "entanglement.py"], ids=lambda p: p.name
)
def test_only_entanglement_reaches_the_purity_core(path):
    assert core_names_reached(path.read_text(encoding="utf-8")) == set()


@pytest.mark.parametrize("source, found", [
    ("from .entanglement import _measures, entangling_power\n", set()),
    ("from .entanglement import _gate, _purities\n", {"_gate", "_purities"}),
    ("from .entanglement import _power as p  # noqa: F401\n", {"_power"}),
    ("from . import entanglement\nentanglement._purity(s, 2, 'realign')\n", {"_purity"}),
])
def test_the_core_guard_itself(source, found):
    assert core_names_reached(source) == found
