"""Every name a module of ``entpow`` imports is used there.

No linter ships with the project, so this parses each module with ``ast``.
A name counts as used when the module reads it anywhere or lists it in
``__all__``; an import line marked ``# noqa: F401`` is a deliberate
exception.
"""

import ast
from pathlib import Path

import pytest

import entpow

MODULES = sorted(Path(entpow.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


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
