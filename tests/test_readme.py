"""README.md names no private code that is gone.

Every private name the README writes in a code span, as `_name`,
`_name(...)` or `module._name`, is defined somewhere in ``src/entpow``.
The shorthand `partial_transpose_first`/`_second` is a suffix, not a name,
so a code span right after a ``/`` is not read.
"""

import ast
import re
from pathlib import Path

import pytest

import entpow

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = sorted(Path(entpow.__file__).parent.glob("*.py"))

# A code span: backticks around text without a backtick.
CODE_SPAN = re.compile(r"`([^`]+)`")

# A private name, alone or after a dotted path, with an optional call.
PRIVATE = re.compile(r"(?:[A-Za-z]\w*\.)*(_\w+)(?:\(.*\))?", re.DOTALL)


def private_names(markdown: str) -> set[str]:
    """Private names written in the code spans of ``markdown``, fenced blocks aside."""
    text = re.sub(r"^```.*?^```", "", markdown, flags=re.DOTALL | re.MULTILINE)
    return {m.group(1) for span in CODE_SPAN.finditer(text)
            if text[span.start() - 1:span.start()] != "/"
            and (m := PRIVATE.fullmatch(span.group(1)))}


def defined_names(sources: list[str]) -> set[str]:
    """Every function, class and assigned name of ``sources``, at any depth."""
    found = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                found.add(node.id)
    return found


def test_every_private_name_in_the_readme_is_defined():
    named = private_names(README.read_text(encoding="utf-8"))
    defined = defined_names([path.read_text(encoding="utf-8") for path in MODULES])
    assert "_spans" in named
    assert named - defined == set()


@pytest.mark.parametrize("markdown, found", [
    ("chunks of `_mc_chunk(d, k)` samples", {"_mc_chunk"}),
    ("`densemat._spans` and `_MC_CHUNK_BYTES`", {"_spans", "_MC_CHUNK_BYTES"}),
    ("`partial_transpose_first`/`_second` and `_third`", {"_third"}),
    ("`swap_left`, `entangling_power_mc(u, n, seed, tol)`", set()),
    ("```python\nx = _hidden(3)\n`_inside`\n```\n`_outside`", {"_outside"}),
    ("wrapped `_check_int(x,\n lo, hi, name)` span", {"_check_int"}),
])
def test_the_readme_guard_itself(markdown, found):
    assert private_names(markdown) == found


def test_the_definition_guard_itself():
    source = "def _f():\n    _local = 1\nclass _C:\n    _ATTR = 2\n_g = _h = None\nuse(_read)\n"
    assert defined_names([source]) == {"_f", "_local", "_C", "_ATTR", "_g", "_h"}
