"""Every name a module of ``entpow`` imports is used there, only
``entanglement`` reaches its purity core, and only ``operators`` and
``entanglement`` reach the Monte-Carlo sampler.  Inside ``entanglement`` one
purity is reached only by ``_purities`` and ``entanglement_report``, so every
scalar measure goes through ``_measures``.

The unitarity policy is ``densemat``'s alone: its ``_gate`` is read only by
``_measures``, ``_mc_estimates`` and ``entanglement_report`` in
``entanglement`` and by ``ControlledUSpec`` in ``operators``, and outside
``densemat`` the defect itself, ``_unitarity_defects``, is read only by
``verify._controlled_u``, which measures a defect and gates nothing.  The
package assigns one module-level tolerance, ``densemat.UNITARITY_TOL``.

Every byte budget is assigned once, in ``densemat``; the only other
module-level byte constant is the operator file's size cap.  The two chunk
budgets reach the package only as the budget argument of ``densemat._spans``,
the one chunk rule and the one stepped ``range``, so no module turns a
budget into a count of its own.  ``verify`` imports nothing private from
``sweep``.

No linter ships with the project, so this parses each module with ``ast``.
A name counts as used when the module reads it anywhere or lists it in
``__all__``; an import line marked ``# noqa: F401`` is a deliberate
exception.  Every other module gets measures of a stack of operators from
the one gated call ``entanglement._measures``, and ``verify`` gets every
Monte-Carlo estimate from the stacked estimator ``entanglement._mc_estimates``,
so it runs no per-operator estimate loop.

Only ``entanglement`` imports ``threading`` or ``concurrent.futures``: the
Monte-Carlo estimator's worker thread is the package's only thread.  It
loads ``concurrent.futures`` on first use, so ``import entpow`` does not pay
for it.

Only ``opfile`` imports ``json``: the operator file format, and how it is
parsed, is that module's alone.

Every integer input passes the one integer rule, ``densemat._check_int``,
which alone names ``np.integer`` and alone words an integer rule's message;
the named rules for the local dimension, the seed and the Monte-Carlo sample
count call it, as do the few inputs with a range of their own.  Its message
shows the value through ``_echo``, which has one form and so one parameter.
The Monte-Carlo sample counts are assigned once, in ``entanglement``.

Every real input passes the one real rule, ``densemat._check_real``, which
alone names ``numbers.Real``; ``exp_swap``'s angle, a sweep's parameter
range and the unitarity tolerance call it.  Besides it, only the width of a
sweep's range, two floats the rule returned, is tested with
``math.isfinite``.

``verify`` builds a generator in one place, from the run's seed and the
criterion's row, never from an integer literal, so every random criterion
draws from the seed its caller gave.

Settings with one value in use are constants, not parameters: among the
public functions only ``entanglement_report`` and ``entangling_power_mc``
take a unitarity tolerance (the other measures gate at ``UNITARITY_TOL``),
and every criterion of ``verify.CRITERIA`` takes exactly ``(run, rng)``.

A value the inputs fix is not asked for: no function takes an operator stack
(a parameter ``stack`` or ``blocks``) together with a local dimension ``d``,
because the stack's shape already fixes d.

Every rejected value is shown by one function, ``densemat._echo``: no other
definition formats a value with ``!r`` or calls ``repr``.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entpow
from entpow.verify import CRITERIA

MODULES = sorted(Path(entpow.__file__).parent.glob("*.py"))

# The purity core, private to ``entanglement``.
CORE = {"_purities", "_purity", "_entanglement", "_power"}

# Every module's source, by module name.
SOURCES = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}

# The product-state sampler, its draw and finish, and the pipeline that runs
# them, private to the module that draws the states and the one that
# estimates from them.
MC_SAMPLER = {"product_state_batch", "_draw_states", "_finish_states", "_sample_entropies"}
MC_SAMPLER_HOMES = {"operators.py", "entanglement.py"}

# The byte budgets that ``densemat._spans`` cuts into chunks.
CHUNK_BUDGETS = {"_STACK_BYTES", "_MC_CHUNK_BYTES"}

# Top-level packages that start threads, imported only by ``entanglement``.
THREADS = {"threading", "concurrent"}

ENTANGLEMENT = Path(entpow.__file__).parent / "entanglement.py"

# The one module that reads and writes JSON.
JSON_HOME = "opfile.py"

# The one module that names ``np.integer``, in its integer rule ``_check_int``.
INTEGER_HOME = "densemat.py"

# Every definition that calls the integer rule: each integer input's rule.
INTEGER_RULES = {
    "densemat._check_local_dim", "operators._check_seed", "operators.haar_unitary",
    "operators.product_state_batch", "sweep.SweepSpec", "entanglement._check_mc_samples",
}

# Every definition that calls the real rule: each real input's rule.
REAL_RULES = {"densemat._gate", "operators.exp_swap", "sweep.SweepSpec"}

VERIFY = Path(entpow.__file__).parent / "verify.py"


def imported(tree: ast.AST) -> list[ast.alias]:
    """Every name an import statement of ``tree`` binds, ``__future__`` aside."""
    return [
        alias
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]


def names_reached(source: str, names: set[str]) -> set[str]:
    """Names of ``names`` imported (under any alias), read, or read as an attribute."""
    tree = ast.parse(source)
    found = {alias.name for alias in imported(tree)}
    found |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return found & names


def packages_imported(source: str) -> set[str]:
    """Top-level package of every absolute import in ``source``, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def readers(source: str, name: str) -> set[str]:
    """Top-level definitions of ``source`` that read ``name``, with
    ``"<module>"`` for a read outside any of them."""
    found = set()
    for top in ast.parse(source).body:
        if any(isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
               for node in ast.walk(top)):
            found.add(getattr(top, "name", "<module>"))
    return found


def generator_calls(source: str) -> list[str]:
    """Each call of ``default_rng`` in ``source``, as ``"line N"``, with
    ``" literal"`` added when an integer (or bool) literal appears anywhere
    in its arguments."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) == "default_rng":
            literal = any(isinstance(n, ast.Constant) and isinstance(n.value, int)
                          for arg in node.args + [kw.value for kw in node.keywords]
                          for n in ast.walk(arg))
            found.append(f"line {node.lineno}" + " literal" * literal)
    return found


def constants(path: Path, suffix: str = "_TOL") -> set[str]:
    """``module:NAME`` for each module-level assignment of a name ending in ``suffix``."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    targets = [t for node in body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in body if isinstance(node, ast.AnnAssign)]
    return {f"{path.stem}:{t.id}" for t in targets
            if isinstance(t, ast.Name) and t.id.endswith(suffix)}


def def_name(top: ast.stmt) -> str:
    return getattr(top, "name", "<module>")


def called(node: ast.AST, name: str) -> bool:
    """Whether ``node`` is a call of ``name``, bare or as an attribute."""
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))


def budget_readers(sources: dict[str, str], names: set[str]) -> set[str]:
    """``module.definition`` for each read of a name of ``names``, bare or as
    an attribute, that is not itself an argument of a ``_spans`` call."""
    found = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            passed = {id(arg) for node in ast.walk(top) if called(node, "_spans")
                      for arg in node.args + [kw.value for kw in node.keywords]}
            for node in ast.walk(top):
                read = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else getattr(node, "attr", None))
                if read in names and id(node) not in passed:
                    found.add(f"{module}.{def_name(top)}")
    return found


def stepped_ranges(sources: dict[str, str]) -> set[str]:
    """``module.definition`` for each ``range`` call with a step: a chunk loop."""
    return {f"{module}.{def_name(top)}" for module, source in sources.items()
            for top in ast.parse(source).body
            for node in ast.walk(top) if called(node, "range") and len(node.args) == 3}


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
    assert names_reached(path.read_text(encoding="utf-8"), CORE) == set()


@pytest.mark.parametrize("source, found", [
    ("from .entanglement import _measures, entangling_power\n", set()),
    ("from .entanglement import _gate, _purities\n", {"_purities"}),
    ("from .entanglement import _power as p  # noqa: F401\n", {"_power"}),
    ("from . import entanglement\nentanglement._purity(s, 'realign')\n", {"_purity"}),
])
def test_the_core_guard_itself(source, found):
    assert names_reached(source, CORE) == found


def package_readers(sources: dict[str, str], name: str) -> set[str]:
    """``module.definition`` for each top-level definition, in each module of
    ``sources``, that ``readers`` finds reading ``name``, with
    ``module.<attribute>`` for a module that reads it as an attribute."""
    found = set()
    for module, source in sources.items():
        found |= {f"{module}.{top}" for top in readers(source, name)}
        if any(isinstance(node, ast.Attribute) and node.attr == name
               for node in ast.walk(ast.parse(source))):
            found.add(f"{module}.<attribute>")
    return found


def test_every_reader_of_the_gate():
    assert package_readers(SOURCES, "_gate") == {
        "entanglement._measures", "entanglement._mc_estimates",
        "entanglement.entanglement_report", "operators.ControlledUSpec",
    }


def test_only_verify_reads_the_defects_outside_densemat():
    outside = {module: source for module, source in SOURCES.items() if module != "densemat"}
    assert package_readers(outside, "_unitarity_defects") == {"verify._controlled_u"}


@pytest.mark.parametrize("sources, found", [
    ({"m": "from .densemat import _gate\ndef f(s):\n    return _gate(s, 0.0)\n"}, {"m.f"}),
    ({"a": "def f(s):\n    _gate(s, 1e-9)\n", "b": "def _gate(s, tol): pass\n"}, {"a.f"}),
    ({"m": "class C:\n    def __post_init__(self):\n        _gate(b, TOL)\n"}, {"m.C"}),
    ({"m": "from . import densemat\ndef f(s):\n    densemat._gate(s, 0.0)\n"},
     {"m.<attribute>"}),
    ({"m": "import entpow\ncheck = entpow.densemat._gate\n"}, {"m.<attribute>"}),
    ({"m": "def f(_gate):\n    pass\n", "n": "x = 1\n"}, set()),
])
def test_the_package_reader_guard_itself(sources, found):
    assert package_readers(sources, "_gate") == found


def test_every_byte_budget_is_assigned_once_in_densemat():
    assert set().union(*(constants(path, "_BYTES") for path in MODULES)) == {
        "densemat:_STACK_BYTES", "densemat:_MC_CHUNK_BYTES", "densemat:_STATE_BYTES",
        "opfile:_MAX_BYTES",
    }


def test_only_spans_turns_a_chunk_budget_into_chunks():
    assert budget_readers(SOURCES, CHUNK_BUDGETS) == set()
    assert stepped_ranges(SOURCES) == {"densemat._spans"}


def test_verify_imports_nothing_private_from_sweep():
    names = [alias.name for node in ast.walk(ast.parse(SOURCES["verify"]))
             if isinstance(node, ast.ImportFrom) and node.module == "sweep"
             for alias in node.names]
    assert names and [name for name in names if name.startswith("_")] == []


def test_the_chunk_budget_guard_itself():
    # a second chunk rule, beside the callers that hand the budget to _spans
    second = "def _chunk(d, k):\n    return max(1, _MC_CHUNK_BYTES // (64 * k * d * d))\n"
    sources = {**SOURCES, "entanglement": SOURCES["entanglement"] + second}
    assert budget_readers(sources, CHUNK_BUDGETS) == {"entanglement._chunk"}


@pytest.mark.parametrize("source, found", [
    ("def f(n, d):\n    return _spans(n, 16 * d**4, _STACK_BYTES)\n", set()),
    ("def f(n):\n    return densemat._spans(n, 16, budget=densemat._MC_CHUNK_BYTES)\n", set()),
    ("def f(n):\n    return _spans(n, _STACK_BYTES // 16, 1)\n", {"m.f"}),
    ("def f(n):\n    return _spans(n, 16, 2 * _STACK_BYTES)\n", {"m.f"}),
    ("def f():\n    return entpow.sweep._STACK_BYTES\n", {"m.f"}),
    ("BUDGET = _MC_CHUNK_BYTES\n", {"m.<module>"}),
    ("from .densemat import _STACK_BYTES  # noqa: F401\n_STACK_BYTES = 1\n", set()),
])
def test_the_budget_reader_guard_itself(source, found):
    assert budget_readers({"m": source}, CHUNK_BUDGETS) == found


@pytest.mark.parametrize("source, found", [
    ("def f(n, s):\n    return [(lo, lo + s) for lo in range(0, n, s)]\n", {"m.f"}),
    ("class C:\n    def g(self):\n        for i in range(2, 9, 3): pass\n", {"m.C"}),
    ("def f(n):\n    return list(range(n)), range(1, n)\n", set()),
])
def test_the_chunk_loop_guard_itself(source, found):
    assert stepped_ranges({"m": source}) == found


def test_only_purities_and_the_report_reach_one_purity():
    source = ENTANGLEMENT.read_text(encoding="utf-8")
    assert readers(source, "_purity") == {"_purities", "entanglement_report"}


@pytest.mark.parametrize("source, found", [
    ("def _gate(s, tol): pass\ndef f(s):\n    return _gate(s, 0.0)\n", {"f"}),
    ("def f(u):\n    def g():\n        _gate(u, 1e-9)\n    return g\n", {"f"}),
    ("check = _gate\n", {"<module>"}),
    ("class R:\n    gate = staticmethod(_gate)\n", {"R"}),
    ("def f(_gate):\n    pass\ndef g(x):\n    return x._gate\n", set()),
])
def test_the_reader_guard_itself(source, found):
    assert readers(source, "_gate") == found


def test_one_module_level_tolerance():
    assert set().union(*map(constants, MODULES)) == {"densemat:UNITARITY_TOL"}


@pytest.mark.parametrize("source, found", [
    ("A_TOL = 1e-9\n", {"m:A_TOL"}),
    ("A_TOL: float = 1e-9\n", {"m:A_TOL"}),
    ("A_TOL = B_TOL = 1e-9\n", {"m:A_TOL", "m:B_TOL"}),
    ("def f():\n    A_TOL = 1e-9\n", set()),
    ("from .densemat import UNITARITY_TOL\nTOLERANCE = 1\n", set()),
])
def test_the_tolerance_guard_itself(tmp_path, source, found):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    assert constants(path) == found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in MC_SAMPLER_HOMES], ids=lambda p: p.name
)
def test_only_operators_and_entanglement_reach_the_sampler(path):
    assert names_reached(path.read_text(encoding="utf-8"), MC_SAMPLER) == set()


def test_verify_estimates_only_through_the_stacked_estimator():
    source = (Path(entpow.__file__).parent / "verify.py").read_text(encoding="utf-8")
    assert names_reached(source, {"entangling_power_mc", "_mc_estimates"}) == {"_mc_estimates"}


@pytest.mark.parametrize("source, found", [
    ("from .entanglement import _mc_estimates\n", set()),
    ("from .operators import product_state_batch as draw  # noqa: F401\n",
     {"product_state_batch"}),
    ("from .operators import _draw_states, _finish_states  # noqa: F401\n",
     {"_draw_states", "_finish_states"}),
    ("from . import entanglement\nentanglement._sample_entropies(s, 100, rng)\n",
     {"_sample_entropies"}),
    ("def _sample_entropies(stack, n, rng): pass\n_sample_entropies(s, 100, rng)\n",
     {"_sample_entropies"}),
])
def test_the_sampler_guard_itself(source, found):
    assert names_reached(source, MC_SAMPLER) == found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "entanglement.py"], ids=lambda p: p.name
)
def test_only_entanglement_imports_threads(path):
    assert packages_imported(path.read_text(encoding="utf-8")) & THREADS == set()


@pytest.mark.parametrize("source, found", [
    ("import threading\n", {"threading"}),
    ("from concurrent.futures import ThreadPoolExecutor\n", {"concurrent"}),
    ("from concurrent import futures as f  # noqa: F401\n", {"concurrent"}),
    ("def run():\n    import concurrent.futures\n", {"concurrent"}),
    ("from .threading import start\n", set()),
    ("import numpy as np\nfrom .operators import _check_seed\n", set()),
])
def test_the_thread_guard_itself(source, found):
    assert packages_imported(source) & THREADS == found


def test_importing_entpow_does_not_load_the_executor():
    src = str(Path(entpow.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, entpow; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_opfile_imports_json(path):
    expected = {"json"} if path.name == JSON_HOME else set()
    assert packages_imported(path.read_text(encoding="utf-8")) & {"json"} == expected


@pytest.mark.parametrize("source, found", [
    ("import json\n", {"json"}),
    ("from json.decoder import JSONObject  # noqa: F401\n", {"json"}),
    ("def dump(x):\n    import json as j\n    return j.dumps(x)\n", {"json"}),
    ("from .opfile import read_operator_file\n", set()),
    ("import jsonschema\n", set()),
])
def test_the_json_guard_itself(source, found):
    assert packages_imported(source) & {"json"} == found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_densemat_names_the_numpy_integer_type(path):
    expected = {"integer"} if path.name == INTEGER_HOME else set()
    assert names_reached(path.read_text(encoding="utf-8"), {"integer"}) == expected


@pytest.mark.parametrize("source, found", [
    ("isinstance(x, (int, np.integer))\n", {"integer"}),
    ("import numpy\nissubclass(t, numpy.integer)\n", {"integer"}),
    ("from numpy import integer as i  # noqa: F401\n", {"integer"}),
    ("from .densemat import _is_int\n_is_int(x)\n", set()),
    ("'an integer from 2 to 16'\nnp.int64(3)\n", set()),
    ("from .densemat import _check_int\n_check_int(x, 2, 16, 'd')\n", set()),
])
def test_the_integer_guard_itself(source, found):
    assert names_reached(source, {"integer"}) == found


def type_namers(sources: dict[str, str], type_name: str) -> list[str]:
    """``module.definition`` for each naming of ``type_name``, as a name, an
    attribute or an imported name, one entry per naming."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                names = ([alias.name for alias in node.names]
                         if isinstance(node, (ast.Import, ast.ImportFrom))
                         else [getattr(node, "id", getattr(node, "attr", None))])
                found += [f"{module}.{def_name(top)}" for name in names if name == type_name]
    return found


def integer_messages(sources: dict[str, str]) -> set[str]:
    """``module.definition`` for each ``raise`` whose text says something
    "must be" an integer: a rule's own wording of an integer message."""
    found = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise):
                    text = " ".join(n.value for n in ast.walk(node)
                                    if isinstance(n, ast.Constant) and isinstance(n.value, str))
                    if "must be" in text and "integer" in text:
                        found.add(f"{module}.{def_name(top)}")
    return found


def parameters(source: str, name: str) -> list[str]:
    """Parameter names of each top-level function ``name`` in ``source``."""
    return [arg.arg for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef) and top.name == name
            for arg in top.args.posonlyargs + top.args.args + top.args.kwonlyargs]


def test_np_integer_is_named_once_in_the_integer_rule():
    assert type_namers(SOURCES, "integer") == ["densemat._check_int"]


def test_every_integer_rule_calls_the_one_rule():
    assert package_readers(SOURCES, "_check_int") == INTEGER_RULES


def test_only_the_one_rule_words_an_integer_message():
    assert integer_messages(SOURCES) == {"densemat._check_int"}


def test_the_integer_test_is_gone():
    assert [module for module, source in SOURCES.items() if "_is_int" in source] == []


def test_echo_has_one_form():
    assert parameters(SOURCES["densemat"], "_echo") == ["x"]


def test_the_sample_counts_are_assigned_once_in_entanglement():
    assert set().union(*(constants(path, "_MC_SAMPLES") for path in MODULES)) == {
        "entanglement:MIN_MC_SAMPLES", "entanglement:DEFAULT_MC_SAMPLES",
        "entanglement:MAX_MC_SAMPLES",
    }


def test_the_one_rule_guards_themselves():
    # a second integer rule, of the kind the one rule replaced
    second = ("def _check_steps(n):\n"
              "    if not (isinstance(n, (int, np.integer)) and 1 <= n <= 9):\n"
              "        raise ValueError(f'steps must be a positive integer, got {n}')\n")
    sources = {**SOURCES, "sweep": SOURCES["sweep"] + second}
    assert type_namers(sources, "integer") == ["densemat._check_int", "sweep._check_steps"]
    assert integer_messages(sources) == {"densemat._check_int", "sweep._check_steps"}
    # a rule that stops calling the one rule
    bypass = SOURCES["operators"].replace("_check_int(seed,", "int(seed,")
    assert package_readers({**SOURCES, "operators": bypass}, "_check_int") == (
        INTEGER_RULES - {"operators._check_seed"})
    # a second echo convention
    echo = SOURCES["densemat"].replace("def _echo(x)", "def _echo(x, conv=repr)")
    assert parameters(echo, "_echo") == ["x", "conv"]


@pytest.mark.parametrize("source, found", [
    ("def f(x):\n    return isinstance(x, np.integer)\n", ["m.f"]),
    ("from numpy import integer  # noqa: F401\n", ["m.<module>"]),
    ("def f(x):\n    return numpy.integer, np.integer\n", ["m.f", "m.f"]),
    ("def f(x):\n    return np.int64(x), 'an integer'\n", []),
])
def test_the_integer_type_guard_itself(source, found):
    assert type_namers({"m": source}, "integer") == found


@pytest.mark.parametrize("source, found", [
    ("def f(n):\n    raise ValueError(f'{n} must be an integer from 1 to 9')\n", {"m.f"}),
    ("class C:\n    def g(self):\n        raise ValueError('d must be a whole integer')\n",
     {"m.C"}),
    ("def f(n):\n    raise ValueError(f'steps must be from 1 to 9, got {n}')\n", set()),
    ("def f():\n    raise ValueError('malformed: an integer has more than 4300 digits')\n",
     set()),
    ('def f(n):\n    """n must be an integer."""\n    return n\n', set()),
])
def test_the_integer_message_guard_itself(source, found):
    assert integer_messages({"m": source}) == found


def finite_tests(sources: dict[str, str]) -> set[str]:
    """``module.definition`` for each call of a scalar ``isfinite``, bare or as
    an attribute of anything but NumPy, whose ``np.isfinite`` tests arrays."""
    found = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if called(node, "isfinite") and getattr(
                        getattr(node.func, "value", None), "id", None) not in {"np", "numpy"}:
                    found.add(f"{module}.{def_name(top)}")
    return found


def test_numbers_real_is_named_once_in_the_real_rule():
    assert type_namers(SOURCES, "Real") == ["densemat._check_real"]


def test_every_real_rule_calls_the_one_rule():
    assert package_readers(SOURCES, "_check_real") == REAL_RULES


def test_only_the_real_rule_and_the_range_width_test_finiteness():
    assert finite_tests(SOURCES) == {"densemat._check_real", "sweep.SweepSpec"}


def test_the_finiteness_test_is_gone():
    assert [module for module, source in SOURCES.items() if "_is_finite" in source] == []


def test_the_real_rule_guards_themselves():
    # a hand-written real rule in place of the call, as exp_swap had one
    call = '    t = _check_real(t, "parameter t")\n'
    own = ("    if not (isinstance(t, numbers.Real) and math.isfinite(t)):\n"
           "        raise ValueError(f'parameter t must be finite, got {t}')\n")
    assert SOURCES["operators"].count(call) == 1
    sources = {**SOURCES, "operators": SOURCES["operators"].replace(call, own)}
    assert type_namers(sources, "Real") == ["densemat._check_real", "operators.exp_swap"]
    assert package_readers(sources, "_check_real") == REAL_RULES - {"operators.exp_swap"}
    assert finite_tests(sources) == {
        "densemat._check_real", "operators.exp_swap", "sweep.SweepSpec"}


@pytest.mark.parametrize("source, found", [
    ("import math\ndef f(t):\n    return math.isfinite(t)\n", {"m.f"}),
    ("from math import isfinite\nclass C:\n    ok = isfinite(1.0)\n", {"m.C"}),
    ("def f(a):\n    return np.isfinite(a).all(), numpy.isfinite(a)\n", set()),
    ("def f(t):\n    return _check_real(t, 't')\n", set()),
])
def test_the_finiteness_guard_itself(source, found):
    assert finite_tests({"m": source}) == found


def test_verify_builds_one_generator_from_no_literal_seed():
    calls = generator_calls(VERIFY.read_text(encoding="utf-8"))
    assert len(calls) == 1 and not calls[0].endswith("literal")


@pytest.mark.parametrize("source, found", [
    ("np.random.default_rng([run.seed, k])\n", ["line 1"]),
    ("rng = np.random.default_rng(777)\n", ["line 1 literal"]),
    ("default_rng(20240 + max(dims))\n", ["line 1 literal"]),
    ("from numpy.random import default_rng\ndefault_rng(seed=[s, 3])\n", ["line 2 literal"]),
    ("g = default_rng(s)\nh = np.random.default_rng(t)\n", ["line 1", "line 2"]),
    ("default_rng(True)\nnp.random.Generator(pcg)\nrng.random(3)\n", ["line 1 literal"]),
])
def test_the_generator_guard_itself(source, found):
    assert generator_calls(source) == found


def tolerance_takers(namespace: dict) -> set[str]:
    """Names of the functions in ``namespace`` with a parameter named ``tol``."""
    return {name for name, obj in namespace.items()
            if inspect.isfunction(obj) and "tol" in inspect.signature(obj).parameters}


def test_only_the_report_and_the_estimate_take_a_tolerance():
    public = {name: getattr(entpow, name) for name in entpow.__all__}
    assert tolerance_takers(public) == {"entanglement_report", "entangling_power_mc"}


@pytest.mark.parametrize("source, found", [
    ("def f(u, tol=1e-9): pass\n", {"f"}),
    ("def f(u, *, tol): pass\n", {"f"}),
    ("def f(u): pass\ndef g(u, n_samples, seed, tol=0.0): pass\n", {"g"}),
    ("def f(u, tolerance=1e-9): pass\n", set()),
    ("class E(ValueError):\n    def __init__(self, defect, tol): pass\n", set()),
])
def test_the_tolerance_parameter_guard_itself(source, found):
    namespace = {}
    exec(source, namespace)
    assert tolerance_takers(namespace) == found


def off_signature(criteria) -> list[str]:
    """Keys of the ``(key, title, bound, worst)`` rows whose ``worst`` does not
    take exactly two positional parameters ``run`` and ``rng``, without defaults."""
    plain = [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
             for name in ("run", "rng")]
    return [key for key, _, _, worst in criteria
            if [(p.name, p.kind, p.default)
                for p in inspect.signature(worst).parameters.values()] != plain]


def test_every_criterion_takes_only_the_run_and_its_generator():
    assert off_signature(CRITERIA) == []


@pytest.mark.parametrize("source, found", [
    ("def worst(run, rng): pass\n", []),
    ("def worst(run: '_Run', rng: 'np.random.Generator') -> float: pass\n", []),
    ("def worst(run, rng, n_instances=20): pass\n", ["a"]),
    ("def worst(run, rng=None): pass\n", ["a"]),
    ("def worst(run, *, rng): pass\n", ["a"]),
    ("def worst(rng, run): pass\n", ["a"]),
    ("def worst(run): pass\n", ["a"]),
])
def test_the_criterion_signature_guard_itself(source, found):
    namespace = {}
    exec(source, namespace)
    assert off_signature([("a", "title", 0, namespace["worst"])]) == found


def stack_and_dimension_takers(sources: dict[str, str]) -> set[str]:
    """``module.function`` for each function, at any depth, with a parameter
    named ``stack`` or ``blocks`` and one named ``d``."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
                if names & {"stack", "blocks"} and "d" in names:
                    found.add(f"{module}.{getattr(node, 'name', '<lambda>')}")
    return found


def test_no_function_takes_a_stack_and_its_dimension():
    assert stack_and_dimension_takers(SOURCES) == set()


def test_the_stack_dimension_guard_on_the_package():
    # the rearrangement as it was, with d beside the stack whose shape fixes it
    old = SOURCES["rearrange"].replace("def _rearrange(stack: np.ndarray, move: str)",
                                       "def _rearrange(stack: np.ndarray, d: int, move: str)")
    assert old != SOURCES["rearrange"]
    assert stack_and_dimension_takers({**SOURCES, "rearrange": old}) == {"rearrange._rearrange"}


@pytest.mark.parametrize("source, found", [
    ("def f(stack, move): pass\n", set()),
    ("def f(stack: np.ndarray, d: int, move: str): pass\n", {"m.f"}),
    ("def f(blocks, *, d=2): pass\n", {"m.f"}),
    ("def f(stack, /, d): pass\n", {"m.f"}),
    ("class C:\n    def g(self, stack, n, d): pass\n", {"m.g"}),
    ("def f(u):\n    def g(stack, d): pass\n", {"m.g"}),
    ("check = lambda stack, d: None\n", {"m.<lambda>"}),
    ("def f(d, n, rng): pass\ndef g(stack, n, rng): pass\n", set()),
    ("def f(stack, dim): pass\n", set()),
])
def test_the_stack_dimension_guard_itself(source, found):
    assert stack_and_dimension_takers({"m": source}) == found


def repr_echoes(sources: dict[str, str]) -> set[str]:
    """``module.definition`` for each ``!r`` conversion or ``repr`` call."""
    found = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                        or called(node, "repr")):
                    found.add(f"{module}.{def_name(top)}")
    return found


def test_only_echo_shows_a_value_by_repr():
    assert repr_echoes(SOURCES) == {"densemat._echo"}


@pytest.mark.parametrize("source, found", [
    ("def f(x):\n    raise ValueError(f'bad {x!r}')\n", {"m.f"}),
    ("class C:\n    def g(self):\n        return repr(self.x)\n", {"m.C"}),
    ("MESSAGE = f'{NAME!r}'\n", {"m.<module>"}),
    ("def f(x):\n    raise ValueError(f'bad {_echo(x)}, {x!s}, {x:.3e}')\n", set()),
])
def test_the_repr_guard_itself(source, found):
    assert repr_echoes({"m": source}) == found
