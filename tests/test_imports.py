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

Only ``densemat`` names ``np.integer``: every other module asks its
``_is_int`` whether a value is a non-bool Python or NumPy integer.

``verify`` builds a generator in one place, from the run's seed and the
criterion's row, never from an integer literal, so every random criterion
draws from the seed its caller gave.

Settings with one value in use are constants, not parameters: among the
public functions only ``entanglement_report`` and ``entangling_power_mc``
take a unitarity tolerance (the other measures gate at ``UNITARITY_TOL``),
and every criterion of ``verify.CRITERIA`` takes exactly ``(run, rng)``.
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

# The product-state sampler and the kernel that runs it, private to the
# module that draws the states and the one that estimates from them.
MC_SAMPLER = {"product_state_batch", "_sample_entropies"}
MC_SAMPLER_HOMES = {"operators.py", "entanglement.py"}

# Top-level packages that start threads, imported only by ``entanglement``.
THREADS = {"threading", "concurrent"}

ENTANGLEMENT = Path(entpow.__file__).parent / "entanglement.py"

# The one module that reads and writes JSON.
JSON_HOME = "opfile.py"

# The one module that names ``np.integer``, in its integer test ``_is_int``.
INTEGER_HOME = "densemat.py"

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


def tolerances(path: Path) -> set[str]:
    """``module:NAME`` for each module-level assignment of a ``*_TOL`` name."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    targets = [t for node in body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in body if isinstance(node, ast.AnnAssign)]
    return {f"{path.stem}:{t.id}" for t in targets
            if isinstance(t, ast.Name) and t.id.endswith("_TOL")}


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
    ("from . import entanglement\nentanglement._purity(s, 2, 'realign')\n", {"_purity"}),
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
    assert set().union(*map(tolerances, MODULES)) == {"densemat:UNITARITY_TOL"}


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
    assert tolerances(path) == found


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
    ("from . import entanglement\nentanglement._sample_entropies(s, 2, 100, rng)\n",
     {"_sample_entropies"}),
    ("def _sample_entropies(stack, d, n, rng): pass\n_sample_entropies(s, 2, 100, rng)\n",
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
])
def test_the_integer_guard_itself(source, found):
    assert names_reached(source, {"integer"}) == found


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
