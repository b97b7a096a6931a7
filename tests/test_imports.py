"""The design rules of ``entpow``, checked on its source with ``ast``.

Most rules say which definitions may refer to something.  ``RULES`` holds
each of them as its text, a ``match`` on ``ast`` nodes and the definitions
allowed to hold a matching node, and ``references`` is the one walker that
finds those nodes.  ``MUTATIONS`` puts a violation of each rule into a copy of
the sources, which must fail the rule, and ``WALKER_CASES`` pins what the
walker finds in small sources.

The other rules are tests of their own.  No linter ships with the project,
so every name a module imports is used there: it is read anywhere or listed
in ``__all__``, and an import line marked ``# noqa: F401`` is a deliberate
exception.  Each module's ``__all__`` lists only names that module binds,
and the package's is ``__version__`` followed by those of the library
modules it republishes, each name once.  The package assigns one
module-level tolerance, ``densemat.UNITARITY_TOL``; every byte budget is
assigned once, in ``densemat``, beside the operator file's size cap; and the
Monte-Carlo sample counts once, in ``entanglement``.  ``import entpow`` does
not load ``concurrent.futures``.  ``densemat._echo`` has one form and so one
parameter.  Settings with one value in use are constants, not parameters:
among the public functions only ``entanglement_report`` and
``entangling_power_mc`` take a unitarity tolerance (the other measures gate
at ``UNITARITY_TOL``), and every criterion of ``verify.CRITERIA`` takes
exactly ``(run, rng)``.
"""

import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import entpow
from entpow.verify import CRITERIA

MODULES = sorted(Path(entpow.__file__).parent.glob("*.py"))

# Every module's source, by module name.
SOURCES = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}

# The purity core, private to ``entanglement``.
CORE = {"_purities", "_purity", "_entanglement", "_power"}

# The product-state sampler, its draw and finish, and the pipeline that runs
# them.
MC_SAMPLER = {"product_state_batch", "_draw_states", "_finish_states", "_sample_entropies"}

# The byte budgets that ``densemat._spans`` cuts into chunks.
CHUNK_BUDGETS = {"_STACK_BYTES", "_MC_CHUNK_BYTES"}

# Every definition that calls the integer rule: each integer input's rule.
INTEGER_RULES = {
    "densemat._check_local_dim", "operators._check_seed", "operators.haar_unitary",
    "operators.product_state_batch", "sweep.SweepSpec", "entanglement._check_mc_samples",
}

# Every definition that calls the real rule: each real input's rule.
REAL_RULES = {"densemat._gate", "operators.exp_swap", "sweep.SweepSpec"}

# Names of input tests the one integer and real rules replaced.
RETIRED = ("_is_int", "_is_finite")


@functools.cache
def parsed(source: str) -> ast.Module:
    """``source`` parsed once, with the ``parent`` of every node below the module."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node
    return tree


def references(sources: dict[str, str], match) -> Counter:
    """How many nodes ``match`` accepts in each top-level definition, as
    ``module.definition``, with ``module.<module>`` for code outside any.
    ``match`` may look up the tree: every node has its ``parent``."""
    found = Counter()
    for module, source in sources.items():
        for top in parsed(source).body:
            found[f"{module}.{getattr(top, 'name', '<module>')}"] += sum(map(match, ast.walk(top)))
    return +found


def breaches(refs: Counter, allowed) -> list[str]:
    """What ``refs`` holds that ``allowed`` does not admit, as ``+key``, and
    what it lacks of ``allowed``, as ``-key``: once a key for a set, as often
    as it counts for a list.  A ``module.*`` pattern admits every definition
    of that module, and need not be met."""
    wild = tuple(p[:-1] for p in allowed if p.endswith("*"))
    want = Counter(p for p in allowed if not p.endswith("*"))
    got = Counter({key: n if isinstance(allowed, list) else 1 for key, n in refs.items()
                   if key in want or not key.startswith(wild)})
    return sorted([f"+{key}" for key in (got - want).elements()]
                  + [f"-{key}" for key in (want - got).elements()])


def others(*homes: str) -> set[str]:
    """Patterns that admit every definition of every module but ``homes``."""
    return {f"{module}.*" for module in SOURCES if module not in homes}


def named(*names: str):
    """Match a name, an attribute or an imported name of ``names``."""
    return lambda node: (isinstance(node, ast.Name) and node.id in names
                         or isinstance(node, ast.Attribute) and node.attr in names
                         or isinstance(node, ast.alias) and node.name in names)


def loads(*names: str):
    """Match a read of a bare name of ``names``."""
    return lambda node: (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                         and node.id in names)


def reads(*names: str):
    """Match a read of a name of ``names``, bare or as an attribute of anything."""
    load = loads(*names)
    return lambda node: load(node) or isinstance(node, ast.Attribute) and node.attr in names


def called(name: str):
    """Match a call of ``name``, bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def imports(*packages: str):
    """Match an absolute import, at any depth, of one of ``packages`` or a module in it."""
    return lambda node: (
        isinstance(node, ast.alias) and isinstance(node.parent, ast.Import)
        and node.name.split(".")[0] in packages
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] in packages)


def budget_outside_spans(node) -> bool:
    """A read of a chunk budget that is not itself an argument of ``_spans``."""
    if not reads(*CHUNK_BUDGETS)(node):
        return False
    call = node.parent.parent if isinstance(node.parent, ast.keyword) else node.parent
    return not called("_spans")(call)


def integer_message(node) -> bool:
    """A ``raise`` whose text says something "must be" an integer."""
    if not isinstance(node, ast.Raise):
        return False
    text = " ".join(n.value for n in ast.walk(node)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return "must be" in text and "integer" in text


def stack_and_dimension(node) -> bool:
    """A function with a parameter ``stack`` or ``blocks`` and one named ``d``."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return False
    names = {arg.arg for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    return bool(names & {"stack", "blocks"}) and "d" in names


# Each rule: its text, the nodes it is about, and the definitions that may
# hold them: a set of ``module.definition`` keys, each of which must hold one
# or more, and ``module.*`` patterns, which may; or a list, whose keys must
# each hold exactly as many as the times the key appears.
RULES = {
    "purity core": (
        "Only entanglement reaches its purity core.",
        named(*CORE), {"entanglement.*"}),
    "gate": (
        "The unitarity policy is densemat's alone: its _gate is read only by _measures, "
        "_mc_estimates and entanglement_report in entanglement and by ControlledUSpec in "
        "operators.",
        reads("_gate"), {"entanglement._measures", "entanglement._mc_estimates",
                         "entanglement.entanglement_report", "operators.ControlledUSpec"}),
    "defects": (
        "Outside densemat the defect itself, _unitarity_defects, is read only by "
        "verify._controlled_u, which measures a defect and gates nothing.",
        reads("_unitarity_defects"), {"densemat.*", "verify._controlled_u"}),
    "chunk budgets": (
        "The two chunk budgets reach the package only as the budget argument of "
        "densemat._spans, the one chunk rule, so no module turns a budget into a count of "
        "its own.",
        budget_outside_spans, set()),
    "chunk loop": (
        "densemat._spans has the one stepped range: no other definition loops over chunks.",
        lambda node: called("range")(node) and len(node.args) == 3, {"densemat._spans"}),
    "stack budget": (
        "Only densemat._stack_spans reads the stack budget _STACK_BYTES: one definition "
        "cuts every operator stack, of sweeps and of verify's criteria alike.",
        reads("_STACK_BYTES"), {"densemat._stack_spans"}),
    "sweep privates": (
        "verify imports nothing private from sweep.",
        lambda node: (isinstance(node, ast.alias) and node.name.startswith("_")
                      and getattr(node.parent, "module", None) == "sweep"),
        others("verify")),
    "one purity": (
        "Inside entanglement one purity is read only by _purities and entanglement_report, "
        "so every scalar measure goes through _measures.",
        loads("_purity"), {"entanglement._purities", "entanglement.entanglement_report"}),
    "sampler": (
        "Only operators and entanglement reach the Monte-Carlo sampler: the product-state "
        "sampler, its draw and finish, and the pipeline that runs them.",
        named(*MC_SAMPLER), {"operators.*", "entanglement.*"}),
    "stacked estimate": (
        "verify gets every Monte-Carlo estimate from the stacked estimator "
        "entanglement._mc_estimates, so it runs no per-operator estimate loop.",
        named("entangling_power_mc"), others("verify")),
    "threads": (
        "Only entanglement imports threading or concurrent.futures: the Monte-Carlo "
        "estimator's worker thread is the package's only thread.",
        imports("threading", "concurrent"), {"entanglement.*"}),
    "json": (
        "Only opfile imports json: the operator file format, and how it is parsed, is that "
        "module's alone.",
        imports("json"), {"opfile.*", "opfile.<module>"}),
    "integer type": (
        "Only densemat names np.integer.",
        named("integer"), {"densemat.*", "densemat._check_int"}),
    "integer rule": (
        "Every integer input passes the one integer rule: the named rules for the local "
        "dimension, the seed and the Monte-Carlo sample count call it, as do the few inputs "
        "with a range of their own.",
        reads("_check_int"), INTEGER_RULES),
    "integer message": (
        "Only the one integer rule words an integer rule's message.",
        integer_message, {"densemat._check_int"}),
    "real type once": (
        "The one real rule, densemat._check_real, names numbers.Real once.",
        named("Real"), ["densemat._check_real"]),
    "real rule": (
        "Every real input passes the one real rule: exp_swap's angle, a sweep's parameter "
        "range and the unitarity tolerance call it.",
        reads("_check_real"), REAL_RULES),
    "finiteness": (
        "Besides the real rule, only the width of a sweep's range, two floats the rule "
        "returned, is tested with math.isfinite; np.isfinite tests arrays.",
        lambda node: called("isfinite")(node) and getattr(
            getattr(node.func, "value", None), "id", None) not in {"np", "numpy"},
        {"densemat._check_real", "sweep.SweepSpec"}),
    "one generator": (
        "verify builds a generator in one place, from the run's seed and the criterion's "
        "row.",
        called("default_rng"), [*others("verify"), "verify._worst"]),
    "no literal seed": (
        "verify never seeds a generator from an integer literal, so every random criterion "
        "draws from the seed its caller gave.",
        lambda node: called("default_rng")(node) and any(
            isinstance(n, ast.Constant) and isinstance(n.value, int)
            for arg in node.args + node.keywords for n in ast.walk(arg)),
        others("verify")),
    "stack and d": (
        "A value the inputs fix is not asked for: no function takes an operator stack (a "
        "parameter stack or blocks) together with a local dimension d, because the stack's "
        "shape already fixes d.",
        stack_and_dimension, set()),
    "repr": (
        "Every rejected value is shown by one function, densemat._echo: no other definition "
        "formats a value with !r or calls repr.",
        lambda node: (isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                      or called("repr")(node)),
        {"densemat._echo"}),
    "one cache": (
        "cli._parser is the package's one cache: no other definition names functools.cache "
        "or functools.lru_cache, so the library keeps no arrays between calls.",
        named("cache", "lru_cache"), ["cli._parser"]),
    "one orthonormaliser": (
        "operators._haar_stack is the package's one orthonormaliser: no other definition "
        "names a QR or operators._gram_schmidt, its Gram-Schmidt for small sides.",
        named("qr", "_gram_schmidt"), {"operators._haar_stack"}),
}

# A hand-written rule of the kind the one integer rule replaced.
CHECK_STEPS = ("def _check_steps(n):\n"
               "    if not (isinstance(n, (int, np.integer)) and 1 <= n <= 9):\n"
               "        raise ValueError(f'steps must be a positive integer, got {n}')\n")

# exp_swap's call of the real rule, and the hand-written real rule it replaced.
REAL_CALL = '    t = _check_real(t, "parameter t")\n'
OWN_REAL_RULE = ("    if not (isinstance(t, numbers.Real) and math.isfinite(t)):\n"
                 "        raise ValueError(f'parameter t must be finite, got {t}')\n")

# For each rule, a violation: (module, text, replacement) replaces the one
# occurrence of the text in that module's source, and a text of None appends
# the replacement.
MUTATIONS = {
    "purity core": ("verify", None, "from .entanglement import _purities  # noqa: F401\n"),
    "gate": ("operators", "_gate(", "_unitarity_defects("),
    "defects": ("cli", None, "def _defect(s):\n    return _unitarity_defects(s)\n"),
    "chunk budgets": (
        "entanglement", None,
        "def _chunk(d, k):\n    return max(1, _MC_CHUNK_BYTES // (64 * k * d * d))\n"),
    "chunk loop": ("sweep", None,
                   "def _chunks(n, s):\n    return [(lo, lo + s) for lo in range(0, n, s)]\n"),
    "stack budget": ("sweep", "_stack_spans(spec.steps, d)",
                     "_spans(spec.steps, 16 * d**4, _STACK_BYTES)"),
    "sweep privates": ("verify", "from .sweep import SweepSpec,",
                       "from .sweep import _BUILDERS, SweepSpec,"),
    "one purity": ("entanglement", None, "def _realigned(s):\n    return _purity(s, 'realign')\n"),
    "sampler": ("verify", None,
                "from .operators import product_state_batch as draw  # noqa: F401\n"),
    "stacked estimate": (
        "verify", None,
        "def _estimate(u, run):\n    return entangling_power_mc(u, 500, run.seed)\n"),
    "threads": ("sweep", None, "def run():\n    import concurrent.futures\n"),
    "json": ("cli", None, "import json\n"),
    "integer type": ("sweep", None, CHECK_STEPS),
    "integer rule": ("operators", "_check_int(seed,", "int(seed,"),
    "integer message": ("sweep", None, CHECK_STEPS),
    "real type once": ("operators", REAL_CALL, OWN_REAL_RULE),
    "real rule": ("operators", REAL_CALL, OWN_REAL_RULE),
    "finiteness": ("operators", REAL_CALL, OWN_REAL_RULE),
    "one generator": ("verify", None,
                      "def _extra(run):\n    return np.random.default_rng(run.seed)\n"),
    "no literal seed": ("verify", "default_rng([run.seed, k])", "default_rng([run.seed, 777])"),
    "stack and d": ("rearrange", "def _rearrange(stack: np.ndarray, move: str)",
                    "def _rearrange(stack: np.ndarray, d: int, move: str)"),
    "repr": ("opfile", None, "def _bad(x):\n    raise ValueError(f'bad {x!r}')\n"),
    "one cache": ("operators", "def _check_seed(",
                  "@functools.lru_cache(maxsize=1)\ndef _check_seed("),
    "one orthonormaliser": ("verify", None,
                            "def _orthonormal(z):\n    return np.linalg.qr(z)[0]\n"),
}

# What ``references`` finds in small sources: (match, source, keys), where
# match is a predicate or the key of the rule whose match it is, a source
# that is text is module ``m``, and each key appears once for every node.
WALKER_CASES = [
    ("purity core", "from .entanglement import _measures, entangling_power\n", []),
    ("purity core", "from .entanglement import _gate, _purities\n", ["m.<module>"]),
    ("purity core", "from .entanglement import _power as p  # noqa: F401\n", ["m.<module>"]),
    ("purity core", "from . import entanglement\nentanglement._purity(s, 'realign')\n",
     ["m.<module>"]),
    ("gate", "from .densemat import _gate\ndef f(s):\n    return _gate(s, 0.0)\n", ["m.f"]),
    ("gate", {"a": "def f(s):\n    _gate(s, 1e-9)\n", "b": "def _gate(s, tol): pass\n"},
     ["a.f"]),
    ("gate", "class C:\n    def __post_init__(self):\n        _gate(b, TOL)\n", ["m.C"]),
    ("gate", "from . import densemat\ndef f(s):\n    densemat._gate(s, 0.0)\n", ["m.f"]),
    ("gate", "import entpow\ncheck = entpow.densemat._gate\n", ["m.<module>"]),
    ("gate", {"m": "def f(_gate):\n    pass\n", "n": "x = 1\n"}, []),
    (loads("_gate"), "def _gate(s, tol): pass\ndef f(s):\n    return _gate(s, 0.0)\n", ["m.f"]),
    (loads("_gate"), "def f(u):\n    def g():\n        _gate(u, 1e-9)\n    return g\n", ["m.f"]),
    (loads("_gate"), "check = _gate\n", ["m.<module>"]),
    (loads("_gate"), "class R:\n    gate = staticmethod(_gate)\n", ["m.R"]),
    (loads("_gate"), "def f(_gate):\n    pass\ndef g(x):\n    return x._gate\n", []),
    ("chunk budgets", "def f(n, d):\n    return _spans(n, 16 * d**4, _STACK_BYTES)\n", []),
    ("chunk budgets",
     "def f(n):\n    return densemat._spans(n, 16, budget=densemat._MC_CHUNK_BYTES)\n", []),
    ("chunk budgets", "def f(n):\n    return _spans(n, _STACK_BYTES // 16, 1)\n", ["m.f"]),
    ("chunk budgets", "def f(n):\n    return _spans(n, 16, 2 * _STACK_BYTES)\n", ["m.f"]),
    ("chunk budgets", "def f():\n    return entpow.sweep._STACK_BYTES\n", ["m.f"]),
    ("chunk budgets", "BUDGET = _MC_CHUNK_BYTES\n", ["m.<module>"]),
    ("chunk budgets", "from .densemat import _STACK_BYTES  # noqa: F401\n_STACK_BYTES = 1\n", []),
    ("chunk loop", "def f(n, s):\n    return [(lo, lo + s) for lo in range(0, n, s)]\n", ["m.f"]),
    ("chunk loop", "class C:\n    def g(self):\n        for i in range(2, 9, 3): pass\n", ["m.C"]),
    ("chunk loop", "def f(n):\n    return list(range(n)), range(1, n)\n", []),
    ("sweep privates", "from .sweep import SweepSpec, _BUILDERS\n", ["m.<module>"]),
    ("sweep privates", "from .operators import _check_seed\nimport _sweep\n", []),
    ("sampler", "from .entanglement import _mc_estimates\n", []),
    ("sampler", "from .operators import product_state_batch as draw  # noqa: F401\n",
     ["m.<module>"]),
    ("sampler", "from .operators import _draw_states, _finish_states  # noqa: F401\n",
     ["m.<module>", "m.<module>"]),
    ("sampler", "from . import entanglement\nentanglement._sample_entropies(s, 100, rng)\n",
     ["m.<module>"]),
    ("sampler", "def _sample_entropies(stack, n, rng): pass\n_sample_entropies(s, 100, rng)\n",
     ["m.<module>"]),
    ("threads", "import threading\n", ["m.<module>"]),
    ("threads", "from concurrent.futures import ThreadPoolExecutor\n", ["m.<module>"]),
    ("threads", "from concurrent import futures as f  # noqa: F401\n", ["m.<module>"]),
    ("threads", "def run():\n    import concurrent.futures\n", ["m.run"]),
    ("threads", "from .threading import start\n", []),
    ("threads", "import numpy as np\nfrom .operators import _check_seed\n", []),
    ("json", "import json\n", ["m.<module>"]),
    ("json", "from json.decoder import JSONObject  # noqa: F401\n", ["m.<module>"]),
    ("json", "def dump(x):\n    import json as j\n    return j.dumps(x)\n", ["m.dump"]),
    ("json", "from .opfile import read_operator_file\n", []),
    ("json", "import jsonschema\n", []),
    ("integer type", "isinstance(x, (int, np.integer))\n", ["m.<module>"]),
    ("integer type", "import numpy\nissubclass(t, numpy.integer)\n", ["m.<module>"]),
    ("integer type", "from numpy import integer as i  # noqa: F401\n", ["m.<module>"]),
    ("integer type", "from .densemat import _is_int\n_is_int(x)\n", []),
    ("integer type", "'an integer from 2 to 16'\nnp.int64(3)\n", []),
    ("integer type", "from .densemat import _check_int\n_check_int(x, 2, 16, 'd')\n", []),
    ("integer type", "def f(x):\n    return isinstance(x, np.integer)\n", ["m.f"]),
    ("integer type", "from numpy import integer  # noqa: F401\n", ["m.<module>"]),
    ("integer type", "def f(x):\n    return numpy.integer, np.integer\n", ["m.f", "m.f"]),
    ("integer type", "def f(x):\n    return np.int64(x), 'an integer'\n", []),
    ("integer message", "def f(n):\n    raise ValueError(f'{n} must be an integer from 1 to 9')\n",
     ["m.f"]),
    ("integer message",
     "class C:\n    def g(self):\n        raise ValueError('d must be a whole integer')\n",
     ["m.C"]),
    ("integer message", "def f(n):\n    raise ValueError(f'steps must be from 1 to 9, got {n}')\n",
     []),
    ("integer message",
     "def f():\n    raise ValueError('malformed: an integer has more than 4300 digits')\n", []),
    ("integer message", 'def f(n):\n    """n must be an integer."""\n    return n\n', []),
    ("finiteness", "import math\ndef f(t):\n    return math.isfinite(t)\n", ["m.f"]),
    ("finiteness", "from math import isfinite\nclass C:\n    ok = isfinite(1.0)\n", ["m.C"]),
    ("finiteness", "def f(a):\n    return np.isfinite(a).all(), numpy.isfinite(a)\n", []),
    ("finiteness", "def f(t):\n    return _check_real(t, 't')\n", []),
    ("one generator", "np.random.default_rng([run.seed, k])\n", ["m.<module>"]),
    ("one generator", "g = default_rng(s)\nh = np.random.default_rng(t)\n",
     ["m.<module>", "m.<module>"]),
    ("no literal seed", "np.random.default_rng([run.seed, k])\n", []),
    ("no literal seed", "rng = np.random.default_rng(777)\n", ["m.<module>"]),
    ("no literal seed", "default_rng(20240 + max(dims))\n", ["m.<module>"]),
    ("no literal seed", "from numpy.random import default_rng\ndefault_rng(seed=[s, 3])\n",
     ["m.<module>"]),
    ("no literal seed", "g = default_rng(s)\nh = np.random.default_rng(t)\n", []),
    ("no literal seed", "default_rng(True)\nnp.random.Generator(pcg)\nrng.random(3)\n",
     ["m.<module>"]),
    ("stack and d", "def f(stack, move): pass\n", []),
    ("stack and d", "def f(stack: np.ndarray, d: int, move: str): pass\n", ["m.f"]),
    ("stack and d", "def f(blocks, *, d=2): pass\n", ["m.f"]),
    ("stack and d", "def f(stack, /, d): pass\n", ["m.f"]),
    ("stack and d", "class C:\n    def g(self, stack, n, d): pass\n", ["m.C"]),
    ("stack and d", "def f(u):\n    def g(stack, d): pass\n", ["m.f"]),
    ("stack and d", "check = lambda stack, d: None\n", ["m.<module>"]),
    ("stack and d", "def f(d, n, rng): pass\ndef g(stack, n, rng): pass\n", []),
    ("stack and d", "def f(stack, dim): pass\n", []),
    ("repr", "def f(x):\n    raise ValueError(f'bad {x!r}')\n", ["m.f"]),
    ("repr", "class C:\n    def g(self):\n        return repr(self.x)\n", ["m.C"]),
    ("repr", "MESSAGE = f'{NAME!r}'\n", ["m.<module>"]),
    ("repr", "def f(x):\n    raise ValueError(f'bad {_echo(x)}, {x!s}, {x:.3e}')\n", []),
    ("stack budget", "def f(n, d):\n    return _spans(n, 16 * d**4, _STACK_BYTES)\n", ["m.f"]),
    ("stack budget", "def f():\n    return entpow.densemat._STACK_BYTES, _MC_CHUNK_BYTES\n",
     ["m.f"]),
    ("stack budget", "_STACK_BYTES = 64 * 1024\ndef f(n, d):\n    return _stack_spans(n, d)\n",
     []),
    ("one cache", "import functools\n@functools.cache\ndef _parser():\n    pass\n", ["m._parser"]),
    ("one cache", "@functools.lru_cache(maxsize=1)\ndef f(d):\n    pass\n", ["m.f"]),
    ("one cache", "from functools import lru_cache\nclass C:\n    @lru_cache\n    def g(self): pass\n",
     ["m.<module>", "m.C"]),
    ("one cache", "parse = functools.cache(build)\n", ["m.<module>"]),
    ("one cache", "@functools.wraps(f)\ndef g(cached):\n    return cached\n", []),
    ("one orthonormaliser", "def f(z):\n    return np.linalg.qr(z)[0]\n", ["m.f"]),
    ("one orthonormaliser", "from numpy.linalg import qr  # noqa: F401\n", ["m.<module>"]),
    ("one orthonormaliser", "class C:\n    def g(self, z):\n        return scipy.linalg.qr(z)\n",
     ["m.C"]),
    ("one orthonormaliser", "def f(z):\n    return _gram_schmidt(z)\n", ["m.f"]),
    ("one orthonormaliser", "def _gram_schmidt(z):\n    q, r = z, 1\n    return q\n", []),
    ("one orthonormaliser", "def f(z):\n    return np.linalg.svd(z), 'qr'\n", []),
]


@pytest.mark.parametrize("rule", RULES)
def test_the_package_keeps_the_rule(rule):
    text, match, allowed = RULES[rule]
    assert breaches(references(SOURCES, match), allowed) == [], text


@pytest.mark.parametrize("rule", MUTATIONS)
def test_a_violation_fails_the_rule(rule):
    module, old, new = MUTATIONS[rule]
    source = SOURCES[module]
    assert old is None or source.count(old) == 1
    mutant = source + new if old is None else source.replace(old, new)
    _, match, allowed = RULES[rule]
    assert breaches(references({**SOURCES, module: mutant}, match), allowed) != []


def test_every_rule_has_a_violation():
    assert RULES.keys() == MUTATIONS.keys()


@pytest.mark.parametrize("match, source, keys", WALKER_CASES)
def test_the_walker(match, source, keys):
    match = RULES[match][1] if isinstance(match, str) else match
    sources = source if isinstance(source, dict) else {"m": source}
    assert references(sources, match) == Counter(keys)


@pytest.mark.parametrize("refs, allowed, found", [
    ({"a.f": 2}, {"a.f"}, []),
    ({"a.f": 2}, ["a.f"], ["+a.f"]),
    ({}, ["a.f"], ["-a.f"]),
    ({"a.f": 1, "b.g": 1}, {"a.*"}, ["+b.g"]),
    ({"a.<module>": 1}, {"a.*", "a.<module>"}, []),
    ({"a.f": 1}, {"a.*", "a.<module>"}, ["-a.<module>"]),
])
def test_what_a_rule_admits(refs, allowed, found):
    assert breaches(Counter(refs), allowed) == found


@pytest.mark.parametrize("name", RETIRED)
def test_a_retired_name_is_gone(name):
    assert [module for module, source in SOURCES.items() if name in source] == []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported_at = {}
    for alias in [alias for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__" for alias in node.names]:
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


# The modules whose public names the package republishes, in its order.
REPUBLISHED = ("densemat", "rearrange", "entanglement", "operators", "opfile", "sweep")


def test_the_package_republishes_each_module_s_names_once():
    modules = [importlib.import_module(f"entpow.{name}") for name in REPUBLISHED]
    assert entpow.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    assert len(set(entpow.__all__)) == len(entpow.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(entpow, name) is getattr(module, name), name


def unbound_public_names(source: str) -> list[str]:
    """Names in the literal ``__all__`` of ``source`` that no top-level
    ``def``, ``class`` or assignment there binds."""
    body = ast.parse(source).body
    bound, published = set(), []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            bound |= {n.id for n in ast.walk(target)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            if isinstance(target, ast.Name) and target.id == "__all__":
                published = ast.literal_eval(node.value)
    return [name for name in published if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_is_bound_in_its_own_module(path):
    assert unbound_public_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("def f(): pass\nclass C: pass\nX = 1\n__all__ = ['f', 'C', 'X']\n", []),
    ("Y: int = 2\nA, B = 1, 2\n__all__ = ['Y', 'A', 'B']\n", []),
    ("from .densemat import UNITARITY_TOL\n__all__ = ['UNITARITY_TOL']\n", ["UNITARITY_TOL"]),
    ("import numpy as np\n__all__ = ['np', 'g']\ndef f():\n    g = 1\n", ["np", "g"]),
    ("def f(): pass\n", []),
    ("x.y = 1\n__all__ = ['x']\n", ["x"]),
])
def test_the_binding_guard_itself(source, found):
    assert unbound_public_names(source) == found


def constants(path: Path, suffix: str = "_TOL") -> set[str]:
    """``module:NAME`` for each module-level assignment of a name ending in ``suffix``."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    targets = [t for node in body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in body if isinstance(node, ast.AnnAssign)]
    return {f"{path.stem}:{t.id}" for t in targets
            if isinstance(t, ast.Name) and t.id.endswith(suffix)}


def test_every_byte_budget_is_assigned_once_in_densemat():
    assert set().union(*(constants(path, "_BYTES") for path in MODULES)) == {
        "densemat:_STACK_BYTES", "densemat:_MC_CHUNK_BYTES", "densemat:_STATE_BYTES",
        "opfile:_MAX_BYTES",
    }


def test_one_module_level_tolerance():
    assert set().union(*map(constants, MODULES)) == {"densemat:UNITARITY_TOL"}


def test_the_sample_counts_are_assigned_once_in_entanglement():
    assert set().union(*(constants(path, "_MC_SAMPLES") for path in MODULES)) == {
        "entanglement:MIN_MC_SAMPLES", "entanglement:DEFAULT_MC_SAMPLES",
        "entanglement:MAX_MC_SAMPLES",
    }


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


def test_importing_entpow_does_not_load_the_executor():
    src = str(Path(entpow.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, entpow; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"


def parameters(source: str, name: str) -> list[str]:
    """Parameter names of each top-level function ``name`` in ``source``."""
    return [arg.arg for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef) and top.name == name
            for arg in top.args.posonlyargs + top.args.args + top.args.kwonlyargs]


def test_echo_has_one_form():
    assert parameters(SOURCES["densemat"], "_echo") == ["x"]
    # a second echo convention
    echo = SOURCES["densemat"].replace("def _echo(x)", "def _echo(x, conv=repr)")
    assert parameters(echo, "_echo") == ["x", "conv"]


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
