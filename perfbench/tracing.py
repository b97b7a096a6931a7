"""Spans around the calls into each entpow module, recorded from outside.

entpow modules bind each other's functions with ``from .x import y``, so a
function has one binding in its own module and one in every module that
imports it.  ``traced`` replaces every binding of every public function, plus
the ``__post_init__`` of the two validating dataclasses, with a wrapper that
records a span, and puts the originals back on exit.

Spans (name, start, end, parent, operation id) are appended to flat arrays in
memory and written once, by ``Tracer.save``, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

MODULES = ("cli", "opfile", "sweep", "verify", "entanglement", "operators", "rearrange", "densemat")
# (module, class): construction is timed through the class's __post_init__.
VALIDATED_CLASSES = (("rearrange", "BipartiteOperator"), ("operators", "ControlledUSpec"))


def _read_operator_file_bytes(args, kwargs) -> int:
    content = args[0] if args else kwargs["content"]
    return len(content)


def _product_state_batch_bytes(args, kwargs) -> int:
    # (rng, n, d): two (n, d) complex factors and the (n, d^2) complex product
    _, n, d = args
    return 16 * (2 * n * d + n * d * d)


# Bytes a call handles, keyed by span name: input bytes parsed for the file
# reader, array bytes computed from shapes for the sampler.
BYTE_COUNTERS = {
    "opfile.read_operator_file": _read_operator_file_bytes,
    "operators.product_state_batch": _product_state_batch_bytes,
}


class Tracer:
    """Span store: one row per call, parent links by row index."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.nbytes = array("q")
        self.op_id = -1
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        count_bytes = BYTE_COUNTERS.get(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, nbytes, stack = self.start, self.end, self.nbytes, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            nbytes.append(count_bytes(args, kwargs) if count_bytes else 0)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns, self ns and bytes.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        n = len(self.name)
        names = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = (np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child_ns
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_ns, minlength=k)
        nbytes = np.bincount(names, weights=np.asarray(self.nbytes, dtype=float), minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "incl_ns": float(incl[i]),
                "self_ns": float(own[i]),
                "bytes": float(nbytes[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span once: an .npz of the columns plus the name table."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.op, dtype=np.int64),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            bytes=np.asarray(self.nbytes, dtype=np.int64),
        )


def _public_functions(mod, short: str) -> dict:
    if short == "cli":
        candidates = ["main"]
    else:
        candidates = mod.__all__
    found = {}
    for attr in candidates:
        obj = getattr(mod, attr)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            found[obj] = f"{short}.{attr}"
    return found


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every binding of every public entpow function."""
    import entpow

    mods = {short: importlib.import_module(f"entpow.{short}") for short in MODULES}
    originals = {}
    for short, mod in mods.items():
        originals.update(_public_functions(mod, short))
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in originals.items()}

    patched = []
    for mod in [entpow, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    for short, cls_name in VALIDATED_CLASSES:
        cls = getattr(mods[short], cls_name)
        orig = cls.__dict__["__post_init__"]
        patched.append((cls, "__post_init__", orig))
        cls.__post_init__ = tracer.wrap(f"{short}.{cls_name}", orig)
    try:
        yield tracer
    finally:
        for owner, attr, obj in reversed(patched):
            setattr(owner, attr, obj)


def layer_metrics(names: list[str], summary: dict, units: int, overhead: float) -> dict:
    """Per-layer metrics, per operation, from the traced run's span summary.

    ``<span>.calls_per_op`` / ``.constructions_per_op``: calls per operation;
    ``<span>.self_us`` / ``.self_ms``: self time per operation; a module name
    in place of a span sums its spans; ``.mb_per_s``: bytes over inclusive
    time; ``.bytes_computed``: bytes per operation, from array shapes.
    """
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = overhead
            continue
        base, stat = name.rsplit(".", 1)
        if "." in base:
            spans = [summary[base]]
        else:  # a whole module
            spans = [s for n, s in summary.items() if n.startswith(base + ".")]
        calls = sum(s["calls"] for s in spans)
        self_ns = sum(s["self_ns"] for s in spans)
        incl_ns = sum(s["incl_ns"] for s in spans)
        nbytes = sum(s["bytes"] for s in spans)
        if stat in ("calls_per_op", "constructions_per_op"):
            out[name] = calls / units
        elif stat == "self_us":
            out[name] = self_ns / 1e3 / units
        elif stat == "self_ms":
            out[name] = self_ns / 1e6 / units
        elif stat == "mb_per_s":
            out[name] = nbytes / 1e6 / (incl_ns / 1e9) if incl_ns else 0.0
        elif stat == "bytes_computed":
            out[name] = nbytes / units
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
    return out
