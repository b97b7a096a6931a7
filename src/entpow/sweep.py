"""Parameter sweeps over built-in operator families, rendered as CSV.

Rows are evaluated in chunks: each chunk of operators is built as one
(n, d^2, d^2) stack and goes once through ``entanglement._measures``, which
gates the stack and returns its three measures.  A chunk holds at most
``densemat._STACK_BYTES`` of operator entries, whatever ``steps`` is; the
rows themselves are all held, so memory grows with ``steps``.  The random
families draw every instance from one generator seeded with ``seed``, in row
order, sample-major, so the rows do not depend on where the chunks split.

Output is locale-independent by construction: '.' decimal separator, LF
line endings, floats at 17 significant digits.  A fixed spec always
renders to byte-identical CSV.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .densemat import _STACK_BYTES, _check_int, _check_local_dim, _echo, _is_finite
from .densemat import _operator_bytes, _spans
from .entanglement import _measures
# Not called here: perfbench's tracing test checks that it wraps and restores
# this binding.
from .entanglement import operator_entanglement  # noqa: F401
from .operators import DEFAULT_SEED, _check_seed, _exp_swap_stack, _haar_stack
from .operators import _random_controlled_u_stack

__all__ = ["FAMILIES", "SweepSpec", "sweep_rows", "render_csv"]

FAMILIES = ("exp_swap", "controlled_u_random", "haar")

CSV_HEADER = "param,e_op,e_op_swapped,e_power"

# Largest accepted step count, so that no flag makes time unbounded; d is
# capped by densemat._check_local_dim.
_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a family evaluated on a uniform parameter grid.

    For ``exp_swap`` the parameter is the angle t.  The random families
    draw one instance per grid point, in row order, from one PCG64
    generator seeded with ``seed``; the parameter column merely labels the
    row.
    """

    family: str
    d: int
    param_start: float
    param_end: float
    steps: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {_echo(self.family)}; valid families: {', '.join(FAMILIES)}"
            )
        object.__setattr__(self, "d", _check_local_dim(self.d))
        object.__setattr__(self, "steps", _check_int(self.steps, 1, _MAX_STEPS, "steps"))
        start, end = self.param_start, self.param_end
        finite = _is_finite(start) and _is_finite(end)
        if finite and start > end:
            raise ValueError(f"param_start {_echo(start)} exceeds param_end {_echo(end)}")
        # the width too, in Python floats: a NumPy subtraction that overflows warns
        if not (finite and math.isfinite(float(end) - float(start))):
            raise ValueError(f"parameter range must be finite, got {_echo(start)} to {_echo(end)}")
        _check_seed(self.seed)


def sweep_rows(spec: SweepSpec) -> list[tuple[float, float, float, float]]:
    """Evaluate the sweep: one (param, E(U), E(S12 U), e_p) tuple per grid point."""
    d = spec.d
    params = np.linspace(spec.param_start, spec.param_end, spec.steps)
    # drawn from only by the random families; exp_swap builds none
    rng = None if spec.family == "exp_swap" else np.random.default_rng(spec.seed)
    rows = []
    for lo, hi in _spans(spec.steps, _operator_bytes(d), _STACK_BYTES):
        e, e_swapped, e_p = _measures(_stack(spec, params, rng, lo, hi))
        rows += zip(params[lo:hi].tolist(), e.tolist(), e_swapped.tolist(), e_p.tolist())
    return rows


def render_csv(rows) -> str:
    """Render sweep rows as CSV text (LF endings, 17 significant digits).

    One %-format call renders every value; ``%.17g`` gives the digits of
    ``format(x, ".17g")``.
    """
    flat = tuple(itertools.chain.from_iterable(rows))
    return f"{CSV_HEADER}\n" + "%.17g,%.17g,%.17g,%.17g\n" * (len(flat) // 4) % flat


def _stack(
    spec: SweepSpec, params: np.ndarray, rng: np.random.Generator | None, lo: int, hi: int
) -> np.ndarray:
    """Operators of rows lo..hi-1 as an (hi - lo, d^2, d^2) stack; the
    random families draw them from ``rng``, which must have drawn rows
    0..lo-1 already."""
    d = spec.d
    if spec.family == "exp_swap":
        return _exp_swap_stack(d, params[lo:hi])
    if spec.family == "haar":
        return _haar_stack(d * d, hi - lo, rng)
    return _random_controlled_u_stack(d, hi - lo, rng)
