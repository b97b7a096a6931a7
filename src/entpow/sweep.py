"""Parameter sweeps over built-in operator families, rendered as CSV.

Rows are evaluated in chunks: each chunk of operators is built as one
(n, d^2, d^2) stack and goes once through ``entanglement._measures``, which
gates the stack and returns its three measures.  ``densemat._stack_spans``
cuts the chunks, so they stay bounded whatever ``steps`` is; the rows are
all held, so memory grows with ``steps``.  The random families draw every
instance from one generator seeded with ``seed``, in row order, sample-major,
so the rows do not depend on where the chunks split.

Output is locale-independent by construction: '.' decimal separator, LF
line endings, floats at 17 significant digits.  A fixed spec renders to
byte-identical CSV on the same numpy, the same BLAS build and the same BLAS
thread count, which can change the rounding of the Haar QR.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .densemat import _check_int, _check_local_dim, _check_real, _echo, _stack_spans
from .entanglement import _measures
# Not called here: perfbench's tracing test checks that it wraps and restores
# this binding.
from .entanglement import operator_entanglement  # noqa: F401
from .operators import DEFAULT_SEED, _check_seed, _exp_swap_stack, _haar_stack
from .operators import _random_controlled_u_stack

__all__ = ["FAMILIES", "SweepSpec", "sweep_rows", "render_csv"]

# Each family's builder of the (n, d^2, d^2) stack of n rows, from d, their
# parameters and the sweep's generator, which has drawn every earlier row.
_BUILDERS = {
    "exp_swap": lambda d, params, rng: _exp_swap_stack(d, params),
    "controlled_u_random": lambda d, params, rng: _random_controlled_u_stack(d, len(params), rng),
    "haar": lambda d, params, rng: _haar_stack(d * d, len(params), rng),
}

FAMILIES = tuple(_BUILDERS)

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
    row.  Each number is stored as the Python int or float its rule returns.
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
        start = _check_real(self.param_start, "param_start")
        end = _check_real(self.param_end, "param_end")
        if start > end:
            raise ValueError(f"param_start {_echo(start)} exceeds param_end {_echo(end)}")
        # the width of two finite floats can still overflow
        if not math.isfinite(end - start):
            raise ValueError(f"parameter range must be finite, got {_echo(start)} to {_echo(end)}")
        object.__setattr__(self, "param_start", start)
        object.__setattr__(self, "param_end", end)
        object.__setattr__(self, "seed", _check_seed(self.seed))


def sweep_rows(spec: SweepSpec) -> list[tuple[float, float, float, float]]:
    """Evaluate the sweep: one (param, E(U), E(S12 U), e_p) tuple per grid point."""
    d = spec.d
    params = np.linspace(spec.param_start, spec.param_end, spec.steps)
    build, rng = _BUILDERS[spec.family], np.random.default_rng(spec.seed)
    rows = []
    for lo, hi in _stack_spans(spec.steps, d):
        e, e_swapped, e_p = _measures(build(d, params[lo:hi], rng))
        rows += zip(params[lo:hi].tolist(), e.tolist(), e_swapped.tolist(), e_p.tolist())
    return rows


def render_csv(rows) -> str:
    """Render sweep rows as CSV text (LF endings, 17 significant digits).

    One %-format call renders every value; ``%.17g`` gives the digits of
    ``format(x, ".17g")``.
    """
    flat = tuple(itertools.chain.from_iterable(rows))
    return f"{CSV_HEADER}\n" + "%.17g,%.17g,%.17g,%.17g\n" * (len(flat) // 4) % flat

