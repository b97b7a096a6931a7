"""Parameter sweeps over built-in operator families, rendered as CSV.

Rows are evaluated in chunks: each chunk of operators is built as one
(n, d^2, d^2) stack, passes the unitarity gate once and goes through the
batched purity core once.  A chunk holds at most ``_CHUNK_BYTES`` of
operator entries, which bounds memory whatever ``steps`` is, and the rows
do not depend on where the chunks split.

Output is locale-independent by construction: '.' decimal separator, LF
line endings, floats at 17 significant digits.  A fixed spec always
renders to byte-identical CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .entanglement import UNITARITY_TOL, _entanglement, _gate, _power, _purities
# Not called here: perfbench's tracing test checks that it wraps and restores
# this binding.
from .entanglement import operator_entanglement  # noqa: F401
from .operators import _check_blocks, _controlled_u_stack, _exp_swap_stack, _haar_stack

__all__ = ["FAMILIES", "SweepSpec", "sweep_rows", "render_csv"]

FAMILIES = ("exp_swap", "controlled_u_random", "haar")

CSV_HEADER = "param,e_op,e_op_swapped,e_power"

# Bytes of operator entries per chunk: 256 rows at d=2, 16 at d=4, 1 from d=8.
_CHUNK_BYTES = 64 * 1024


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a family evaluated on a uniform parameter grid.

    For ``exp_swap`` the parameter is the angle t; the random families draw
    a fresh instance per grid point from a child seed, and the parameter
    column merely labels the row.
    """

    family: str
    d: int
    param_start: float
    param_end: float
    steps: int
    seed: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; valid families: {', '.join(FAMILIES)}"
            )
        if not isinstance(self.d, int) or self.d < 2:
            raise ValueError(f"local dimension must be an integer >= 2, got {self.d!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not (math.isfinite(self.param_start) and math.isfinite(self.param_end)):
            raise ValueError("parameter range must be finite")
        if self.param_start > self.param_end:
            raise ValueError(
                f"param_start {self.param_start} exceeds param_end {self.param_end}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a nonnegative 64-bit integer, got {self.seed}")


def sweep_rows(spec: SweepSpec) -> list[tuple[float, float, float, float]]:
    """Evaluate the sweep: one (param, E(U), E(S12 U), e_p) tuple per grid point."""
    d = spec.d
    params = np.linspace(spec.param_start, spec.param_end, spec.steps)
    child_seeds = _child_seeds(spec).tolist()
    chunk = max(1, _CHUNK_BYTES // (16 * d**4))
    rows = []
    for lo in range(0, spec.steps, chunk):
        hi = min(lo + chunk, spec.steps)
        stack = _stack(spec, params, child_seeds, lo, hi)
        _gate(stack, UNITARITY_TOL)
        tr_r, tr_t = _purities(stack, d)
        rows += zip(
            params[lo:hi].tolist(),
            _entanglement(tr_r, d).tolist(),
            _entanglement(tr_t, d).tolist(),
            _power(tr_r, tr_t, d).tolist(),
        )
    return rows


def render_csv(rows) -> str:
    """Render sweep rows as CSV text (LF endings, 17 significant digits)."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"


def _child_seeds(spec: SweepSpec) -> np.ndarray:
    # one independent child seed per random draw, derived from (seed, index)
    n = spec.steps * (spec.d if spec.family == "controlled_u_random" else 1)
    return np.random.SeedSequence(spec.seed).generate_state(n, dtype=np.uint64)


def _stack(spec: SweepSpec, params: np.ndarray, child_seeds: list, lo: int, hi: int) -> np.ndarray:
    """Operators of rows lo..hi-1 as an (hi - lo, d^2, d^2) stack."""
    d = spec.d
    if spec.family == "exp_swap":
        return _exp_swap_stack(d, params[lo:hi])
    if spec.family == "haar":
        return _haar_stack(d * d, child_seeds[lo:hi])
    blocks = _haar_stack(d, child_seeds[lo * d : hi * d]).reshape(hi - lo, d, d, d)
    _check_blocks(blocks)
    return _controlled_u_stack(blocks)
