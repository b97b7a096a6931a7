"""entpow: operator entanglement and entangling power of two-qudit unitaries.

Computes how entangled a unitary operator is, and how much entanglement it
creates on average, from two index rearrangements of its matrix --
realignment and partial transpose -- with closed-form constructors for the
standard gate families and a seeded Monte-Carlo cross-check.
"""

from .densemat import (
    as_complex_matrix,
    frobenius_norm_sq,
    unitarity_defect,
)
from .entanglement import (
    UNITARITY_TOL,
    EntanglementReport,
    McEstimate,
    NormalizationError,
    UnitarityError,
    entangling_power,
    entangling_power_mc,
    entanglement_report,
    operator_entanglement,
    state_linear_entropy,
    swap_entanglement,
    swapped_operator_entanglement,
)
from .opfile import read_operator_file, serialize_operator
from .operators import (
    ControlledUSpec,
    controlled_u,
    exp_swap,
    haar_unitary,
    max_entangled_projector,
    swap_op,
)
from .rearrange import (
    BipartiteOperator,
    partial_transpose_first,
    partial_transpose_second,
    realign,
    swap_left,
    swap_right,
)
from .sweep import FAMILIES, SweepSpec, render_csv, sweep_rows

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # matrix kernel
    "as_complex_matrix",
    "frobenius_norm_sq",
    "unitarity_defect",
    # rearrangements
    "BipartiteOperator",
    "realign",
    "partial_transpose_first",
    "partial_transpose_second",
    "swap_left",
    "swap_right",
    # measures
    "UNITARITY_TOL",
    "UnitarityError",
    "NormalizationError",
    "EntanglementReport",
    "McEstimate",
    "state_linear_entropy",
    "operator_entanglement",
    "swapped_operator_entanglement",
    "swap_entanglement",
    "entangling_power",
    "entangling_power_mc",
    "entanglement_report",
    # operator constructors and samplers
    "ControlledUSpec",
    "swap_op",
    "max_entangled_projector",
    "exp_swap",
    "controlled_u",
    "haar_unitary",
    # file format and sweeps
    "read_operator_file",
    "serialize_operator",
    "FAMILIES",
    "SweepSpec",
    "sweep_rows",
    "render_csv",
]
