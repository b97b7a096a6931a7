"""Independent references and output checks for the benchmark.

Nothing here calls entpow to decide whether entpow is right: the references
rebuild the realignment and partial transpose from their index definitions
and take singular values, where the library takes Gram products and
Frobenius sums.  Each check returns an error string, or None when the output
is correct, so a caller can count failures and say why.
"""

from __future__ import annotations

import json
import math

import numpy as np

CSV_HEADER = "param,e_op,e_op_swapped,e_power"
# Sweep rows are printed with 17 significant digits; the closed forms and the
# e_p identity hold to rounding, far inside this.
SWEEP_TOL = 1e-12
# eval prints 12 decimals: allow half a unit in the last place plus the error
# of the reference itself.
EVAL_TOL = 0.5e-12 + 1e-14


def haar(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x n unitary: QR of a Ginibre matrix, phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def serialize(mat: np.ndarray, d: int, name: str) -> str:
    """The documented operator-file format: JSON, [re, im] pairs, 17 digits.

    Written here rather than with ``entpow.serialize_operator`` so that the
    program under test only ever reads files it did not write.
    """
    rows = ",\n".join(
        "    [" + ", ".join(f"[{z.real:.17g}, {z.imag:.17g}]" for z in row) + "]" for row in mat
    )
    return f'{{\n  "d": {d},\n  "name": {json.dumps(name)},\n  "matrix": [\n{rows}\n  ]\n}}\n'


def _entanglement(m: np.ndarray, d: int) -> float:
    s = np.linalg.svd(m, compute_uv=False)
    return 1.0 - float(np.sum(s**4)) / d**4


def reference_measures(mat: np.ndarray, d: int) -> dict[str, float]:
    """E(U), E(S12 U), E(U S12), E(S12) and e_p from singular values.

    Index convention: entry [(i,j),(k,l)] sits at row i*d+j, column k*d+l.
    """
    n = d * d
    t = mat.reshape(d, d, d, d)
    realigned = t.transpose(0, 2, 1, 3).reshape(n, n)
    pt_first = t.transpose(2, 1, 0, 3).reshape(n, n)
    swapped_right = t.transpose(0, 1, 3, 2).transpose(0, 2, 1, 3).reshape(n, n)
    e = _entanglement(realigned, d)
    e_s = _entanglement(pt_first, d)
    e_swap = 1.0 - 1.0 / d**2
    return {
        "e_op": e,
        "e_op_swapped": e_s,
        "e_op_swapped_right": _entanglement(swapped_right, d),
        "e_swap": e_swap,
        "e_power": (d / (d + 1.0)) ** 2 * (e + e_s - e_swap),
    }


def _clamp(x: float, hi: float) -> float:
    return min(max(x, 0.0), hi)


_EVAL_LINES = (
    ("E(U)     = ", "e_op"),
    ("E(S12 U) = ", "e_op_swapped"),
    ("E(U S12) = ", "e_op_swapped_right"),
    ("E(S12)   = ", "e_swap"),
)
NOT_DEFINED = "e_p      = (not defined: operator failed the unitarity check)"


def check_eval(code: int, out: str, err: str, ref: dict, d: int, unitary: bool) -> str | None:
    """Check one `entpow eval` run against the reference measures."""
    want_code = 0 if unitary else 2
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    lines = out.splitlines()
    if len(lines) != 7 or not lines[0].endswith(f"(d = {d})"):
        return f"unexpected eval output shape: {lines[:1]} ... ({len(lines)} lines)"
    e_max = ref["e_swap"]
    for (prefix, key), line in zip(_EVAL_LINES, lines[2:6]):
        if not line.startswith(prefix):
            return f"expected a line starting {prefix!r}, got {line!r}"
        got = float(line[len(prefix):])
        want = _clamp(ref[key], e_max)
        if abs(got - want) > EVAL_TOL:
            return f"{prefix.strip()} {got!r} differs from reference {want!r}"
    if unitary:
        prefix = "e_p      = "
        if not lines[6].startswith(prefix):
            return f"expected an e_p line, got {lines[6]!r}"
        got = float(lines[6][len(prefix):])
        if abs(got - _clamp(ref["e_power"], 1.0)) > EVAL_TOL:
            return f"e_p {got!r} differs from reference {ref['e_power']!r}"
    else:
        if lines[6] != NOT_DEFINED:
            return f"expected the 'not defined' e_p line, got {lines[6]!r}"
        if "not unitary" not in err:
            return "no 'not unitary' message on stderr"
    return None


def parse_csv(text: str, rows: int) -> np.ndarray | str:
    """Sweep CSV as an (rows, 4) array, or an error string."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        return f"bad CSV header {lines[0]!r}"
    if len(lines) != rows + 2 or lines[-1] != "":
        return f"expected {rows} rows ending in a newline, got {len(lines) - 2} lines"
    try:
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    except ValueError as e:
        return f"unparsable CSV row: {e}"
    if data.shape != (rows, 4):
        return f"expected 4 columns, got shape {data.shape}"
    return data


def check_sweep(code: int, text: str, family: str, d: int, rows: int) -> str | None:
    """Check one `entpow sweep` run over [0, pi]: closed forms and the e_p identity."""
    if code != 0:
        return f"exit code {code}, expected 0"
    data = parse_csv(text, rows)
    if isinstance(data, str):
        return data
    t, e, e_s, e_p = data.T
    if not np.array_equal(t, np.linspace(0.0, math.pi, rows)):
        return "parameter column is not the requested grid"
    e_max = 1.0 - 1.0 / d**2
    scale = (d / (d + 1.0)) ** 2
    worst = {"e_p identity": np.abs(e_p - scale * (e + e_s - e_max)).max()}
    if family == "exp_swap":
        worst["E closed form"] = np.abs(e - e_max * (1 - np.cos(t) ** 4)).max()
        worst["E(S12 U) closed form"] = np.abs(e_s - e_max * (1 - np.sin(t) ** 4)).max()
        ep_form = (d * d - 1) / (2.0 * (d + 1) ** 2) * np.sin(2 * t) ** 2
        worst["e_p closed form"] = np.abs(e_p - ep_form).max()
    elif family == "controlled_u_random":
        worst["E(S12 U) = 1 - 1/d^2"] = np.abs(e_s - e_max).max()
        worst["e_p = (d/(d+1))^2 E"] = np.abs(e_p - scale * e).max()
    else:
        lo = min(e.min(), e_s.min(), e_p.min())
        hi = max(e.max(), e_s.max())
        if lo < -SWEEP_TOL or hi > e_max + SWEEP_TOL:
            return f"values outside [0, 1 - 1/d^2]: [{lo!r}, {hi!r}]"
    for what, dev in worst.items():
        if not dev <= SWEEP_TOL:
            return f"{what}: max deviation {dev:.3e} exceeds {SWEEP_TOL:.0e}"
    return None


def check_mc(mean: float, stderr: float, n_samples: int, want_n: int, e_power: float) -> str | None:
    """A Monte-Carlo estimate must lie within max(5 stderr, 0.01) of the closed form."""
    if n_samples != want_n:
        return f"estimate reports {n_samples} samples, expected {want_n}"
    allowed = max(5.0 * stderr, 0.01)
    dev = abs(mean - e_power)
    if not dev <= allowed:
        return f"mc mean {mean!r} is {dev:.3e} from closed form {e_power!r} (allowed {allowed:.3e})"
    return None


def check_verify(code: int, out: str) -> str | None:
    """`entpow verify` must exit 0 with every check line PASS."""
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = out.splitlines()
    status = [line for line in lines if not line.startswith(" ")][:-1]
    if not status or any(not line.startswith("PASS  ") for line in status):
        return "a check line is not PASS"
    n = len(status)
    if lines[-1] != f"{n}/{n} checks passed":
        return f"unexpected summary line {lines[-1]!r}"
    return None
