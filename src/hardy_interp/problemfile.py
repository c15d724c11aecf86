"""Line-oriented problem file format.

Files are whitespace-separated key/value lines with '#' comments.  Complex
numbers are explicit re/im decimal pairs serialized with 17 significant
digits so doubles round-trip.  The first directive must be
``format hardy-interp/1``; the second names the problem kind.

Example::

    format hardy-interp/1
    kind feasible
    algebra cplusb
    zero 0 0
    zero 0 0
    alpha 1
    node 0 0
    node 0.5 0
    direction 1 0
    direction 1 0
    target 0 0
    target 0.5 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ProblemFileError

__all__ = ["ProblemFile", "parse_problem_file", "format_number"]

FORMAT_TAG = "hardy-interp/1"
KINDS = ("kernel", "pick", "feasible", "solve", "corona", "distance", "verify")

_SCALAR_KEYS = {
    "alpha": float,
    "delta": float,
    "tol": float,
    "level": float,
    "degree": int,
    "fdegree": int,
    "samples": int,
    "seed": int,
    "rank": int,
}
_WORD_KEYS = ("algebra", "kernel", "method", "mode")
# repeatable directives, by the ProblemFile list each line appends to: one
# complex number (_VALUE_LISTS) or one row of them (_ROW_LISTS)
_VALUE_LISTS = {"zero": "zeros", "node": "nodes", "target": "targets", "coeff": "coeffs"}
_ROW_LISTS = {"direction": "directions", "fcoeff": "fcoeff_rows", "set": "point_sets",
              "arow": "target_rows"}


def format_number(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class ProblemFile:
    """Parsed problem file: kind plus the raw payload fields."""

    kind: str
    scalars: dict = field(default_factory=dict)
    words: dict = field(default_factory=dict)
    zeros: list = field(default_factory=list)
    constant: complex = 1.0 + 0.0j
    nodes: list = field(default_factory=list)
    directions: list = field(default_factory=list)
    targets: list = field(default_factory=list)
    coeffs: list = field(default_factory=list)
    pairs: list = field(default_factory=list)
    grid: tuple = None
    fcoeff_rows: list = field(default_factory=list)
    point_sets: list = field(default_factory=list)
    target_rows: list = field(default_factory=list)
    basis_matrices: list = field(default_factory=list)
    rational_num: list = None
    rational_den: list = None

    def require(self, name: str, value) -> None:
        if value is None or (hasattr(value, "__len__") and len(value) == 0):
            raise ProblemFileError(f"missing required field {name!r}")


def _floats(tokens, lineno, key, expected=None):
    try:
        vals = [float(t) for t in tokens]
    except ValueError:
        raise ProblemFileError(f"{key}: expected decimal numbers, got {tokens}",
                               line=lineno) from None
    if not all(math.isfinite(v) for v in vals):
        raise ProblemFileError(f"{key}: expected finite numbers, got {tokens}",
                               line=lineno)
    if expected is not None and len(vals) != expected:
        raise ProblemFileError(
            f"{key}: expected {expected} numbers, got {len(vals)}", line=lineno)
    return vals


def _integer(value, lineno, key):
    if not value.is_integer():
        raise ProblemFileError(f"{key}: expected an integer, got {value!r}", line=lineno)
    return int(value)


def _complex_pairs(tokens, lineno, key):
    vals = _floats(tokens, lineno, key)
    if len(vals) == 0 or len(vals) % 2 != 0:
        raise ProblemFileError(
            f"{key}: expected re/im pairs, got {len(vals)} numbers", line=lineno)
    return [complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]


def parse_problem_file(text: str) -> ProblemFile:
    """Parse problem text; errors carry the offending line number."""
    lines = text.splitlines()
    records = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        records.append((lineno, tokens[0].lower(), tokens[1:]))
    if not records:
        raise ProblemFileError("empty problem file", line=1)

    lineno, key, rest = records[0]
    if key != "format" or rest != [FORMAT_TAG]:
        raise ProblemFileError(
            f"first directive must be 'format {FORMAT_TAG}'", line=lineno)
    if len(records) < 2:
        raise ProblemFileError("missing 'kind' directive", line=lineno)
    lineno, key, rest = records[1]
    if key != "kind" or len(rest) != 1 or rest[0].lower() not in KINDS:
        raise ProblemFileError(
            f"second directive must be 'kind <{','.join(KINDS)}>'", line=lineno)
    pf = ProblemFile(kind=rest[0].lower())

    current_matrix = None
    for lineno, key, rest in records[2:]:
        if key in _SCALAR_KEYS:
            value = _floats(rest, lineno, key, expected=1)[0]
            if _SCALAR_KEYS[key] is int:
                value = _integer(value, lineno, key)
            pf.scalars[key] = value
        elif key in _WORD_KEYS:
            if len(rest) != 1:
                raise ProblemFileError(f"{key}: expected one word", line=lineno)
            pf.words[key] = rest[0].lower()
        elif key in _VALUE_LISTS:
            getattr(pf, _VALUE_LISTS[key]).append(_complex_pairs(rest, lineno, key)[0])
        elif key in _ROW_LISTS:
            getattr(pf, _ROW_LISTS[key]).append(_complex_pairs(rest, lineno, key))
        elif key == "constant":
            pf.constant = _complex_pairs(rest, lineno, key)[0]
        elif key == "pair":
            vals = _complex_pairs(rest, lineno, key)
            if len(vals) != 2:
                raise ProblemFileError("pair: expected two complex numbers "
                                       "(four decimals)", line=lineno)
            pf.pairs.append(tuple(vals))
        elif key == "grid":
            vals = _floats(rest, lineno, key, expected=3)
            pf.grid = (_integer(vals[0], lineno, key), _integer(vals[1], lineno, key),
                       vals[2])
        elif key == "rnum":
            pf.rational_num = _complex_pairs(rest, lineno, key)
        elif key == "rden":
            pf.rational_den = _complex_pairs(rest, lineno, key)
        elif key == "smatrix":
            current_matrix = []
            pf.basis_matrices.append(current_matrix)
        elif key == "srow":
            if current_matrix is None:
                raise ProblemFileError("srow before any smatrix", line=lineno)
            current_matrix.append(_complex_pairs(rest, lineno, key))
        else:
            raise ProblemFileError(f"unknown directive {key!r}", line=lineno)

    _validate_shapes(pf)
    return pf


def _validate_shapes(pf: ProblemFile) -> None:
    if pf.directions:
        width = len(pf.directions[0])
        if any(len(d) != width for d in pf.directions):
            raise ProblemFileError("direction lines must all have the same length")
    if pf.nodes and pf.directions and len(pf.nodes) != len(pf.directions):
        raise ProblemFileError(
            f"{len(pf.nodes)} node lines but {len(pf.directions)} direction lines")
    if pf.nodes and pf.targets and len(pf.nodes) != len(pf.targets):
        raise ProblemFileError(
            f"{len(pf.nodes)} node lines but {len(pf.targets)} target lines")
    if pf.fcoeff_rows:
        width = len(pf.fcoeff_rows[0])
        if any(len(r) != width for r in pf.fcoeff_rows):
            raise ProblemFileError("fcoeff lines must all have the same length")
    if pf.target_rows:
        width = len(pf.target_rows[0])
        if any(len(r) != width for r in pf.target_rows):
            raise ProblemFileError("arow lines must all have the same length")
    for mat in pf.basis_matrices:
        if len(mat) != len(pf.target_rows):
            raise ProblemFileError("each smatrix needs as many srow lines as "
                                   "there are arow lines")
        if any(len(r) != len(pf.target_rows[0]) for r in mat):
            raise ProblemFileError("srow lines must match the arow width")
