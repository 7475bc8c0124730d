"""Problem-file parsing and serialization.

A problem file is a single JSON document:

    {
      "n": 2, "m": 1,
      "coefficients": [A_0, ..., A_m],
      "weights": [w_0, ..., w_m],            // optional; defaults to ||A_j||
      "triple": {"X": ..., "blocks": [{"eigenvalue": e, "size": s}, ...],
                 "Y": ...},                  // optional Jordan triple
      "multiple": {"eigenvalue": e,
                   "right_vectors": n x kappa,
                   "left_vectors": kappa x n},  // optional
      "comment": "free text"                 // optional, ignored
    }

Matrices are nested row-major arrays; every entry is a finite real number or
a [re, im] pair of them, read by core's number rule (a JSON true is no
number), and every refusal names its field.
serialize_problem(parse_problem(text)) reproduces the same problem exactly
(floats survive the round trip bit for bit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import MatrixPolynomial, WeightSet, _is_int, _require_real
from .errors import HypothesisViolationError, ProblemFormatError
from .spectra import JordanBlock, JordanTriple

__all__ = [
    "MultipleEigenvalueData",
    "ProblemFile",
    "parse_problem",
    "load_problem",
    "serialize_problem",
]


@dataclass(frozen=True, eq=False)
class MultipleEigenvalueData:
    """Eigenvector matrices spanning the largest Jordan blocks of one
    (typically multiple) eigenvalue."""

    eigenvalue: complex
    right_vectors: np.ndarray
    left_vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class ProblemFile:
    poly: MatrixPolynomial
    weights: WeightSet
    weights_derived: bool
    triple: JordanTriple | None = None
    multiple: MultipleEigenvalueData | None = None


def _entry(v, path: str, pair: bool = True):
    """v as a complex: a finite number or, when pair, a [re, im] pair of them, each
    part read by core._require_real (no bool, str, NaN or integer past the float
    range); as a float when not pair."""
    try:
        if pair and type(v) is list and len(v) == 2:
            return complex(_require_real(v[0], path, None), _require_real(v[1], path, None))
        x = _require_real(v, path, None)
        return complex(x) if pair else x
    except HypothesisViolationError:
        raise ProblemFormatError(f"{path}: expected a finite number"
                                 f"{' or a [re, im] pair of them' if pair else ''}, got {v!r}") from None


def _count(v, path: str, least: int) -> int:
    """v, an integer (core._is_int) of at least least."""
    if not (_is_int(v) and v >= least):
        raise ProblemFormatError(f"{path}: expected an integer of at least {least}, got {v!r}")
    return v


def _list(v, path: str, length: int | None = None, what: str = "entries") -> list:
    """v, a JSON array of length entries (of one or more when length is None)."""
    if not isinstance(v, list) or (not v if length is None else len(v) != length):
        raise ProblemFormatError(
            f"{path}: expected {'one or more' if length is None else length} {what}, got "
            f"{len(v) if isinstance(v, list) else type(v).__name__}")
    return v


def _object(v, path: str) -> dict:
    """v, a JSON object."""
    if not isinstance(v, dict):
        raise ProblemFormatError(f"{path}: expected a JSON object, got {type(v).__name__}")
    return v


def _matrix(v, rows: int, cols: int | None, path: str) -> np.ndarray:
    """A rows x cols matrix of entries (cols from its first row when None); every
    row is checked before anything is allocated."""
    v = _list(v, path, rows, "rows")
    cols = len(_list(v[0], f"{path}[0]")) if cols is None else cols
    v = [_list(row, f"{path}[{i}]", cols) for i, row in enumerate(v)]
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(v):
        for j, e in enumerate(row):
            out[i, j] = _entry(e, f"{path}[{i}][{j}]")
    return out


def parse_problem(text: str) -> ProblemFile:
    """Parse and validate a problem document.

    Raises ProblemFormatError with the offending field's path (or the JSON
    line/column for syntax errors); constructing the polynomial enforces the
    nonsingular-leading-coefficient invariant.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}") from exc
    doc = _object(doc, "top level")
    n, m = _count(doc.get("n"), "n", 1), _count(doc.get("m"), "m", 0)
    coeffs = _list(doc.get("coefficients"), "coefficients", m + 1, "matrices")
    poly = MatrixPolynomial([_matrix(c, n, n, f"coefficients[{j}]") for j, c in enumerate(coeffs)])

    weights_doc = doc.get("weights")
    derived = weights_doc is None
    weights = WeightSet.from_coefficient_norms(poly) if derived else WeightSet(
        [_entry(w, f"weights[{j}]", pair=False)
         for j, w in enumerate(_list(weights_doc, "weights", m + 1, "values"))])

    triple = multiple = None
    if (triple_doc := doc.get("triple")) is not None:
        triple_doc = _object(triple_doc, "triple")
        blocks = []
        for i, b in enumerate(_list(triple_doc.get("blocks"), "triple.blocks", what="blocks")):
            path = f"triple.blocks[{i}]"
            b = _object(b, path)
            blocks.append(JordanBlock(eigenvalue=_entry(b.get("eigenvalue"), f"{path}.eigenvalue"),
                                      size=_count(b.get("size"), f"{path}.size", 1)))
        total = sum(b.size for b in blocks)
        triple = JordanTriple(_matrix(triple_doc.get("X"), n, total, "triple.X"), tuple(blocks),
                              _matrix(triple_doc.get("Y"), total, n, "triple.Y"))

    if (multi_doc := doc.get("multiple")) is not None:
        multi_doc = _object(multi_doc, "multiple")
        lam = _entry(multi_doc.get("eigenvalue"), "multiple.eigenvalue")
        right = _matrix(multi_doc.get("right_vectors"), n, None, "multiple.right_vectors")
        left = _matrix(multi_doc.get("left_vectors"), right.shape[1], n, "multiple.left_vectors")
        multiple = MultipleEigenvalueData(eigenvalue=lam, right_vectors=right, left_vectors=left)

    return ProblemFile(poly=poly, weights=weights, weights_derived=derived,
                       triple=triple, multiple=multiple)


def load_problem(path: str) -> ProblemFile:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _entry_out(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _matrix_out(M: np.ndarray):
    return [[_entry_out(e) for e in row] for row in np.asarray(M)]


def serialize_problem(pf: ProblemFile) -> str:
    """Inverse of parse_problem; derived weights are omitted so defaults stay
    defaults across a round trip."""
    return json.dumps(_problem_doc(pf), indent=2) + "\n"


def _problem_doc(pf: ProblemFile) -> dict:
    """The JSON document of serialize_problem, before encoding; json.dump of
    it with indent=2, then a newline, writes the same bytes without holding
    the whole text."""
    doc = {
        "n": pf.poly.n,
        "m": pf.poly.m,
        "coefficients": [_matrix_out(A) for A in pf.poly.coeffs],
    }
    if not pf.weights_derived:
        doc["weights"] = list(pf.weights.weights)
    if pf.triple is not None:
        doc["triple"] = {
            "X": _matrix_out(pf.triple.X),
            "blocks": [{"eigenvalue": _entry_out(b.eigenvalue), "size": b.size}
                       for b in pf.triple.blocks],
            "Y": _matrix_out(pf.triple.Y),
        }
    if pf.multiple is not None:
        doc["multiple"] = {
            "eigenvalue": _entry_out(pf.multiple.eigenvalue),
            "right_vectors": _matrix_out(pf.multiple.right_vectors),
            "left_vectors": _matrix_out(pf.multiple.left_vectors),
        }
    return doc
