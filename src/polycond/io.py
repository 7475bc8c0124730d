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

Matrices are nested row-major arrays; every entry is a real number or a
[re, im] pair.  serialize_problem(parse_problem(text)) reproduces the same
problem exactly (floats survive the round trip bit for bit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import MatrixPolynomial, WeightSet
from .errors import ProblemFormatError
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


def _entry(v, path: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in v):
        return complex(v[0], v[1])
    raise ProblemFormatError(
        f"{path}: expected a number or a [re, im] pair, got {v!r}")


def _matrix(v, rows: int, cols: int, path: str) -> np.ndarray:
    if not isinstance(v, list):
        raise ProblemFormatError(f"{path}: expected a {rows}x{cols} matrix (nested arrays)")
    if len(v) != rows:
        raise ProblemFormatError(f"{path}: expected {rows} rows, got {len(v)}")
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != cols:
            raise ProblemFormatError(
                f"{path}[{i}]: expected a row of {cols} entries, "
                f"got {len(row) if isinstance(row, list) else type(row).__name__}")
        for j, e in enumerate(row):
            out[i, j] = _entry(e, f"{path}[{i}][{j}]")
    return out


def _positive_int(doc, key: str) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ProblemFormatError(f"{key}: expected a nonnegative integer, got {v!r}")
    return v


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
    if not isinstance(doc, dict):
        raise ProblemFormatError("the top-level document must be a JSON object")
    n = _positive_int(doc, "n")
    m = _positive_int(doc, "m")
    if n < 1:
        raise ProblemFormatError(f"n: matrix dimension must be at least 1, got {n}")
    coeffs_doc = doc.get("coefficients")
    if not isinstance(coeffs_doc, list) or len(coeffs_doc) != m + 1:
        raise ProblemFormatError(
            f"coefficients: expected {m + 1} matrices for degree m={m}, got "
            f"{len(coeffs_doc) if isinstance(coeffs_doc, list) else type(coeffs_doc).__name__}")
    coeffs = [_matrix(c, n, n, f"coefficients[{j}]") for j, c in enumerate(coeffs_doc)]
    poly = MatrixPolynomial(coeffs)

    weights_doc = doc.get("weights")
    if weights_doc is None:
        weights = WeightSet.from_coefficient_norms(poly)
        derived = True
    else:
        if not isinstance(weights_doc, list) or len(weights_doc) != m + 1:
            raise ProblemFormatError(
                f"weights: expected {m + 1} values, got "
                f"{len(weights_doc) if isinstance(weights_doc, list) else type(weights_doc).__name__}")
        for j, wv in enumerate(weights_doc):
            if not isinstance(wv, (int, float)) or isinstance(wv, bool):
                raise ProblemFormatError(f"weights[{j}]: expected a number, got {wv!r}")
        weights = WeightSet(weights_doc)
        derived = False

    triple = None
    triple_doc = doc.get("triple")
    if triple_doc is not None:
        if not isinstance(triple_doc, dict):
            raise ProblemFormatError("triple: expected an object with X, blocks, Y")
        blocks_doc = triple_doc.get("blocks")
        if not isinstance(blocks_doc, list) or not blocks_doc:
            raise ProblemFormatError("triple.blocks: expected a nonempty array")
        blocks = []
        for i, b in enumerate(blocks_doc):
            if not isinstance(b, dict) or "eigenvalue" not in b or "size" not in b:
                raise ProblemFormatError(
                    f"triple.blocks[{i}]: expected an object with eigenvalue and size")
            size = b["size"]
            if not isinstance(size, int) or isinstance(size, bool) or size < 1:
                raise ProblemFormatError(
                    f"triple.blocks[{i}].size: expected a positive integer, got {size!r}")
            blocks.append(JordanBlock(
                eigenvalue=_entry(b["eigenvalue"], f"triple.blocks[{i}].eigenvalue"),
                size=size))
        total = sum(b.size for b in blocks)
        X = _matrix(triple_doc.get("X"), n, total, "triple.X")
        Y = _matrix(triple_doc.get("Y"), total, n, "triple.Y")
        triple = JordanTriple(X, tuple(blocks), Y)

    multiple = None
    multi_doc = doc.get("multiple")
    if multi_doc is not None:
        if not isinstance(multi_doc, dict):
            raise ProblemFormatError(
                "multiple: expected an object with eigenvalue, right_vectors, left_vectors")
        lam = _entry(multi_doc.get("eigenvalue"), "multiple.eigenvalue")
        rv = multi_doc.get("right_vectors")
        if not isinstance(rv, list) or len(rv) != n or not isinstance(rv[0], list):
            raise ProblemFormatError(f"multiple.right_vectors: expected an {n}-row matrix")
        kappa = len(rv[0])
        right = _matrix(rv, n, kappa, "multiple.right_vectors")
        left = _matrix(multi_doc.get("left_vectors"), kappa, n, "multiple.left_vectors")
        multiple = MultipleEigenvalueData(eigenvalue=lam, right_vectors=right,
                                          left_vectors=left)

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
    return json.dumps(doc, indent=2) + "\n"
