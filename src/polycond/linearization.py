"""Block companion linearization of a matrix polynomial.

companion(P) builds the nm x nm matrix whose spectrum equals sigma(P) with
multiplicity. ef_factors(P, z) returns the unimodular pair (E, F) that
witnesses the equivalence

    E(z) (z I - C_P) F(z) = diag(P(z), I_{n(m-1)}),

with E carrying the backward recurrence E_m = A_m, E_r = A_r + z E_{r+1} in its
first block row and F unit block lower-triangular with (i, j) block z^{i-j} I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MatrixPolynomial, spectral_norm
from .errors import InvalidPolynomialError

__all__ = ["CompanionMatrix", "companion", "ef_factors", "linearization_residual"]


@dataclass(frozen=True)
class CompanionMatrix:
    """nm x nm companion matrix with its block dimensions."""

    matrix: np.ndarray
    n: int
    m: int

    @property
    def size(self) -> int:
        return self.n * self.m


def _require_positive_degree(poly: MatrixPolynomial) -> None:
    if poly.m < 1:
        raise InvalidPolynomialError("companion linearization needs degree m >= 1")


def companion(poly: MatrixPolynomial) -> CompanionMatrix:
    """Block companion matrix of P.

    Top block rows carry the shift pattern [0 I 0 ...]; the bottom block row is
    -A_m^{-1} [A_0 ... A_{m-1}], computed by a single LU solve against A_m
    rather than an explicit inverse.
    """
    _require_positive_degree(poly)
    n, m = poly.n, poly.m
    try:
        bottom = -np.linalg.solve(poly.coeffs[-1], np.hstack(poly.coeffs[:-1]))
    except np.linalg.LinAlgError as exc:  # construction gate makes this unreachable
        raise InvalidPolynomialError(f"leading-coefficient solve failed: {exc}") from exc
    C = np.zeros((n * m, n * m), dtype=complex)
    for i in range(m - 1):
        C[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = np.eye(n)
    C[(m - 1) * n:, :] = bottom
    C.flags.writeable = False
    return CompanionMatrix(matrix=C, n=n, m=m)


def ef_factors(poly: MatrixPolynomial, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """The factor pair (E(z), F(z)) of the companion equivalence.

    E has blocks E_1(z)..E_m(z) in its first block row and -I on the block
    subdiagonal, so |det E(z)| = |det A_m|; F is unit block lower-triangular
    with det F(z) = 1 identically.
    """
    _require_positive_degree(poly)
    n, m = poly.n, poly.m
    z = complex(z)

    E = np.zeros((n * m, n * m), dtype=complex)
    E[:n] = np.hstack(poly.e_blocks(z))
    for i in range(1, m):
        E[i * n:(i + 1) * n, (i - 1) * n:i * n] = -np.eye(n)

    F = np.zeros((n * m, n * m), dtype=complex)
    for i in range(m):
        for j in range(i + 1):
            F[i * n:(i + 1) * n, j * n:(j + 1) * n] = z ** (i - j) * np.eye(n)
    return E, F


def linearization_residual(poly: MatrixPolynomial, z: complex) -> float:
    """Spectral norm of E(z)(zI - C_P)F(z) - diag(P(z), I)."""
    z = complex(z)
    C = companion(poly)
    E, F = ef_factors(poly, z)
    lhs = E @ (z * np.eye(C.size) - C.matrix) @ F
    rhs = np.zeros_like(lhs)
    rhs[:poly.n, :poly.n] = poly.eval(z)
    idx = np.arange(poly.n, C.size)
    rhs[idx, idx] = 1.0
    return spectral_norm(lhs - rhs)
