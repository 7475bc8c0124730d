"""Block companion linearization of a matrix polynomial.

companion(P) builds the nm x nm matrix whose spectrum equals sigma(P) with
multiplicity. ef_factors(P, z) returns the unimodular pair (E, F) that
witnesses the equivalence

    E(z) (z I - C_P) F(z) = diag(P(z), I_{n(m-1)}),

with E carrying the backward recurrence E_m = A_m, E_r = A_r + z E_{r+1} in its
first block row and F unit block lower-triangular with (i, j) block z^{i-j} I.
"""

from __future__ import annotations

import numpy as np

from .core import MatrixPolynomial, _blocks, _finite_points
from .errors import InvalidPolynomialError

__all__ = ["companion", "ef_factors", "linearization_residual"]


def _require_positive_degree(poly: MatrixPolynomial) -> None:
    if poly.m < 1:
        raise InvalidPolynomialError("companion linearization needs degree m >= 1")


def companion(poly: MatrixPolynomial) -> np.ndarray:
    """Read-only nm x nm block companion matrix of P.

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
    C[:n * (m - 1), n:] = np.eye(n * (m - 1))
    C[(m - 1) * n:, :] = bottom
    C.flags.writeable = False
    return C


def ef_factors(poly: MatrixPolynomial, z) -> tuple[np.ndarray, np.ndarray]:
    """The factor pair (E(z), F(z)) of the companion equivalence.

    E has blocks E_1(z)..E_m(z) in its first block row and -I on the block
    subdiagonal, so |det E(z)| = |det A_m|; F is unit block lower-triangular
    with det F(z) = 1 identically. z may be an array of points; each factor
    then has shape z.shape + (nm, nm).
    """
    _require_positive_degree(poly)
    n, m = poly.n, poly.m
    z = np.asarray(z, dtype=complex)
    E = np.zeros(z.shape + (m, n, m, n), dtype=complex)
    E[..., 0, :, :, :] = np.stack(poly.e_blocks(z), axis=-2)
    E[..., range(1, m), :, range(m - 1), :] = -np.eye(n)
    # F's block (i, j) is z^(i-j) I on and below the diagonal, 0 above it; the
    # powers are Python's, element by element, as complex(z) ** k would give
    k = np.subtract.outer(np.arange(m), np.arange(m))
    T = np.where(k >= 0, z.astype(object)[..., None, None] ** np.maximum(k, 0), 0).astype(complex)
    F = T[..., :, np.newaxis, :, np.newaxis] * np.eye(n)[:, np.newaxis, :]
    shape = z.shape + (n * m, n * m)
    return E.reshape(shape), F.reshape(shape)


def linearization_residual(poly: MatrixPolynomial, z):
    """Spectral norm of E(z)(zI - C_P)F(z) - diag(P(z), I): a float at one
    point, an array of shape z.shape at an array of points (taken in blocks,
    core._blocks).  A NaN or infinite point raises HypothesisViolationError."""
    z = _finite_points(z)
    C = companion(poly)
    n, nm = poly.n, len(C)
    flat, out = z.reshape(-1), np.empty(z.size)
    for b in _blocks(z.size, nm):
        zb = flat[b, np.newaxis, np.newaxis]
        E, F = ef_factors(poly, flat[b])
        lhs = E @ (zb * np.eye(nm) - C) @ F
        # P(z) = E_1(z) z + A_0, the last Horner step of MatrixPolynomial.eval
        lhs[:, :n, :n] -= E[:, :n, :n] * zb + poly.coeffs[0]
        lhs[:, n:, n:] -= np.eye(nm - n)
        out[b] = np.linalg.svd(lhs, compute_uv=False)[:, 0]
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)
