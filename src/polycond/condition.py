"""Eigenvalue condition numbers for matrix polynomials, by four routes:

- cond_simple: the weighted eigenvector formula w(|lam|)/|y* P'(lam) x|,
- cond_via_companion: the same number recovered from the companion pair,
- cond_multiple: the multiple-eigenvalue analogue w(|lam|)*||Xhat Yhat||,
- cond_eigvector_free: the adjugate/eigenvalue-gap expression that needs no
  eigenvectors at all.

All routes agree on simple eigenvalues; the spread between them is a useful
numerical diagnostic and is pinned down by the test suite.
"""

from __future__ import annotations

import numpy as np

from .core import MatrixPolynomial, WeightSet, singular_values, spectral_norm
from .errors import (
    DefectiveEigenvalueError,
    DegenerateProblemError,
    HypothesisViolationError,
    NotAnEigenvalueError,
)
from .spectra import CompanionEigenPair, Spectrum, companion_vectors

__all__ = [
    "cond_simple",
    "cond_companion",
    "cond_via_companion",
    "cond_multiple",
    "adjugate_norm",
    "cond_eigvector_free",
    "min_gap_bound",
]

# |y* P'(lam) x| below this multiple of ||P'(lam)|| ||x|| ||y|| means lam is
# numerically defective and the simple-eigenvalue formulas do not apply.
DEFECT_RTOL = 1e-14


def _coupling(Pp: np.ndarray, norm_pp: float, lam: complex, x: np.ndarray,
              y: np.ndarray) -> complex:
    """y* P'(lam) x from Pp = P'(lam) and its spectral norm, gated against
    numerical defectivity."""
    delta = complex(y.conj() @ Pp @ x)
    gate = DEFECT_RTOL * norm_pp * np.linalg.norm(x) * np.linalg.norm(y)
    if abs(delta) <= gate:
        raise DefectiveEigenvalueError(
            f"|y* P'(lam) x| = {abs(delta):.3e} is below the defectivity gate "
            f"{gate:.3e} at lam = {lam}: treat lam as a multiple eigenvalue")
    return delta


def cond_simple(poly: MatrixPolynomial, weights: WeightSet, lam: complex,
                x: np.ndarray, y: np.ndarray) -> float:
    """Condition number of a simple eigenvalue from its unit eigenvectors:
    w(|lam|) ||x|| ||y|| / |y* P'(lam) x|."""
    weights.require_match(poly)
    x = np.asarray(x, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    lam = complex(lam)
    Pp = poly.eval_derivative(lam)
    delta = _coupling(Pp, poly._singular_values_at(lam, 1)[0], lam, x, y)
    w = weights.eval(abs(lam))
    return w * float(np.linalg.norm(x)) * float(np.linalg.norm(y)) / abs(delta)


def cond_companion(pair: CompanionEigenPair) -> float:
    """Condition number of the eigenvalue in the companion matrix:
    ||right|| ||left|| / |left* right|."""
    chi, psi = pair.right, pair.left
    nchi = float(np.linalg.norm(chi))
    npsi = float(np.linalg.norm(psi))
    coupling = abs(complex(psi.conj() @ chi))
    if coupling <= DEFECT_RTOL * nchi * npsi:
        raise DefectiveEigenvalueError(
            f"|left* right| = {coupling:.3e} is numerically zero relative to "
            f"||right|| ||left|| = {nchi * npsi:.3e}: defective eigenvalue")
    return nchi * npsi / coupling


def cond_via_companion(poly: MatrixPolynomial, weights: WeightSet, lam: complex,
                       x: np.ndarray, y: np.ndarray) -> float:
    """cond_simple recovered through the companion matrix:
    w(|lam|) / (||right|| ||left||) times the companion condition number."""
    weights.require_match(poly)
    pair = companion_vectors(poly, lam, x, y)
    k_comp = cond_companion(pair)
    scale = weights.eval(abs(lam)) / (
        float(np.linalg.norm(pair.right)) * float(np.linalg.norm(pair.left)))
    return scale * k_comp


def cond_multiple(poly: MatrixPolynomial, weights: WeightSet, lam: complex,
                  right_vectors: np.ndarray, left_vectors: np.ndarray) -> float:
    """Condition number of a (possibly multiple) eigenvalue from the matrices
    of eigenvectors attached to its largest Jordan blocks:
    w(|lam|) ||Xhat Yhat||.

    right_vectors is n x kappa, left_vectors is kappa x n; both must have full
    rank kappa. With kappa = 1 and unit vectors normalized so y* P'(lam) x = 1
    this coincides with cond_simple.
    """
    weights.require_match(poly)
    Xh = np.atleast_2d(np.asarray(right_vectors, dtype=complex))
    Yh = np.atleast_2d(np.asarray(left_vectors, dtype=complex))
    n = poly.n
    if Xh.shape[0] != n or Yh.shape[1] != n:
        raise HypothesisViolationError(
            f"eigenvector matrices must be n x kappa and kappa x n with n={n}; "
            f"got {Xh.shape} and {Yh.shape}")
    kappa = Xh.shape[1]
    if Yh.shape[0] != kappa:
        raise HypothesisViolationError(
            f"right_vectors has {kappa} columns but left_vectors has "
            f"{Yh.shape[0]} rows")
    if kappa < 1:
        raise HypothesisViolationError("at least one eigenvector is required")
    for name, M in (("right_vectors", Xh), ("left_vectors", Yh)):
        s = singular_values(M)
        if s[min(M.shape) - 1] <= 1e-12 * s[0]:
            raise HypothesisViolationError(f"{name} is rank-deficient (needs rank {kappa})")
    return weights.eval(abs(lam)) * spectral_norm(Xh @ Yh)


def adjugate_norm(M, gap: float = 1e6) -> float:
    """Spectral norm of adj(M) for M with a simple zero singular value:
    the product of the n-1 largest singular values.

    The simple-zero assumption is enforced as s_{n-1} > gap * s_n; violations
    raise with the observed singular-value gap.  On ill-scaled problems the
    product can overflow to inf or underflow to 0.
    """
    return _adjugate_norm_of(singular_values(M), gap)


def _adjugate_norm_of(s: np.ndarray, gap: float = 1e6) -> float:
    """adjugate_norm from the descending singular values s of M."""
    n = len(s)
    if n == 1:
        # adj of a 1x1 matrix is [1] by convention
        return 1.0
    if not s[-2] > gap * s[-1]:
        raise HypothesisViolationError(
            "adjugate norm needs a simple zero singular value: "
            f"s_{n - 1} = {s[-2]:.3e} vs gap * s_{n} = {gap * s[-1]:.3e} "
            f"(observed ratio {s[-2] / s[-1] if s[-1] > 0 else np.inf:.3e}, required > {gap:.1e})")
    return float(np.prod(s[:-1]))


def _log_gap_product(values: np.ndarray, i: int) -> float:
    """Sum of log |lam_j - lam_i| over j != i; log-space to survive the
    dynamic range of ill-scaled problems."""
    gaps = np.abs(np.delete(values, i) - values[i])
    if len(gaps) == 0:
        raise DegenerateProblemError(
            "the polynomial has a single eigenvalue; no gap product exists")
    if np.any(gaps == 0.0):
        raise NotAnEigenvalueError(
            f"eigenvalue {values[i]} has a zero gap to another eigenvalue; "
            "it is not simple")
    return float(np.sum(np.log(gaps)))


def _require_simple(spec: Spectrum, i: int) -> None:
    if not spec.is_simple(i):
        c = spec.cluster_of(i)
        raise NotAnEigenvalueError(
            f"eigenvalue index {i} sits in a cluster of size {c.size} "
            f"around {c.center}; a simple eigenvalue is required")


def cond_eigvector_free(poly: MatrixPolynomial, weights: WeightSet, i: int,
                        spec: Spectrum) -> float:
    """Condition number of the i-th eigenvalue without eigenvectors:
    w(|lam_i|) ||adj(P(lam_i))|| / (|det A_m| prod_{j != i} |lam_j - lam_i|).

    The product runs over all other computed eigenvalues with multiplicity and
    is accumulated in log space, as is ||adj(P(lam_i))|| when adjugate_norm's
    product leaves the normal float range.
    """
    weights.require_match(poly)
    _require_simple(spec, i)
    lam = complex(spec.eigenvalues[i])
    s = poly._singular_values_at(lam)
    with np.errstate(over="ignore"):
        adj = _adjugate_norm_of(s)
    if np.finfo(float).tiny <= adj < np.inf:
        log_adj = np.log(adj)
    else:   # inf, 0 or a subnormal that has lost digits: sum the logs instead
        log_adj = np.sum(np.log(s[:-1]))
    log_num = np.log(weights.eval(abs(lam))) + log_adj
    log_den = poly.log_abs_det_leading + _log_gap_product(spec.eigenvalues, i)
    return float(np.exp(log_num - log_den))


def min_gap_bound(poly: MatrixPolynomial, weights: WeightSet, i: int,
                  spec: Spectrum) -> float:
    """Upper bound on the distance from lam_i to the rest of the spectrum:
    (w(|lam_i|) ||adj(P(lam_i))|| / (k(P,lam_i) |det A_m|))^{1/(nm-1)}.

    With k(P,lam_i) from cond_eigvector_free the bracket is identically
    prod_{j != i} |lam_j - lam_i|, so the bound is that product's geometric
    mean, which reads no adjugate and is never below the smallest gap.
    """
    weights.require_match(poly)
    if poly.n * poly.m <= 1:
        raise DegenerateProblemError(
            "the gap bound needs nm >= 2: a 1x1 degree-1 polynomial has no "
            "other eigenvalue")
    _require_simple(spec, i)
    return float(np.exp(_log_gap_product(spec.eigenvalues, i) / (poly.n * poly.m - 1)))
