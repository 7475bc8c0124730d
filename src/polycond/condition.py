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

import math

import numpy as np

from .core import (MatrixPolynomial, WeightSet, _finite_point, _finite_points, _singular, _vector,
                   singular_values, spectral_norm)
from .errors import (
    DefectiveEigenvalueError,
    DegenerateProblemError,
    HypothesisViolationError,
    NotAnEigenvalueError,
)
from .spectra import Spectrum, _lift, _require_simple, _svds_at

__all__ = [
    "cond_simple",
    "cond_via_companion",
    "cond_multiple",
    "adjugate_norm",
    "cond_eigvector_free",
    "min_gap_bound",
]

# |y* P'(lam) x| below this multiple of ||P'(lam)|| ||x|| ||y|| means lam is
# numerically defective and the simple-eigenvalue formulas do not apply.
DEFECT_RTOL = 1e-14
ADJUGATE_GAP = 1e6      # adjugate_norm needs s_{n-1} > ADJUGATE_GAP s_n: a simple zero


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


def _eigenpair(poly: MatrixPolynomial, weights: WeightSet, lam: complex, x: np.ndarray,
               y: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """The intake of the routes that work in the frame of an eigenpair: weights
    matched to poly, then lam as a finite Python complex and x, y as unit
    vectors, scaled from nonzero vectors of n entries (core._vector)."""
    weights.require_match(poly)
    lam, x, y = _finite_point(lam, "lam"), _vector(x, poly.n, "x"), _vector(y, poly.n, "y")
    return lam, x / np.linalg.norm(x), y / np.linalg.norm(y)


def _derivative_frame(poly: MatrixPolynomial, lam: complex, x: np.ndarray, y: np.ndarray):
    """The hypothesis gates of the distance to a multiple eigenvalue, on an
    eigenpair that _eigenpair checked: P'(lam) nonsingular (core._singular),
    lam numerically simple (_coupling), y* P'(lam) not parallel to x*.

    Returns (c(P'(lam)), ||P(lam)||, delta, ||y* P'||, nu), P'(lam) itself and
    u* = y* P'(lam) (I - x x*), the part of y* P'(lam) orthogonal to x*, whose
    norm is nu.
    """
    Pp = poly.eval_derivative(lam)
    s = _svds_at(poly, lam).sp
    if _singular(s):
        raise HypothesisViolationError(
            f"P'(lam) is numerically singular at lam = {lam} "
            f"(s_min/s_max = {s[-1] / s[0] if s[0] else 0.0:.3e}); "
            "the distance bound assumes 0 is not an eigenvalue of P'(lam)")
    delta = _coupling(Pp, s[0], lam, x, y)
    row = y.conj() @ Pp
    row_norm = float(np.linalg.norm(row))
    # nu^2 = ||y* P'||^2 - |delta|^2, computed without cancellation as the
    # norm of the component of y* P' orthogonal to x*
    u_row = row - delta * x.conj()
    nu = float(np.linalg.norm(u_row))
    if nu <= 1e-12 * row_norm:
        raise HypothesisViolationError(
            f"y* P'(lam) is numerically parallel to x* at lam = {lam}; "
            "the defect construction has no direction to work in")
    return (float(s[0] / s[-1]), float(_svds_at(poly, lam).s[0]), delta, row_norm, nu), Pp, u_row


def cond_simple(poly: MatrixPolynomial, weights: WeightSet, lam: complex,
                x: np.ndarray, y: np.ndarray) -> float:
    """Condition number of a simple eigenvalue from its unit eigenvectors:
    w(|lam|) ||x|| ||y|| / |y* P'(lam) x|."""
    weights.require_match(poly)
    lam, x, y = _finite_point(lam, "lam"), _vector(x, poly.n, "x"), _vector(y, poly.n, "y")
    Pp = poly.eval_derivative(lam)
    delta = _coupling(Pp, _svds_at(poly, lam).sp[0], lam, x, y)
    w = weights.eval(abs(lam))
    return w * float(np.linalg.norm(x)) * float(np.linalg.norm(y)) / abs(delta)


def cond_via_companion(poly: MatrixPolynomial, weights: WeightSet, lam: complex,
                       x: np.ndarray, y: np.ndarray) -> float:
    """cond_simple recovered through the companion matrix: w(|lam|) / (||right|| ||left||)
    times the companion condition number ||right|| ||left|| / |left* right| of the
    eigenvectors that companion_vectors synthesizes from (x, y)."""
    weights.require_match(poly)
    lam, x, y = _finite_point(lam, "lam"), _vector(x, poly.n, "x"), _vector(y, poly.n, "y")
    right, left = _lift(poly, lam, x, y)
    n_right, n_left = float(np.linalg.norm(right)), float(np.linalg.norm(left))
    if not math.isfinite(n_right * n_left):
        raise HypothesisViolationError(
            f"the companion eigenvectors overflow at lam = {lam}: ||right|| ||left|| is not finite")
    coupling = abs(complex(left.conj() @ right))
    if coupling <= DEFECT_RTOL * n_right * n_left:
        raise DefectiveEigenvalueError(
            f"|left* right| = {coupling:.3e} is numerically zero relative to "
            f"||right|| ||left|| = {n_right * n_left:.3e}: defective eigenvalue")
    return weights.eval(abs(lam)) / (n_right * n_left) * (n_right * n_left / coupling)


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
    lam = _finite_point(lam, "lam")
    Xh = np.atleast_2d(_finite_points(right_vectors, "right_vectors"))
    Yh = np.atleast_2d(_finite_points(left_vectors, "left_vectors"))
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
        if _singular(singular_values(M)):
            raise HypothesisViolationError(f"{name} is rank-deficient (needs rank {kappa})")
    return weights.eval(abs(lam)) * spectral_norm(Xh @ Yh)


def adjugate_norm(M) -> float:
    """Spectral norm of adj(M) for M with a simple zero singular value:
    the product of the n-1 largest singular values (1 for a 1x1 M).

    The simple-zero assumption is enforced as s_{n-1} > ADJUGATE_GAP * s_n;
    violations raise with the observed singular-value gap.  On ill-scaled
    problems the product can overflow to inf or underflow to 0.  Anything but
    a square 2-D matrix raises HypothesisViolationError.
    """
    M = _finite_points(M, "M")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise HypothesisViolationError(f"adjugate norm needs a square matrix, got shape {M.shape}")
    return float(np.prod(_adjugate_factors(singular_values(M))))


def _adjugate_factors(s: np.ndarray) -> np.ndarray:
    """s_1..s_{n-1}, whose product is ||adj(M)||, from the descending singular
    values s of M; raises unless s_{n-1} > ADJUGATE_GAP * s_n (vacuous for n = 1)."""
    if len(s) > 1 and not s[-2] > ADJUGATE_GAP * s[-1]:
        ratio = s[-2] / s[-1] if s[-1] > 0 else np.inf
        raise HypothesisViolationError(
            "adjugate norm needs a simple zero singular value: "
            f"s_{len(s) - 1} = {s[-2]:.3e} vs gap * s_{len(s)} = {ADJUGATE_GAP * s[-1]:.3e} "
            f"(observed ratio {ratio:.3e}, required > {ADJUGATE_GAP:.1e})")
    return s[:-1]


def _log_gap_product(values: np.ndarray, i: int) -> float:
    """Sum of log |lam_j - lam_i| over j != i (0 for a lone eigenvalue);
    log-space to survive the dynamic range of ill-scaled problems."""
    gaps = np.abs(np.delete(values, i) - values[i])
    if np.any(gaps == 0.0):
        raise NotAnEigenvalueError(
            f"eigenvalue {values[i]} has a zero gap to another eigenvalue; "
            "it is not simple")
    return float(np.sum(np.log(gaps)))


def cond_eigvector_free(poly: MatrixPolynomial, weights: WeightSet, i: int,
                        spec: Spectrum) -> float:
    """Condition number of the i-th eigenvalue without eigenvectors:
    w(|lam_i|) ||adj(P(lam_i))|| / (|det A_m| prod_{j != i} |lam_j - lam_i|).

    The product runs over all other computed eigenvalues with multiplicity and,
    like ||adj(P(lam_i))|| = s_1 ... s_{n-1} from the memoised SVD of P(lam_i),
    is summed in log space; a 1x1 linear P gives w(|lam|) / |a_1|.
    """
    weights.require_match(poly)
    lam = _require_simple(spec, i)
    log_adj = np.sum(np.log(_adjugate_factors(_svds_at(poly, lam).s)))
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
