"""Perturbation bounds built on the weighted eigenvalue condition numbers.

Two families live here:

- dist_mult_bound / dist_mult_bound_adj: an upper bound on the smallest
  admissible perturbation size that turns a simple eigenvalue into a multiple
  one, from the eigenvector data or from the adjugate route.
- elsner_bound / bauer_fike_bound / bound_comparator: bounds on how far an
  eigenvalue of an eps-perturbed polynomial can sit from the spectrum of the
  original, and the closed-form test for which of the two is tighter.

Every bound is returned as a BoundReport carrying the number together with the
ingredients that produced it, so callers can audit rather than trust.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .condition import _derivative_frame, _eigenpair, cond_eigvector_free
from .core import MatrixPolynomial, WeightSet, _finite_point, _require_real, spectral_norm
from .errors import DegenerateProblemError
from .spectra import JordanTriple, _check_triple_shape, _require_simple

__all__ = [
    "BoundReport",
    "ComparatorReport",
    "dist_mult_bound",
    "dist_mult_bound_adj",
    "elsner_bound",
    "bauer_fike_bound",
    "bound_comparator",
]


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus the quantities it was assembled from.

    ingredients maps names to scalars (floats, one complex coupling term);
    applicable records which hypotheses were checked here and which are the
    caller's responsibility.
    """

    value: float
    ingredients: dict[str, Any] = field(default_factory=dict)
    applicable: dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class ComparatorReport:
    """Which of the two spectral-distance bounds is tighter at (eps, mu)."""

    omega: float
    elsner_tighter: bool
    elsner: BoundReport
    bauer_fike: BoundReport


def dist_mult_bound(poly: MatrixPolynomial, weights: WeightSet, lam: complex,
                    x: np.ndarray, y: np.ndarray) -> BoundReport:
    """Upper bound on the smallest weighted perturbation size that makes the
    simple eigenvalue lam multiple:

        c(P'(lam)) ||P(lam)|| / (k(P, lam) nu),

    with nu = (||y* P'(lam)||^2 - |y* P'(lam) x|^2)^(1/2) for unit x, y.
    The perturbation realizing a value no larger than this is produced by
    perturb.defect_perturbation.

    For fixed weights the bound is homogeneous of degree one in P, as the
    distance is: replacing P by alpha P multiplies it by alpha (c has degree
    0, ||P(lam)|| and nu degree 1, k degree -1). For P(lam) = lam I - A with
    weights (1, 0) it reduces to Wilkinson's bound ||A - lam I|| /
    sqrt(kappa^2 - 1), kappa = 1 / |y* x| (Wilkinson, Numer. Math. 1972).
    """
    lam, x, y = _eigenpair(poly, weights, lam, x, y)
    frame, *_ = _derivative_frame(poly, lam, x, y)
    w = weights.eval(abs(lam))
    return _dist_report(frame, w / abs(frame[2]), w)    # k = w / |y* P'(lam) x|


def dist_mult_bound_adj(poly: MatrixPolynomial, weights: WeightSet, i: int,
                        spec, x: np.ndarray, y: np.ndarray) -> BoundReport:
    """dist_mult_bound with the condition number taken from the
    eigenvector-free adjugate route instead of the coupling y* P'(lam) x.

    spec is a Spectrum containing the eigenvalue at index i; x, y are still
    needed for the direction term nu.
    """
    lam, x, y = _eigenpair(poly, weights, _require_simple(spec, i), x, y)
    frame, *_ = _derivative_frame(poly, lam, x, y)
    k = cond_eigvector_free(poly, weights, i, spec)
    return _dist_report(frame, k, weights.eval(abs(lam)))


def _dist_report(frame, k: float, w: float) -> BoundReport:
    """The distance-to-multiplicity BoundReport from a _derivative_frame,
    the condition number k and the weight w(|lam|)."""
    c, norm_p, delta, row_norm, nu = frame
    return BoundReport(
        value=c * norm_p / (k * nu),
        ingredients={
            "derivative_cond": c,
            "poly_norm_at_lam": norm_p,
            "eig_cond": k,
            "coupling": delta,
            "left_derivative_norm": row_norm,
            "orthogonal_component": nu,
            "weight_at_lam": w,
        },
        applicable={
            "simple_eigenvalue": True,
            "derivative_nonsingular": True,
            "nonparallel": True,
        },
    )


def elsner_bound(poly: MatrixPolynomial, weights: WeightSet, eps: float,
                 mu: complex, hypothesis_verified: bool = False) -> BoundReport:
    """Distance from mu to the spectrum of P, valid whenever mu is an
    eigenvalue of some polynomial within weighted distance eps of P:

        (eps w(|mu|) ||P(mu)||^(n-1) / |det A_m|)^(1/(mn)).

    Such a mu has s_min(P(mu)) <= eps w(|mu|), and det P(mu) = det A_m
    prod_j (mu - lam_j) with |det P(mu)| <= s_min(P(mu)) ||P(mu)||^(n-1), so
    dist(mu, spectrum)^(mn) is at most the mn-th power of the bound.  The
    mu-is-a-perturbed-eigenvalue hypothesis cannot be checked from (P, eps,
    mu) alone; pass hypothesis_verified=True when the caller knows it.
    """
    weights.require_match(poly)
    eps = _require_real(eps, "eps")
    mu = _finite_point(mu, "mu")
    mn = poly.m * poly.n
    if mn == 0:
        raise DegenerateProblemError("a degree-0 polynomial has no eigenvalues to bound")
    w = weights.eval(abs(mu))
    norm_p = spectral_norm(poly.eval(mu))
    logdet = poly.log_abs_det_leading
    if eps * w == 0.0 or (norm_p == 0.0 and poly.n > 1):
        value = 0.0
    else:
        log_val = np.log(eps * w) - logdet
        if poly.n > 1:
            log_val += (poly.n - 1) * np.log(norm_p)
        value = float(np.exp(log_val / mn))
    return BoundReport(
        value=value,
        ingredients={
            "eps": eps,
            "weight_at_mu": w,
            "abs_det_leading": float(np.exp(logdet)),
            "poly_norm_at_mu": norm_p,
            "root_order": mn,
        },
        applicable={"mu_in_perturbed_spectrum": bool(hypothesis_verified)},
    )


def bauer_fike_bound(poly: MatrixPolynomial, weights: WeightSet, eps: float,
                     mu: complex, triple: JordanTriple,
                     hypothesis_verified: bool = False) -> BoundReport:
    """Distance from mu to the spectrum of P via the global condition number
    of a decomposition (X, J, Y):

        max(theta, theta^(1/p)),  theta = p k(P) eps w(|mu|),

    where p is the largest Jordan block size and k(P) = ||X|| ||Y||.  The
    triple is shape-checked here; numerical validation is
    spectra.validate_jordan_triple's job.
    """
    weights.require_match(poly)
    _check_triple_shape(poly, triple)
    eps = _require_real(eps, "eps")
    mu = _finite_point(mu, "mu")
    p = triple.max_block_size
    k = triple.norm_product
    w = weights.eval(abs(mu))
    theta = p * k * eps * w
    value = float(max(theta, theta ** (1.0 / p)))
    return BoundReport(
        value=value,
        ingredients={
            "theta": theta,
            "max_block_size": p,
            "triple_cond": k,
            "weight_at_mu": w,
            "eps": eps,
        },
        applicable={
            "mu_in_perturbed_spectrum": bool(hypothesis_verified),
            "triple_numerically_validated": False,
        },
    )


def bound_comparator(poly: MatrixPolynomial, weights: WeightSet, eps: float,
                     mu: complex, triple: JordanTriple,
                     hypothesis_verified: bool = False) -> ComparatorReport:
    """Decide in closed form whether the elsner or the bauer_fike bound is
    tighter at (eps, mu).

    With theta = p k(P) eps w(|mu|) and mn = m n, the crossover constant is

        Omega = |det A_m| (p k)^(mn)     (eps w)^(mn - 1)      if theta >= 1,
        Omega = |det A_m| (p k)^(mn/p)   (eps w)^(mn/p - 1)    otherwise,

    and the elsner bound is tighter exactly when ||P(mu)||^(n-1) < Omega.
    """
    weights.require_match(poly)
    _check_triple_shape(poly, triple)
    mn = poly.m * poly.n
    if mn <= 1:
        raise DegenerateProblemError(
            "the comparator needs mn >= 2; with one eigenvalue the two bounds "
            "coincide up to normalization")
    el = elsner_bound(poly, weights, eps, mu, hypothesis_verified)
    bf = bauer_fike_bound(poly, weights, eps, mu, triple, hypothesis_verified)
    p = bf.ingredients["max_block_size"]
    k = bf.ingredients["triple_cond"]
    w = bf.ingredients["weight_at_mu"]
    theta = bf.ingredients["theta"]
    logdet = poly.log_abs_det_leading
    ew = eps * w
    if ew == 0.0:
        omega = 0.0
        tighter = False
    else:
        if theta >= 1.0:
            log_omega = logdet + mn * np.log(p * k) + (mn - 1) * np.log(ew)
        else:
            log_omega = logdet + (mn / p) * np.log(p * k) + (mn / p - 1.0) * np.log(ew)
        omega = float(np.exp(log_omega))
        norm_p = el.ingredients["poly_norm_at_mu"]
        if poly.n == 1:
            tighter = bool(0.0 < log_omega)
        elif norm_p == 0.0:
            tighter = True      # the elsner bound is 0
        else:
            tighter = bool((poly.n - 1) * np.log(norm_p) < log_omega)
    return ComparatorReport(omega=omega, elsner_tighter=tighter, elsner=el, bauer_fike=bf)
