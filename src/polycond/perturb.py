"""Admissible perturbations of a matrix polynomial.

A perturbation is a full set of coefficient deltas Delta_0 .. Delta_m; it is
admissible at level eps for a weight set w when ||Delta_j|| <= eps * w_j for
every j.  Two constructions are provided:

- defect_perturbation builds the smallest-known admissible perturbation that
  turns a given simple eigenvalue into a multiple one, and certifies the
  double eigenvalue by spectra's contour count.
- random_perturbation draws deltas uniformly on the admissible boundary
  (||Delta_j|| = eps * w_j exactly) from a counter-based generator, so sweeps
  are reproducible and partitionable across streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (MatrixPolynomial, WeightSet, _empty, _finite_point, _matrix_stack,
                   _require_nonnegative_ints, _require_real, _singular, _spectral_norms,
                   singular_values)
from .errors import (
    DegenerateProblemError,
    HypothesisViolationError,
    InvalidPolynomialError,
    InvalidWeightsError,
    PolycondError,
)
from .spectra import _count, _eigensolve, _svds_at

__all__ = [
    "PerturbedPolynomial",
    "AdmissibilityReport",
    "is_admissible",
    "perturbation_rng",
    "random_perturbation",
    "defect_perturbation",
    "eigenvalue_shift_samples",
]

# two or more eigenvalues of the perturbed polynomial in the disc of this
# relative radius around the target (spectra._count, refused when one lies near
# the circle) certify a multiple eigenvalue; a doubled defective eigenvalue
# splits like the square root of the backward error, so anything much tighter
# than 1e-5 rejects correct constructions when coefficient norms are in the tens
PAIRING_RTOL = 1e-5
MAX_ATTEMPTS = 8    # draws random_perturbation tries before it refuses


@dataclass(frozen=True, eq=False)
class PerturbedPolynomial(MatrixPolynomial):
    """A base polynomial plus one delta per coefficient: the matrix polynomial
    with coefficients base.coeffs[j] + deltas[j], refused with
    InvalidPolynomialError when its leading coefficient is singular.

    eps_used, a nonnegative real number, is the smallest level at which the
    deltas are admissible for weights, a WeightSet that matches base;
    certificates names the checks that random_perturbation or
    defect_perturbation passed, and is empty for a direct construction.
    """

    coeffs: tuple = field(init=False)     # built from base and deltas
    base: MatrixPolynomial
    deltas: tuple
    eps_used: float
    weights: WeightSet
    certificates: tuple = field(default=(), init=False)     # set by the constructing function

    def __init__(self, base: MatrixPolynomial, deltas, eps_used: float, weights: WeightSet):
        deltas, coeffs = _perturbed_stacks(base, deltas)
        if not isinstance(weights, WeightSet):
            raise InvalidWeightsError(f"weights must be a WeightSet, got {weights!r}")
        weights.require_match(base)
        self._adopt(coeffs, base=base, deltas=tuple(deltas),
                    eps_used=_require_real(eps_used, "eps_used"), weights=weights)

    @property
    def delta_norms(self) -> tuple:
        return _spectral_norms(self.deltas)

    def materialize(self) -> "PerturbedPolynomial":
        """The polynomial itself, which already is P + Delta."""
        return self


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    eps: float
    tol: float
    delta_norms: tuple
    slack: tuple        # eps * w_j - ||Delta_j|| per coefficient
    tight: tuple        # equality within tol per coefficient


def is_admissible(base: MatrixPolynomial, candidate, eps: float,
                  weights: WeightSet, tol: float = 1e-12) -> AdmissibilityReport:
    """Check ||Delta_j|| <= eps * w_j for every coefficient.

    candidate is either a PerturbedPolynomial over the same base or a plain
    MatrixPolynomial of the same shape (deltas are then the coefficient
    differences).  Comparisons carry a slack of tol * max(1, eps * w_j).
    """
    weights.require_match(base)
    eps = _require_real(eps, "eps")
    tol = _require_real(tol, "tol")
    if isinstance(candidate, PerturbedPolynomial):
        if candidate.base is not base and not np.array_equal(candidate.base.coeff_stack,
                                                             base.coeff_stack):
            raise InvalidPolynomialError(
                "the perturbation was built over a different base polynomial")
        deltas = candidate.deltas
    else:
        if candidate.n != base.n or candidate.m != base.m:
            raise InvalidPolynomialError(
                f"cannot compare a polynomial with n={candidate.n}, m={candidate.m} "
                f"against a base with n={base.n}, m={base.m}")
        deltas = candidate.coeff_stack - base.coeff_stack
    norms = _spectral_norms(deltas)
    slack = tuple(eps * weights.weights[j] - norms[j] for j in range(base.m + 1))
    margin = tuple(tol * max(1.0, eps * weights.weights[j]) for j in range(base.m + 1))
    admissible = all(s >= -g for s, g in zip(slack, margin))
    tight = tuple(abs(s) <= g for s, g in zip(slack, margin))
    return AdmissibilityReport(admissible=admissible, eps=eps, tol=tol,
                               delta_norms=norms, slack=slack, tight=tight)


def perturbation_rng(seed: int, stream: int = 0, attempt: int = 0) -> np.random.Generator:
    """Counter-based generator for perturbation draws.

    (seed, stream) addresses an independent sequence, so parallel sweeps can
    partition work by stream without coordination; attempt separates redraws
    after a rejected draw (a singular perturbed leading coefficient).  Each of
    them must be a nonnegative integer (HypothesisViolationError).
    """
    _require_nonnegative_ints(seed=seed, stream=stream, attempt=attempt)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, attempt))
    return np.random.Generator(np.random.Philox(ss))


def random_perturbation(poly: MatrixPolynomial, eps: float, weights: WeightSet,
                        seed: int, stream: int = 0) -> PerturbedPolynomial:
    """Draw deltas with ||Delta_j|| = eps * w_j exactly (zero where w_j = 0).

    Each delta is a complex Gaussian matrix rescaled to the admissible
    boundary.  Draws that leave the perturbed leading coefficient singular are
    rejected and redrawn on a fresh attempt counter, at most MAX_ATTEMPTS times.
    An infinite eps, or one whose eps * w_j overflows, and a seed or stream
    that is not a nonnegative integer are refused before any draw.
    """
    deltas, coeffs, s = _draw(poly, eps, _boundary_targets(poly, eps, weights), seed, stream)
    # the draw passed every check of PerturbedPolynomial's construction and
    # took the SVD of the new leading coefficient: adopt it without a second pass
    return PerturbedPolynomial.__new__(PerturbedPolynomial)._adopt(
        coeffs, s, base=poly, deltas=tuple(deltas), eps_used=float(eps), weights=weights,
        certificates=("leading-nonsingular",))


def _perturbed_stacks(base: MatrixPolynomial, deltas):
    """(deltas, coefficients of base + deltas), new checked stacks, the first
    read-only: PerturbedPolynomial's checks before the leading rule's."""
    m = base.m
    try:
        count = len(deltas)
    except TypeError:
        count = f"{deltas!r}, which is not a sequence"
    if count != m + 1:
        raise InvalidPolynomialError(f"expected {m + 1} deltas for degree {m}, got {count}")
    deltas = _matrix_stack(deltas, "deltas[{}]", base.n)
    deltas.flags.writeable = False
    with np.errstate(over="ignore"):        # an overflowing sum is refused as not finite
        total = base.coeff_stack + deltas
    return deltas, _matrix_stack(total, "coefficient A_{}")


def _boundary_targets(poly: MatrixPolynomial, eps: float, weights: WeightSet) -> np.ndarray:
    """The delta norms eps * w_j of a boundary draw, once eps and the weights
    pass the checks that every draw relies on."""
    weights.require_match(poly)
    eps = _require_real(eps, "eps")
    targets = [eps * w for w in weights.weights]
    for j, t in enumerate(targets):
        if not math.isfinite(t):
            raise HypothesisViolationError(
                f"eps must be finite and eps * w_j must not overflow, got eps = {eps}, "
                f"w_{j} = {weights.weights[j]}")
    return np.array(targets)


def _draw(poly: MatrixPolynomial, eps: float, targets: np.ndarray, seed: int, stream: int):
    """The first accepted attempt of stream: (deltas, coefficients of P + Delta,
    singular values of the latter's leading coefficient), new stacks, deltas read-only.

    An attempt is rejected, and the next attempt counter drawn, when a drawn
    matrix has norm 0, when a sum is not finite (which covers the deltas: a
    finite sum has finite terms) or when the leading rule finds the perturbed
    leading coefficient singular: the checks PerturbedPolynomial's
    construction makes."""
    n = poly.n
    drawn = np.flatnonzero(targets)
    for attempt in range(MAX_ATTEMPTS):
        # in C order: re_0, im_0, re_1, im_1, ... over the drawn coefficients
        draws = perturbation_rng(seed, stream, attempt).standard_normal((len(drawn), 2, n, n))
        g = draws[:, 0] + 1j * draws[:, 1]
        ng = singular_values(g)[:, 0]
        if not ng.all():
            continue
        deltas = np.zeros(poly.coeff_stack.shape, dtype=complex)
        deltas[drawn] = (targets[drawn] / ng)[:, np.newaxis, np.newaxis] * g
        coeffs = poly.coeff_stack + deltas
        if not np.isfinite(coeffs).all():
            continue
        s = singular_values(coeffs[-1])
        if not _singular(s):
            deltas.flags.writeable = False
            return deltas, coeffs, s
    raise DegenerateProblemError(
        f"no materializable perturbation found in {MAX_ATTEMPTS} attempts at "
        f"eps = {eps}; eps * w_m = {targets[-1]:.3e} likely "
        f"reaches the smallest singular value of the leading coefficient")


def defect_perturbation(poly: MatrixPolynomial, weights: WeightSet, lam: complex,
                        x: np.ndarray, y: np.ndarray) -> PerturbedPolynomial:
    """Admissible perturbation making the simple eigenvalue lam multiple.

    x and y are right and left eigenvectors of lam.  With delta = y* P'(lam) x,
    u = (I - x x*) P'(lam)* y, whose norm is the nu of dist_mult_bound, and

        q* = x* P'(lam)^{-1} P(lam) (I - x x*)

    (the first row of Pt'(lam)^{-1} Pt(lam), Pt = P V, off its diagonal, in
    any unitary frame V whose first column is x), the rank-one matrix

        Dhat = (delta / nu^2) (P'(lam) u) q*

    is spread over the coefficients as

        Delta_j = (conj(lam)/|lam|)^j (w_j / w(|lam|)) Dhat

    (for lam = 0 the whole perturbation is carried by Delta_0).  The returned
    eps_used = ||Dhat|| / w(|lam|) = |delta| ||P'(lam) u|| ||q|| / (nu^2 w(|lam|))
    needs no SVD, and never exceeds dist_mult_bound: ||P'(lam) u|| <=
    ||P'(lam)|| nu and ||q|| <= ||P'(lam)^{-1}|| ||P(lam)|| give eps_used <=
    c(P'(lam)) ||P(lam)|| |delta| / (nu w(|lam|)) = c(P'(lam)) ||P(lam)|| /
    (k(P, lam) nu).  Its one certificate, "eigenvalue-pairing", is a contour
    count (no eigensolve) of two or more perturbed eigenvalues within
    PAIRING_RTOL max(1, |lam|) of lam, else PolycondError.  No rank test could
    certify instead: Q(lam) keeps rank n - 1, since Q(lam) x = 0 and y* P'(lam)
    u = nu^2 != 0 puts P'(lam) u outside the range of P(lam).
    """
    # only here: the draws load no condition layer
    from .condition import _derivative_frame, _eigenpair

    lam, x, y = _eigenpair(poly, weights, lam, x, y)
    px = poly.eval(lam)
    rx = float(np.linalg.norm(px @ x))
    ry = float(np.linalg.norm(y.conj() @ px))
    gate = 1e-8 * max(1.0, float(_svds_at(poly, lam).s[0]))
    # reject junk vectors before the derivative gates so the error names the
    # actual problem instead of a coupling artifact
    if rx > gate or ry > gate:
        raise HypothesisViolationError(
            f"(x, y) are not eigenvectors of lam = {lam}: residuals "
            f"||P(lam) x|| = {rx:.3e}, ||y* P(lam)|| = {ry:.3e} exceed {gate:.3e}")
    # remaining hypothesis gates: P'(lam) nonsingular, lam numerically simple,
    # y* P'(lam) not parallel to x*
    (_, norm_p, delta, _, nu), Pp, u_row = _derivative_frame(poly, lam, x, y)
    q_row = np.linalg.solve(Pp.T, x.conj()) @ px
    q_row -= (q_row @ x) * x.conj()
    q_norm = float(np.linalg.norm(q_row))
    # the bound ||P(lam)|| / s_min(P'(lam)) is never below ||Pt'(lam)^{-1} Pt(lam)||
    if q_norm <= 1e-14 * max(1.0, norm_p / float(_svds_at(poly, lam).sp[-1])):
        raise HypothesisViolationError(
            "the defect direction vanishes: the first row of "
            "Pt'(lam)^{-1} Pt(lam) has no off-diagonal part")
    pu = Pp @ u_row.conj()
    w_at = weights.eval(abs(lam))
    eps_used = abs(delta) * float(np.linalg.norm(pu)) * q_norm / (nu ** 2 * w_at)
    Dhat = (delta / nu ** 2) * np.outer(pu, q_row)
    if lam == 0:
        deltas = [Dhat] + [np.zeros_like(Dhat)] * poly.m
    else:
        deltas = [(lam.conjugate() / abs(lam)) ** j * (weights.weights[j] / w_at) * Dhat
                  for j in range(poly.m + 1)]

    deltas, coeffs = _perturbed_stacks(poly, deltas)
    r = PAIRING_RTOL * max(1.0, abs(lam))
    count = _count(coeffs, lam, r)
    if (count or 0) < 2:
        raise PolycondError(
            "the constructed perturbation failed to certify a multiple "
            f"eigenvalue at {lam}: the contour count of perturbed eigenvalues "
            f"within {r:.3e} is {'refused' if count is None else count}")
    return PerturbedPolynomial.__new__(PerturbedPolynomial)._adopt(
        coeffs, base=poly, deltas=tuple(deltas), eps_used=float(eps_used),
        weights=weights, certificates=("eigenvalue-pairing",))


def eigenvalue_shift_samples(poly: MatrixPolynomial, weights: WeightSet,
                             eps: float, lam: complex, samples: int, seed: int,
                             stream_base: int = 0) -> np.ndarray:
    """Distance from lam to the nearest eigenvalue of each of `samples`
    boundary perturbations, one independent stream per sample: sample i is
    the first accepted attempt of stream stream_base + i, the polynomial that
    random_perturbation(..., stream=stream_base + i) returns.

    The running maximum divided by eps estimates the condition number of lam
    from below as eps -> 0.  A NaN or infinite lam, and a samples, seed or
    stream_base that is not a nonnegative integer, raise
    HypothesisViolationError.
    """
    lam = _finite_point(lam, "lam")
    _require_nonnegative_ints(samples=samples, seed=seed, stream_base=stream_base)
    targets = _boundary_targets(poly, eps, weights)
    out = _empty(samples, "samples", samples)
    for i in range(samples):
        coeffs = _draw(poly, eps, targets, seed, stream_base + i)[1]
        out[i] = np.abs(_eigensolve(coeffs) - lam).min()
    return out
