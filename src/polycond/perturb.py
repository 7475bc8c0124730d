"""Admissible perturbations of a matrix polynomial.

A perturbation is a full set of coefficient deltas Delta_0 .. Delta_m; it is
admissible at level eps for a weight set w when ||Delta_j|| <= eps * w_j for
every j.  Two constructions are provided:

- defect_perturbation builds the smallest-known admissible perturbation that
  turns a given simple eigenvalue into a multiple one, and certifies the
  result numerically.
- random_perturbation draws deltas uniformly on the admissible boundary
  (||Delta_j|| = eps * w_j exactly) from a counter-based generator, so sweeps
  are reproducible and partitionable across streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import _derivative_frame, _unit
from .core import MatrixPolynomial, WeightSet, _spectral_norms, as_complex_matrix, singular_values
from .errors import (
    DegenerateProblemError,
    HypothesisViolationError,
    InvalidPolynomialError,
    PolycondError,
)
from .spectra import eigenvalues

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
# relative radius around the target (a _disc_count, refused when one lies near
# the circle) certify a multiple eigenvalue; a doubled defective eigenvalue
# splits like the square root of the backward error, so anything much tighter
# than 1e-5 rejects correct constructions when coefficient norms are in the tens
PAIRING_RTOL = 1e-5
# second-smallest singular value below this multiple of the largest counts as
# a rank drop of two or more
RANK_DROP_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class PerturbedPolynomial(MatrixPolynomial):
    """A base polynomial plus one delta per coefficient: the matrix polynomial
    with coefficients base.coeffs[j] + deltas[j], refused with
    InvalidPolynomialError when its leading coefficient is singular.

    eps_used is the smallest level at which the deltas are admissible for the
    stored weights; certificates names the checks the construction passed.
    """

    coeffs: tuple = field(init=False)     # built from base and deltas
    base: MatrixPolynomial
    deltas: tuple
    eps_used: float
    weights: WeightSet
    certificates: tuple = ()

    def __init__(self, base: MatrixPolynomial, deltas, eps_used: float,
                 weights: WeightSet, certificates: tuple = ()):
        n, m = base.n, base.m
        if len(deltas) != m + 1:
            raise InvalidPolynomialError(
                f"expected {m + 1} deltas for degree {m}, got {len(deltas)}")
        frozen = tuple(
            as_complex_matrix(d, name=f"deltas[{j}]", square=True)
            for j, d in enumerate(deltas))
        for j, d in enumerate(frozen):
            if d.shape != (n, n):
                raise InvalidPolynomialError(
                    f"deltas[{j}] has shape {d.shape}, expected {(n, n)}")
        super().__init__(tuple(A + d for A, d in zip(base.coeffs, frozen)))
        for name, value in (("base", base), ("deltas", frozen), ("eps_used", eps_used),
                            ("weights", weights), ("certificates", certificates)):
            object.__setattr__(self, name, value)

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
    if not eps >= 0:
        raise HypothesisViolationError(f"eps must be nonnegative, got {eps}")
    if isinstance(candidate, PerturbedPolynomial):
        if candidate.base is not base and not all(
                np.array_equal(a, b)
                for a, b in zip(candidate.base.coeffs, base.coeffs)):
            raise InvalidPolynomialError(
                "the perturbation was built over a different base polynomial")
        deltas = candidate.deltas
    else:
        if candidate.n != base.n or candidate.m != base.m:
            raise InvalidPolynomialError(
                f"cannot compare a polynomial with n={candidate.n}, m={candidate.m} "
                f"against a base with n={base.n}, m={base.m}")
        deltas = tuple(candidate.coeffs[j] - base.coeffs[j]
                       for j in range(base.m + 1))
    norms = _spectral_norms(deltas)
    slack = tuple(eps * weights.weights[j] - norms[j] for j in range(base.m + 1))
    margin = tuple(tol * max(1.0, eps * weights.weights[j]) for j in range(base.m + 1))
    admissible = all(s >= -g for s, g in zip(slack, margin))
    tight = tuple(abs(s) <= g for s, g in zip(slack, margin))
    return AdmissibilityReport(admissible=admissible, eps=float(eps), tol=float(tol),
                               delta_norms=norms, slack=slack, tight=tight)


def perturbation_rng(seed: int, stream: int = 0, attempt: int = 0) -> np.random.Generator:
    """Counter-based generator for perturbation draws.

    (seed, stream) addresses an independent sequence, so parallel sweeps can
    partition work by stream without coordination; attempt separates redraws
    after a rejected draw (a singular perturbed leading coefficient).
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, attempt))
    return np.random.Generator(np.random.Philox(ss))


def random_perturbation(poly: MatrixPolynomial, eps: float, weights: WeightSet,
                        seed: int, stream: int = 0,
                        max_attempts: int = 8) -> PerturbedPolynomial:
    """Draw deltas with ||Delta_j|| = eps * w_j exactly (zero where w_j = 0).

    Each delta is a complex Gaussian matrix rescaled to the admissible
    boundary.  Draws that leave the perturbed leading coefficient singular are
    rejected and redrawn on a fresh attempt counter.
    """
    weights.require_match(poly)
    if not eps >= 0:
        raise HypothesisViolationError(f"eps must be nonnegative, got {eps}")
    n = poly.n
    targets = [eps * w for w in weights.weights]
    drawn = [j for j, t in enumerate(targets) if t != 0.0]
    for attempt in range(max_attempts):
        # in C order: re_0, im_0, re_1, im_1, ... over the drawn coefficients
        draws = perturbation_rng(seed, stream, attempt).standard_normal((len(drawn), 2, n, n))
        g = draws[:, 0] + 1j * draws[:, 1]
        ng = np.linalg.svd(g, compute_uv=False)[:, 0]
        if (ng == 0.0).any():
            continue
        deltas = [np.zeros((n, n), dtype=complex)] * len(targets)
        for i, j in enumerate(drawn):
            deltas[j] = (targets[j] / ng[i]) * g[i]
        try:
            return PerturbedPolynomial(base=poly, deltas=tuple(deltas), eps_used=float(eps),
                                       weights=weights, certificates=("leading-nonsingular",))
        except InvalidPolynomialError:
            continue
    raise DegenerateProblemError(
        f"no materializable perturbation found in {max_attempts} attempts at "
        f"eps = {eps}; eps * w_m = {eps * weights.weights[-1]:.3e} likely "
        f"reaches the smallest singular value of the leading coefficient")


def _disc_count(poly: MatrixPolynomial, centre: complex, r: float):
    """Eigenvalues of poly in |z - centre| < r: (1/2 pi i) times the integral
    of tr(P^{-1} P') dz on the circle by the 16-node trapezoid rule, or None if
    a node solve is singular or the count is off an integer or its even-node
    (8-node) sub-rule by more than 1e-2."""
    dz = r * np.exp(2j * np.pi * np.arange(16) / 16)
    z = centre + dz
    try:
        terms = dz * np.trace(np.linalg.solve(poly.eval(z), poly.eval_derivative(z)), axis1=1, axis2=2)
    except np.linalg.LinAlgError:
        return None
    full, half = np.mean(terms), np.mean(terms[::2])
    count = np.rint(full.real)
    return int(count) if abs(full - count) <= 1e-2 and abs(half - full) <= 1e-2 else None


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
    (k(P, lam) nu).  The result carries certificates naming the multiplicity
    checks that passed:
    "eigenvalue-pairing" when a contour count (no eigensolve) finds two or
    more perturbed eigenvalues within PAIRING_RTOL max(1, |lam|) of lam, not
    granted when _disc_count refuses (an eigenvalue near the disc's circle);
    "rank-drop" when s_{n-1}(Q(lam)) <= RANK_DROP_RTOL s_1(Q(lam)).
    """
    lam = complex(lam)
    x = _unit(x, "x")
    y = _unit(y, "y")
    n = poly.n
    px = poly.eval(lam)
    rx = float(np.linalg.norm(px @ x))
    ry = float(np.linalg.norm(y.conj() @ px))
    gate = 1e-8 * max(1.0, float(poly._singular_values_at(lam)[0]))
    # reject junk vectors before the derivative gates so the error names the
    # actual problem instead of a coupling artifact
    if rx > gate or ry > gate:
        raise HypothesisViolationError(
            f"(x, y) are not eigenvectors of lam = {lam}: residuals "
            f"||P(lam) x|| = {rx:.3e}, ||y* P(lam)|| = {ry:.3e} exceed {gate:.3e}")
    # remaining hypothesis gates: P'(lam) nonsingular, lam numerically simple,
    # y* P'(lam) not parallel to x*
    (_, norm_p, delta, _, nu), Pp, u_row = _derivative_frame(poly, weights, lam, x, y)
    q_row = np.linalg.solve(Pp.T, x.conj()) @ px
    q_row -= (q_row @ x) * x.conj()
    q_norm = float(np.linalg.norm(q_row))
    # the bound ||P(lam)|| / s_min(P'(lam)) is never below ||Pt'(lam)^{-1} Pt(lam)||
    if q_norm <= 1e-14 * max(1.0, norm_p / float(poly._singular_values_at(lam, 1)[-1])):
        raise HypothesisViolationError(
            "the defect direction vanishes: the first row of "
            "Pt'(lam)^{-1} Pt(lam) has no off-diagonal part")
    pu = Pp @ u_row.conj()
    w_at = weights.eval(abs(lam))
    eps_used = abs(delta) * float(np.linalg.norm(pu)) * q_norm / (nu ** 2 * w_at)
    Dhat = (delta / nu ** 2) * np.outer(pu, q_row)
    if lam == 0:
        deltas = [Dhat] + [np.zeros((n, n), dtype=complex)] * poly.m
    else:
        deltas = [(lam.conjugate() / abs(lam)) ** j * (weights.weights[j] / w_at) * Dhat
                  for j in range(poly.m + 1)]

    out = PerturbedPolynomial(base=poly, deltas=tuple(deltas),
                              eps_used=float(eps_used), weights=weights)
    certs = []
    r = PAIRING_RTOL * max(1.0, abs(lam))
    count = _disc_count(out, lam, r)
    if (count or 0) >= 2:
        certs.append("eigenvalue-pairing")
    s = singular_values(out.eval(lam))
    if n >= 2 and (s[0] == 0.0 or s[-2] <= RANK_DROP_RTOL * s[0]):
        certs.append("rank-drop")
    if not certs:
        raise PolycondError(
            "the constructed perturbation failed to certify a multiple "
            f"eigenvalue at {lam}: the contour count of perturbed eigenvalues "
            f"within {r:.3e} is {'refused' if count is None else count} "
            f"and the rank drop check found s_{n - 1}/s_1 = "
            f"{s[-2] / s[0] if n >= 2 and s[0] else 0.0:.3e}")
    # the certificates come from checks on the built polynomial, so they are
    # set in place after construction
    object.__setattr__(out, "certificates", tuple(certs))
    return out


def eigenvalue_shift_samples(poly: MatrixPolynomial, weights: WeightSet,
                             eps: float, lam: complex, samples: int, seed: int,
                             stream_base: int = 0) -> np.ndarray:
    """Distance from lam to the nearest eigenvalue of each of `samples`
    boundary perturbations, one independent stream per sample.

    The running maximum divided by eps estimates the condition number of lam
    from below as eps -> 0.
    """
    lam = complex(lam)
    out = np.empty(samples, dtype=float)
    for i in range(samples):
        vals = eigenvalues(random_perturbation(poly, eps, weights, seed, stream=stream_base + i))
        out[i] = float(np.min(np.abs(vals - lam)))
    return out
