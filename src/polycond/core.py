"""Matrix polynomials P(lam) = sum_j A_j lam^j and perturbation weights.

The polynomial is stored as the ordered coefficient list A_0..A_m with a
nonsingular leading coefficient; the weight set w_0..w_m induces the scalar
polynomial w(r) used to scale admissible perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import perm

import numpy as np

from .errors import InvalidPolynomialError, InvalidWeightsError

__all__ = [
    "MatrixPolynomial",
    "WeightSet",
    "as_complex_matrix",
    "singular_values",
    "spectral_norm",
]

# Leading coefficient counts as singular below this relative threshold.
LEADING_SINGULAR_RTOL = 1e-12


def as_complex_matrix(a, name: str = "matrix", square: bool = False) -> np.ndarray:
    """Validate and convert input to a read-only complex128 2-D array."""
    M = np.asarray(a, dtype=complex)
    if M.ndim != 2:
        raise InvalidPolynomialError(f"{name}: expected a 2-D matrix, got ndim={M.ndim}")
    if square and M.shape[0] != M.shape[1]:
        raise InvalidPolynomialError(f"{name}: expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidPolynomialError(f"{name}: entries must be finite (no NaN/Inf)")
    M = M.copy()
    M.flags.writeable = False
    return M


def singular_values(M) -> np.ndarray:
    """Singular values of M in descending order.

    The first entry is the spectral norm; for square M the last entry is
    s_min, the distance to singularity.
    """
    return np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)


def spectral_norm(M) -> float:
    """Largest singular value of M."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0 or not M.any():
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _spectral_norms(mats) -> tuple[float, ...]:
    """spectral_norm of each matrix, bitwise, from one stacked SVD."""
    return tuple(np.linalg.svd(np.stack(mats), compute_uv=False)[:, 0].tolist())


@dataclass(frozen=True)
class MatrixPolynomial:
    """Square matrix polynomial with nonsingular leading coefficient.

    Parameters
    ----------
    coeffs : sequence of (n, n) array_like
        Coefficients A_0..A_m in increasing degree order. The degree is
        taken from the list as given; a singular (or zero) A_m is a
        construction error, never a silent degree reduction.
    """

    coeffs: tuple[np.ndarray, ...]

    def __init__(self, coeffs):
        mats = [as_complex_matrix(A, name=f"coefficient A_{j}", square=True)
                for j, A in enumerate(coeffs)]
        if not mats:
            raise InvalidPolynomialError("a matrix polynomial needs at least one coefficient")
        n = mats[0].shape[0]
        for j, A in enumerate(mats):
            if A.shape != (n, n):
                raise InvalidPolynomialError(
                    f"coefficient A_{j} has shape {A.shape}, expected {(n, n)}")
        s = singular_values(mats[-1])
        if s[0] == 0.0 or s[-1] <= LEADING_SINGULAR_RTOL * s[0]:
            raise InvalidPolynomialError(
                "leading coefficient is numerically singular "
                f"(s_min={s[-1]:.3e}, s_max={s[0]:.3e})")
        object.__setattr__(self, "coeffs", tuple(mats))

    @cached_property
    def log_abs_det_leading(self) -> float:
        """log |det A_m|, from slogdet; computed once per polynomial."""
        return float(np.linalg.slogdet(self.coeffs[-1])[1])

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.coeffs[0].shape[0]

    @property
    def m(self) -> int:
        """Polynomial degree."""
        return len(self.coeffs) - 1

    def eval(self, z) -> np.ndarray:
        """P(z) by the Horner recurrence; exact A_0 at z = 0.

        z may be an array of points; the result then has shape z.shape + (n, n).
        """
        z = np.asarray(z, dtype=complex)
        acc = _horner(self.coeffs, z)
        if not z.all():
            acc[z == 0] = self.coeffs[0]
        return acc

    def eval_derivative(self, z, order: int = 1) -> np.ndarray:
        """P^(order)(z); the zero matrix for order > m, P(z) for order 0."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self.eval(z)
        if order > self.m:
            return np.zeros(np.shape(z) + (self.n, self.n), dtype=complex)
        scaled = [perm(j, order) * A for j, A in enumerate(self.coeffs) if j >= order]
        return _horner(scaled, z)

    def e_blocks(self, z) -> list[np.ndarray]:
        """E_1(z)..E_m(z), E_r(z) = sum_{j >= r} A_j z^(j-r): the Horner
        partial sums E_m = A_m, E_r = A_r + z E_{r+1} on the way to P(z)."""
        return [_horner(self.coeffs[r:], z) for r in range(1, self.m + 1)]

    def _singular_values_at(self, lam: complex, order: int = 0) -> np.ndarray:
        """Read-only singular_values(P^(order)(lam)), order 0 or 1, memoised in
        the instance __dict__ for the latest 2nm (lam, order) pairs."""
        memo = self.__dict__.setdefault("_singular_memo", {})
        key = (complex(lam), order)
        s = memo.get(key)
        if s is None:
            s = memo[key] = singular_values(self.eval_derivative(key[0], order))
            s.flags.writeable = False
            if len(memo) > 2 * self.n * self.m:
                del memo[next(iter(memo))]      # the oldest
        return s

    def norm_inf(self) -> float:
        """max_j of the spectral norm of A_j."""
        return max(self.coefficient_norms())

    def coefficient_norms(self) -> tuple[float, ...]:
        """Spectral norm of each coefficient, in degree order."""
        return _spectral_norms(self.coeffs)


@dataclass(frozen=True)
class WeightSet:
    """Nonnegative perturbation weights w_0..w_m with w_0 > 0."""

    weights: tuple[float, ...]

    def __init__(self, weights):
        w = tuple(float(x) for x in weights)
        if not w:
            raise InvalidWeightsError("a weight set needs at least one weight")
        if any(not np.isfinite(x) for x in w):
            raise InvalidWeightsError("weights must be finite")
        if any(x < 0 for x in w):
            raise InvalidWeightsError("weights must be nonnegative")
        if w[0] <= 0:
            raise InvalidWeightsError("the constant-term weight w_0 must be strictly positive")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_coefficient_norms(cls, poly: MatrixPolynomial) -> "WeightSet":
        """Default weights w_j = ||A_j||, with w_0 floored at a machine-positive
        value when ||A_0|| = 0 (the floor keeps w(r) > 0)."""
        norms = list(poly.coefficient_norms())
        if norms[0] == 0.0:
            norms[0] = np.finfo(float).tiny
        return cls(norms)

    @property
    def m(self) -> int:
        return len(self.weights) - 1

    def matches(self, poly: MatrixPolynomial) -> bool:
        return len(self.weights) == poly.m + 1

    def require_match(self, poly: MatrixPolynomial) -> None:
        if not self.matches(poly):
            raise InvalidWeightsError(
                f"weight set has {len(self.weights)} entries, "
                f"polynomial of degree {poly.m} needs {poly.m + 1}")

    def eval(self, r, order: int = 0):
        """w(r) (order 0, strictly positive) or w'(r) (order 1) for r >= 0;
        a NumPy array of r gives the array of values."""
        batch = isinstance(r, np.ndarray)
        x = np.asarray(r, dtype=float) if batch else float(r)
        if (x < 0).any() if batch else x < 0:
            raise ValueError("the weight polynomial takes nonnegative arguments")
        if order == 0:
            coeffs = self.weights
        elif order == 1:
            coeffs = tuple(j * wj for j, wj in enumerate(self.weights))[1:] or (0.0,)
        else:
            raise ValueError("only orders 0 and 1 are supported")
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return np.full(x.shape, acc) if batch else acc


def _horner(coeffs, z) -> np.ndarray:
    """sum_j C_j z^j by the recurrence S = S z + C_j, for a scalar z or
    elementwise over an array of points (shape z.shape + C.shape)."""
    z = np.asarray(z, dtype=complex)
    # a Python complex keeps NumPy's broadcasting overhead off single points
    zz = z[..., np.newaxis, np.newaxis] if z.ndim else complex(z)
    acc = np.empty(z.shape + coeffs[-1].shape, dtype=complex)
    acc[...] = coeffs[-1]
    for C in reversed(coeffs[:-1]):
        acc = acc * zz + C
    return acc


class _UnionFind:
    """Disjoint sets over hashable keys, each created on first use."""

    def __init__(self):
        self.parent = {}

    def find(self, k):
        p = self.parent.setdefault(k, k)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[k] = p
        return p

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; False if they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True
