"""Matrix polynomials P(lam) = sum_j A_j lam^j and perturbation weights.

The polynomial is stored as one (m+1, n, n) stack of the coefficients
A_0..A_m, in increasing degree, with a nonsingular leading coefficient;
the weight set w_0..w_m induces the scalar polynomial w(r) used to scale
admissible perturbations.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from math import perm

import numpy as np

from .errors import HypothesisViolationError, InvalidPolynomialError, InvalidWeightsError

__all__ = [
    "MatrixPolynomial",
    "WeightSet",
    "as_complex_matrix",
    "singular_values",
    "spectral_norm",
]

# A leading coefficient, a derivative P'(lam) or an eigenvector matrix counts
# as singular below this relative threshold (_singular).
LEADING_SINGULAR_RTOL = 1e-12
_BLOCK_BYTES = 2 ** 18      # see _blocks


def as_complex_matrix(a, name: str = "matrix", square: bool = False) -> np.ndarray:
    """a as a read-only complex128 2-D copy, read by _finite_points (InvalidPolynomialError)."""
    M = _finite_points(a, name, InvalidPolynomialError).copy()
    if M.ndim != 2:
        raise InvalidPolynomialError(f"{name}: expected a 2-D matrix, got ndim={M.ndim}")
    if square and M.shape[0] != M.shape[1]:
        raise InvalidPolynomialError(f"{name}: expected a square matrix, got shape {M.shape}")
    M.flags.writeable = False
    return M


def singular_values(M) -> np.ndarray:
    """Singular values of M (of each matrix of a stack) in descending order,
    the package's one values-only SVD.  The first entry is the spectral norm;
    for square M the last entry is s_min, the distance to singularity.  A complex
    ndarray (every internal caller's) is checked by the result, any other M by _finite_points."""
    M = M if isinstance(M, np.ndarray) and M.dtype == complex else _finite_points(M, "M")
    try:
        s = np.linalg.svd(M, compute_uv=False)
        if not np.isnan(s).any():       # an infinite entry gives NaN singular values
            return s
    except np.linalg.LinAlgError:       # a NaN entry, or fewer than two dimensions
        pass
    raise HypothesisViolationError(f"M must be a matrix or stack of finite numbers, got shape {M.shape}")


def spectral_norm(M) -> float:
    """Largest singular value of the matrix M; 0.0 for an empty matrix."""
    M = M if isinstance(M, np.ndarray) else _finite_points(M, "M")
    if M.ndim != 2:
        raise HypothesisViolationError(f"M must be a matrix, got ndim={M.ndim}")
    return float(singular_values(M)[0]) if M.size else 0.0


def _spectral_norms(mats) -> tuple[float, ...]:
    """spectral_norm of each matrix of a stack (or sequence of equal-shaped complex
    matrices, checked already and stacked as they are), bitwise, from one stacked SVD."""
    return tuple(singular_values(np.asarray(mats))[:, 0].tolist())


def _singular(s) -> bool:
    """The one rank rule: a matrix with singular values s in descending order
    is numerically singular (zero, or s_min <= LEADING_SINGULAR_RTOL s_max)."""
    return s[0] == 0.0 or s[-1] <= LEADING_SINGULAR_RTOL * s[0]


def _matrix_stack(mats, label: str, n: int | None = None) -> np.ndarray:
    """mats as one new complex (k, n, n) stack, k >= 1, with every entry finite:
    each matrix converted and checked once, in order, by as_complex_matrix; n
    defaults to the size of the first matrix.  InvalidPolynomialError names the
    first bad matrix as label.format(j)."""
    if not np.iterable(mats):
        raise InvalidPolynomialError(
            f"a matrix polynomial needs a sequence of coefficient matrices, got {mats!r}")
    mats = [as_complex_matrix(A, name=label.format(j), square=True) for j, A in enumerate(mats)]
    if not mats:
        raise InvalidPolynomialError("a matrix polynomial needs at least one coefficient")
    n = mats[0].shape[0] if n is None else n
    for j, A in enumerate(mats):
        if A.shape != (n, n):
            raise InvalidPolynomialError(f"{label.format(j)} has shape {A.shape}, expected {(n, n)}")
    return np.array(mats)


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Square matrix polynomial with nonsingular leading coefficient.

    Parameters
    ----------
    coeffs : sequence of (n, n) array_like
        Coefficients A_0..A_m in increasing degree order. The degree is
        taken from the list as given; a singular (or zero) A_m is a
        construction error, never a silent degree reduction.

    coeff_stack is the read-only (m+1, n, n) complex array of A_0..A_m and
    coeffs the tuple of its m+1 matrices (read-only views);
    leading_singular_values holds the read-only singular values of A_m in
    descending order, kept from the leading-coefficient check.
    """

    coeffs: tuple[np.ndarray, ...]

    def __init__(self, coeffs):
        self._adopt(_matrix_stack(coeffs, "coefficient A_{}"))

    def _adopt(self, stack: np.ndarray, s: np.ndarray | None = None, **fields):
        """The one construction step of every polynomial: adopt a new, checked
        complex (m+1, n, n) stack and s, the singular values of its last matrix
        (taken and put to the leading rule here when None), both made read-only,
        and set the other fields, a subclass's too.  Returns self."""
        if s is None:
            s = singular_values(stack[-1])
            if not np.isfinite(s[0]):
                raise InvalidPolynomialError(
                    "leading coefficient overflows: its spectral norm is not finite "
                    f"(s_max={s[0]:.3e})")
            if _singular(s):
                raise InvalidPolynomialError(
                    "leading coefficient is numerically singular "
                    f"(s_min={s[-1]:.3e}, s_max={s[0]:.3e})")
        stack.flags.writeable = False
        s.flags.writeable = False
        fields.update(coeff_stack=stack, coeffs=tuple(stack), leading_singular_values=s)
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

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

        z may be a NumPy array of points; the result then has shape z.shape + (n, n).
        """
        z = _points(z)
        acc = _horner(self.coeffs, z)
        if not (z.all() if isinstance(z, np.ndarray) else z):
            acc[z == 0] = self.coeffs[0]
        return acc

    def eval_derivative(self, z, order: int = 1) -> np.ndarray:
        """P^(order)(z); the zero matrix for order > m, P(z) for order 0."""
        coeffs = _derivative_coeffs(self.coeffs, order)
        return self.eval(z) if order == 0 else _horner(coeffs, _points(z))

    def e_blocks(self, z) -> list[np.ndarray]:
        """E_1(z)..E_m(z), E_r(z) = sum_{j >= r} A_j z^(j-r): the Horner
        partial sums E_m = A_m, E_r = A_r + z E_{r+1} on the way to P(z)."""
        z = _points(z)
        return [_horner(self.coeffs[r:], z) for r in range(1, self.m + 1)]

    def coefficient_norms(self) -> tuple[float, ...]:
        """Spectral norm of each coefficient, in degree order: ||A_m|| from the
        kept leading_singular_values, the others from one stacked SVD."""
        lead = (float(self.leading_singular_values[0]),)
        return _spectral_norms(self.coeff_stack[:-1]) + lead if self.m else lead


@dataclass(frozen=True)
class WeightSet:
    """Nonnegative perturbation weights w_0..w_m with w_0 > 0."""

    weights: tuple[float, ...]

    def __init__(self, weights):
        try:
            if isinstance(weights, (str, bytes)):   # its items are characters or ints
                raise TypeError(f"got {weights!r}")
            w = tuple(_require_real(x, f"w_{j}") for j, x in enumerate(weights))
        except (TypeError, HypothesisViolationError) as exc:    # TypeError: no sequence
            raise InvalidWeightsError(f"weights must be real numbers ({exc})") from None
        if not w:
            raise InvalidWeightsError("a weight set needs at least one weight")
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

    def require_match(self, poly: MatrixPolynomial) -> None:
        if len(self.weights) != poly.m + 1:
            raise InvalidWeightsError(
                f"weight set has {len(self.weights)} entries, "
                f"polynomial of degree {poly.m} needs {poly.m + 1}")

    def eval(self, r, order: int = 0):
        """w^(order)(r) for finite r >= 0 and every order >= 0: w(r) > 0 at order 0,
        zero above the degree; a NumPy array of r gives the array of values."""
        if isinstance(r, np.ndarray):
            if (x := _finite_points(r, "r")).imag.any() or (x.real < 0).any():
                raise HypothesisViolationError("r must hold finite nonnegative numbers")
            x = x.real
        else:
            x = _require_real(r, "r")
        return _horner(_derivative_coeffs(self.weights, order), x)


def _derivative_coeffs(coeffs, order: int):
    """Coefficients of the order-th derivative of sum_j C_j z^j: j!/(j - order)! C_j
    for j >= order, and one zero coefficient above the degree (C - C is +0)."""
    _require_nonnegative_ints(order=order)
    if order == 0:
        return coeffs
    return [perm(j, order) * C for j, C in enumerate(coeffs) if j >= order] or [coeffs[-1] - coeffs[-1]]


def _horner(coeffs, z):
    """sum_j C_j z^j by the recurrence S = S z + C_j, at one point z or
    elementwise over an array of points (shape z.shape + C.shape)."""
    acc = coeffs[-1]
    if isinstance(z, np.ndarray) and z.ndim:
        acc = np.full(z.shape + np.shape(acc), acc)
        z = z.reshape(z.shape + (1,) * (acc.ndim - z.ndim))
    elif isinstance(acc, np.ndarray):
        # one point: a Python complex keeps NumPy's broadcasting overhead off
        # it, and the copy keeps the in-place steps off the stored coefficient
        z, acc = complex(z), acc.copy()
    for C in coeffs[-2::-1]:
        acc *= z        # in place: no temporary stack for an array of points
        acc += C
    return acc


def _blocks(count: int, n: int) -> list[slice]:
    """Consecutive slices covering range(count), each of about _BLOCK_BYTES of
    complex n x n matrices and at least one point, so a stack over points stays bounded."""
    step = max(1, _BLOCK_BYTES // (16 * n * n))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _finite_point(z, name: str) -> complex:
    """z as a Python complex; HypothesisViolationError naming it as name when it
    is a str, bytes or bool, no number complex() takes, NaN or infinite."""
    try:
        if isinstance(z, (str, bytes, bool, np.bool_)):
            raise TypeError
        z = complex(z)
    except (TypeError, ValueError, OverflowError):
        raise HypothesisViolationError(f"{name} must be a finite number, got {z!r}") from None
    if not cmath.isfinite(z):
        raise HypothesisViolationError(f"{name} must be finite (no NaN/Inf), got {z}")
    return z


def _empty(shape, name: str, count) -> np.ndarray:
    """np.empty(shape) of floats; HypothesisViolationError naming count as name
    when NumPy cannot allocate it (its size overflows, or memory runs out)."""
    try:
        return np.empty(shape)
    except (ValueError, MemoryError):
        raise HypothesisViolationError(f"{name} is too large to allocate, got {count!r}") from None


def _points(z):
    """A NumPy array of points checked by _finite_points, else one point by _finite_point."""
    return _finite_points(z) if isinstance(z, np.ndarray) else _finite_point(z, "z")


def _is_int(value) -> bool:     # within sys.maxsize, no bool; a plain int skips the ABC check
    return ((type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral))
            and abs(value) <= sys.maxsize)


def _require_nonnegative_ints(**values) -> None:
    """Refuse, by its name, the first of values that is no integer (_is_int) or is negative."""
    for name, value in values.items():
        if not _is_int(value) or value < 0:
            raise HypothesisViolationError(f"{name} must be a nonnegative integer, got {value!r}")


def _require_real(value, name: str, positive: bool | None = False) -> float:
    """value as a float; HypothesisViolationError naming it as name when it is no
    real number a float holds (a str or bytes, a bool, a complex, a list, None,
    10**400), NaN, infinite, or negative (zero too when positive; any sign when
    positive is None)."""
    try:
        # a float skips the slower ABC check
        x = (float(value) if type(value) is float
             or isinstance(value, numbers.Real) and not isinstance(value, bool) else None)
    except OverflowError:
        x = None
    if x is None:
        raise HypothesisViolationError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(x):
        raise HypothesisViolationError(f"{name} must be finite (no NaN/Inf), got {value}")
    if positive is not None and not (x > 0 if positive else x >= 0):
        raise HypothesisViolationError(
            f"{name} must be {'positive' if positive else 'nonnegative'}, got {value}")
    return x


def _vector(v, n: int, name: str) -> np.ndarray:
    """v as a contiguous complex vector (_finite_points); HypothesisViolationError
    naming it as name unless it is one-dimensional, of n entries and nonzero."""
    v = _finite_points(v, name)
    if v.shape != (n,):
        raise HypothesisViolationError(
            f"{name} must be a vector of n = {n} entries, got {v.size if v.ndim == 1 else v.shape}")
    if not v.any():
        raise HypothesisViolationError(f"{name} must be a nonzero vector")
    return np.ascontiguousarray(v)


def _finite_points(z, name: str = "points", error=HypothesisViolationError) -> np.ndarray:
    """z as a complex array, the one conversion of a caller's array: error naming it as name
    unless it holds only finite numbers (no str, bytes or bool).  A matrix reader's error
    class (not HypothesisViolationError) gets the words "name: expected a matrix of numbers"."""
    matrix = error is not HypothesisViolationError
    try:
        a = z if isinstance(z, np.ndarray) else np.asarray(z, dtype=object)
        # NumPy reads a bool among numbers as 0 or 1: read an object array's items
        if a.dtype.kind in "SUVb" or a.dtype.kind == "O" and any(np.asarray(v).dtype.kind in "SUVb"
                for v in a.flat if type(v) not in (int, float, complex)):
            raise TypeError("an entry is a str, bytes or bool")
        z = np.asarray(z, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name}: expected a matrix of numbers ({exc})" if matrix
                    else f"{name} must be finite numbers, got {z!r}") from None
    if not np.isfinite(z).all():
        raise error(f"{name}{': entries' if matrix else ''} must be finite (no NaN/Inf)")
    return z


def _components(a, b, n: int) -> np.ndarray:
    """Connected components of the graph on nodes 0..n-1 with edges
    (a[k], b[k]): entry i of the result is the smallest node of i's component.

    Each round hooks the root of every edge end onto the other end's root when
    that one is smaller, then pointer-jumps until every node points at a root;
    it stops when every edge has the same label at both ends.
    """
    lab = np.arange(n)
    while True:
        la, lb = lab[a], lab[b]
        if np.array_equal(la, lb):
            return lab
        np.minimum.at(lab, la, lb)
        np.minimum.at(lab, lb, la)
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
