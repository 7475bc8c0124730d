"""Spectra of matrix polynomials: eigenvalues, eigenvectors, clusters,
Jordan triples, and the triple-based global condition number.

_eigensolve, the package's one eigensolve, takes a coefficient stack's
eigenvalues from its companion matrix; _count counts them in a disc by the
argument principle.  Unit right/left eigenvectors come on demand from
eig_vectors's memoised SVD of P(lam), never from companion eigenvectors;
companion_vectors synthesizes companion-level ones from (x, y).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (MatrixPolynomial, _blocks, _components, _derivative_coeffs, _finite_point,
                   _finite_points, _horner, _is_int, _require_real, _vector, as_complex_matrix,
                   singular_values, spectral_norm)
from .errors import (
    EigensolverError,
    HypothesisViolationError,
    InvalidPolynomialError,
    InvalidTripleError,
    NotAnEigenvalueError,
)
from .linearization import _companion

__all__ = [
    "EigenvalueCluster",
    "Spectrum",
    "JordanBlock",
    "JordanTriple",
    "eigenvalues",
    "spectrum",
    "cluster",
    "nearest_eigenvalue",
    "eig_vectors",
    "companion_vectors",
    "validate_jordan_triple",
]

# Default absolute tolerance for snapping a user-supplied eigenvalue guess to
# the computed spectrum, per unit of max(1, |guess|).
SNAP_RTOL = 1e-3
# validate_jordan_triple skips samples with s_min(P(z)) below this multiple
# of s_max(P(z)): they sit too close to the spectrum for a resolvent check.
NEAR_SPECTRUM_RTOL = 1e-8


def _canonical_order(values: np.ndarray) -> np.ndarray:
    """Sort by real part, then imaginary part, ties by magnitude."""
    return np.lexsort((np.abs(values), values.imag, values.real))


@dataclass(frozen=True)
class EigenvalueCluster:
    """A group of eigenvalue indices within the clustering tolerance."""

    indices: tuple[int, ...]
    center: complex

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def is_simple(self) -> bool:
        return len(self.indices) == 1


@dataclass(frozen=True, eq=False)
class Spectrum:
    """All nm eigenvalues with their multiplicity clusters at the clustering
    tolerance cluster_tol; eigenvectors are not stored, eig_vectors computes
    them on demand."""

    eigenvalues: np.ndarray
    clusters: tuple[EigenvalueCluster, ...]
    cluster_tol: float

    def cluster_of(self, i: int) -> EigenvalueCluster:
        """The cluster of eigenvalue index i; NotAnEigenvalueError unless i is
        an integer (core._is_int) in 0..nm-1."""
        if not _is_int(i):
            raise NotAnEigenvalueError(f"eigenvalue index must be an integer, got {i!r}")
        nm = len(self.eigenvalues)
        if not 0 <= i < nm:
            raise NotAnEigenvalueError(
                f"eigenvalue index {i} is out of range for a spectrum of nm = {nm} "
                f"eigenvalues (indices 0..{nm - 1})")
        return next(c for c in self.clusters if i in c.indices)


def _require_simple(spec: Spectrum, i: int) -> complex:
    """The eigenvalue lam_i of spec as a Python complex; NotAnEigenvalueError
    unless i passes Spectrum.cluster_of and lam_i is alone in its cluster."""
    c = spec.cluster_of(i)
    if not c.is_simple:
        raise NotAnEigenvalueError(
            f"eigenvalue index {i} sits in a cluster of size {c.size} "
            f"around {c.center}; a simple eigenvalue is required")
    return complex(spec.eigenvalues[i])


def _eigensolve(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of the coefficient stack A_0..A_m's companion matrix, in LAPACK's order."""
    try:
        return np.linalg.eigvals(_companion(stack))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"companion eigensolve failed: {exc}") from exc


def _count(stack: np.ndarray, centre: complex, r: float):
    """Eigenvalues in |z - centre| < r of P with coefficient stack A_0..A_m, by the trapezoid
    rule for (1/2 pi i) times the integral of tr(P^{-1} P') dz on the circle: 16 nodes, doubled
    up to 128 (each old node kept, a new one between each two) while the rule and its half-rule
    on the even nodes differ by more than 1e-2.  None if a node solve is singular or the last
    rule is off an integer or its half-rule by more than 1e-2.  Nodes are solved in the blocks
    of core._blocks."""
    dstack = _derivative_coeffs(stack, 1)
    terms = None
    for nodes in (16, 32, 64, 128):
        k = np.arange(nodes) if terms is None else np.arange(1, nodes, 2)
        dz = r * np.exp(2j * np.pi * k / nodes)
        z = centre + dz
        new = np.empty(len(k), dtype=complex)
        try:
            for b in _blocks(len(k), stack.shape[1]):
                P, Pp = _horner(stack, z[b]), _horner(dstack, z[b])
                new[b] = dz[b] * np.trace(np.linalg.solve(P, Pp), axis1=1, axis2=2)
        except np.linalg.LinAlgError:
            return None
        # the old nodes are the even nodes of the doubled rule
        terms = new if terms is None else np.column_stack([terms, new]).reshape(-1)
        full, half = np.mean(terms), np.mean(terms[::2])
        if abs(half - full) <= 1e-2:
            break
    count = np.rint(full.real)
    return int(count) if abs(full - count) <= 1e-2 and abs(half - full) <= 1e-2 else None


def eigenvalues(poly: MatrixPolynomial) -> np.ndarray:
    """The nm eigenvalues of P in canonical order (re, im, |.|)."""
    vals = _eigensolve(poly.coeff_stack)
    out = vals[_canonical_order(vals)]
    out.flags.writeable = False
    return out


def _values(values) -> np.ndarray:
    """values as a 1-D complex array of finite numbers (core._finite_points)."""
    if (v := _finite_points(values, "values")).ndim != 1:
        raise HypothesisViolationError(f"values must be one-dimensional, got ndim={v.ndim}")
    return v


def cluster(values, tol: float) -> tuple[EigenvalueCluster, ...]:
    """Partition indices by the transitive closure of |v_i - v_j| <= tol.

    Cluster centers are means; clusters are ordered canonically by center.
    """
    tol = _require_real(tol, "clustering tolerance", positive=True)
    v = _values(values)
    k = len(v)
    # |v_i - v_j| <= tol implies the real parts are within 2 tol: sort on the
    # real part and test each position against the window that follows it
    by_re = np.argsort(v.real, kind="stable")
    re = v.real[by_re]
    width = np.searchsorted(re, re + 2 * tol, side="right") - np.arange(1, k + 1)
    first = np.repeat(np.arange(k), width)
    offset = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
    i, j = by_re[first], by_re[first + 1 + offset]
    d = v[i] - v[j]
    close = np.hypot(d.real, d.imag) <= tol     # bitwise the scalar abs()
    # group by smallest member; the stable sort keeps each group ascending
    label = _components(i[close], j[close], k)
    by_label = np.argsort(label, kind="stable")
    groups = np.split(by_label, np.flatnonzero(np.diff(label[by_label])) + 1) if k else []
    clusters = [
        EigenvalueCluster(indices=tuple(g.tolist()), center=complex(np.mean(v[g])))
        for g in groups
    ]
    return tuple(clusters[i] for i in _canonical_order(np.array([c.center for c in clusters])))


def spectrum(poly: MatrixPolynomial, cluster_tol: float | None = None) -> Spectrum:
    """Eigenvalues and multiplicity clusters; cluster_tol defaults to the
    scale-aware 1e-6 times max(1, spectral radius)."""
    vals = eigenvalues(poly)
    tol = (1e-6 * max(1.0, float(np.max(np.abs(vals), initial=0.0))) if cluster_tol is None
           else _require_real(cluster_tol, "clustering tolerance", positive=True))
    return Spectrum(eigenvalues=vals, clusters=cluster(vals, tol), cluster_tol=tol)


def nearest_eigenvalue(values, lam: complex, tol: float | None = None) -> int:
    """Index of the computed eigenvalue nearest lam; error if farther than tol."""
    v = _values(values)
    if len(v) == 0:
        raise NotAnEigenvalueError("the spectrum is empty")
    lam = _finite_point(lam, "lam")
    tol = SNAP_RTOL * max(1.0, abs(lam)) if tol is None else _require_real(tol, "tol")
    i = int(np.argmin(np.abs(v - lam)))
    gap = abs(v[i] - lam)
    if not gap <= tol:
        raise NotAnEigenvalueError(
            f"{lam} is not within {tol:.3e} of the computed spectrum "
            f"(nearest eigenvalue {v[i]} at distance {gap:.3e})")
    return i


class _PointSVDs(NamedTuple):
    """The read-only SVD data that the routes read at one point lam."""
    s: np.ndarray       # singular values of P(lam), descending, from one full SVD
    x: np.ndarray       # with y, the right and left singular vectors of s_min
    y: np.ndarray
    sp: np.ndarray      # singular values of P'(lam)


# per polynomial, the _PointSVDs of its latest nm points, oldest first; every
# read, insert and eviction holds the lock, and no SVD is taken under it
_SVD_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_SVD_LOCK = threading.Lock()


def _svds_at(poly: MatrixPolynomial, lam: complex) -> _PointSVDs:
    """The _PointSVDs of poly at lam, memoised for the latest nm points of
    each polynomial (none for degree 0); safe to call from several threads."""
    lam = complex(lam)
    with _SVD_LOCK:
        entry = _SVD_MEMO.get(poly, {}).get(lam)
    if entry is None:
        U, s, Vh = np.linalg.svd(poly.eval(lam))
        entry = _PointSVDs(s, Vh[-1].conj(), U[:, -1].copy(),     # O(n) kept, not U
                           singular_values(poly.eval_derivative(lam)))
        for a in entry:
            a.flags.writeable = False
        with _SVD_LOCK:
            memo = _SVD_MEMO.setdefault(poly, {})
            memo[lam] = entry
            if len(memo) > poly.n * poly.m:
                del memo[next(iter(memo))]      # the oldest
    return entry


def eig_vectors(poly: MatrixPolynomial, lam: complex, tol: float | None = None,
                values: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Unit right/left eigenvectors of P at the eigenvalue nearest lam.

    lam is snapped to the nearest computed eigenvalue within tol (default
    1e-3 * max(1, |lam|)); x and y are copies of the right/left singular
    vectors of s_min(P(lam0)) at the snapped eigenvalue lam0, from the SVD of
    P(lam0) that _svds_at memoises, so ||P(lam0) x|| = s_min(P(lam0)).
    """
    lam = _finite_point(lam, "lam")     # before the eigensolve
    vals = eigenvalues(poly) if values is None else _values(values)
    pair = _svds_at(poly, vals[nearest_eigenvalue(vals, lam, tol)])
    return pair.x.copy(), pair.y.copy()


def companion_vectors(poly: MatrixPolynomial, lam: complex, x: np.ndarray,
                      y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(right, left) eigenvectors of the companion matrix synthesized from an
    eigenpair (x, y) of P: right = [x; lam x; ...; lam^{m-1} x], left with
    blocks E_r(lam)* y; they satisfy left* right = y* P'(lam) x.  x and y are nonzero
    vectors of n entries (core._vector); the result depends on their values, not layout."""
    return _lift(poly, _finite_point(lam, "lam"), _vector(x, poly.n, "x"), _vector(y, poly.n, "y"))


def _lift(poly: MatrixPolynomial, lam: complex, x: np.ndarray, y: np.ndarray):
    """companion_vectors of a checked lam, x and y."""
    return (np.concatenate([lam ** r * x for r in range(poly.m)]),
            np.concatenate([E.conj().T @ y for E in poly.e_blocks(lam)]))


@dataclass(frozen=True)
class JordanBlock:
    """One Jordan block: its finite eigenvalue and dimension."""

    eigenvalue: complex
    size: int

    def __post_init__(self):
        try:
            _finite_point(self.eigenvalue, "eigenvalue")
            valid = _is_int(self.size) and self.size >= 1
        except HypothesisViolationError:
            valid = False
        if not valid:
            raise InvalidTripleError(
                f"a Jordan block needs a positive size and a finite eigenvalue, got {self}")


@dataclass(frozen=True, eq=False)
class JordanTriple:
    """A triple (X, J, Y) with J given by its block structure.

    X is n x N, Y is N x n with N = n*m for a degree-m polynomial of
    dimension n; the stacked matrix [X; XJ; ...; XJ^{m-1}] must be
    nonsingular for the triple to be valid.
    """

    X: np.ndarray
    blocks: tuple[JordanBlock, ...]
    Y: np.ndarray

    def __init__(self, X, blocks, Y):
        try:
            X, Y = as_complex_matrix(X, name="X"), as_complex_matrix(Y, name="Y")
        except InvalidPolynomialError as exc:     # a matrix refusal's words, a triple's class
            raise InvalidTripleError(str(exc)) from None
        blocks = tuple(b if isinstance(b, JordanBlock) else JordanBlock(*b) for b in blocks)
        if not blocks:
            raise InvalidTripleError("a Jordan triple needs at least one block")
        n = X.shape[0]
        N = sum(b.size for b in blocks)
        if X.shape != (n, N):
            raise InvalidTripleError(f"X has shape {X.shape}, blocks total {N} columns")
        if Y.shape != (N, n):
            raise InvalidTripleError(f"Y has shape {Y.shape}, expected {(N, n)}")
        if N % n != 0:
            raise InvalidTripleError(
                f"total block size {N} is not a multiple of the dimension {n}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "Y", Y)
        s = singular_values(self.stacked())
        if s[-1] <= 1e-10 * s[0]:
            raise InvalidTripleError(
                "stacked matrix [X; XJ; ...] is numerically singular "
                f"(s_min/s_max = {s[-1] / s[0]:.3e})")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def size(self) -> int:
        return self.X.shape[1]

    @property
    def m(self) -> int:
        return self.size // self.n

    @property
    def J(self) -> np.ndarray:
        """The Jordan matrix assembled from the block metadata."""
        sizes = [b.size for b in self.blocks]
        J = np.diag(np.repeat([b.eigenvalue for b in self.blocks], sizes).astype(complex))
        # 1 above the diagonal except in the last row of each block
        rows = np.flatnonzero(np.arange(self.size) < np.repeat(np.cumsum(sizes) - 1, sizes))
        J[rows, rows + 1] = 1.0
        return J

    @property
    def max_block_size(self) -> int:
        return max(b.size for b in self.blocks)

    @cached_property
    def norm_product(self) -> float:
        """||X|| ||Y||, the global eigenproblem condition number; computed once per triple."""
        return spectral_norm(self.X) * spectral_norm(self.Y)

    def stacked(self) -> np.ndarray:
        """[X; XJ; ...; XJ^{m-1}], the invertibility witness."""
        J = self.J
        rows = [self.X]
        for _ in range(self.m - 1):
            rows.append(rows[-1] @ J)
        return np.vstack(rows)


def _check_triple_shape(poly: MatrixPolynomial, triple: JordanTriple) -> None:
    """InvalidTripleError unless triple is n x nm for poly's n and m."""
    if triple.n != poly.n or triple.size != poly.n * poly.m:
        raise InvalidTripleError(
            f"triple of size {triple.size} over C^{triple.n} does not match a "
            f"polynomial with n = {poly.n}, m = {poly.m} (needs size {poly.n * poly.m})")


def validate_jordan_triple(poly: MatrixPolynomial, triple: JordanTriple,
                           samples) -> float:
    """Max over samples of the relative resolvent residual
    ||P(z)^{-1} - X (zI - J)^{-1} Y|| / ||P(z)^{-1}||, as s_min(P(z)) ||P(z)^{-1} - X (zI - J)^{-1} Y||.

    Samples with s_min(P(z)) <= NEAR_SPECTRUM_RTOL * s_max(P(z)) sit too
    close to the spectrum and are skipped; if every sample is skipped the
    validation fails, as it does for a NaN or infinite sample.  Samples are
    taken in blocks (core._blocks), two SVD calls each.
    """
    _check_triple_shape(poly, triple)
    z = _finite_points(list(samples)) if np.iterable(samples) and not isinstance(samples, bytes) else None
    if z is None or z.ndim != 1:
        raise HypothesisViolationError(f"samples must be a sequence of points, got {samples!r}")
    if not len(z):
        raise HypothesisViolationError(
            "no sample points given; the validation needs at least one")
    J, ratios = triple.J, []
    for b in _blocks(len(z), triple.size):
        M = poly.eval(z[b])
        s = singular_values(M)
        far = s[:, -1] > NEAR_SPECTRUM_RTOL * s[:, 0]
        zf, Pinv = z[b][far], np.linalg.inv(M[far])
        if (on_j := zf[np.isin(zf, [blk.eigenvalue for blk in triple.blocks])]).size:
            raise InvalidTripleError(
                f"sample {on_j[0]} is an eigenvalue of the triple's J but not of P")
        zI = zf[:, np.newaxis, np.newaxis] * np.eye(triple.size)
        # Y as a stack of one matrix, which NumPy 1.x would otherwise read as vectors
        resolvent = triple.X @ np.linalg.solve(zI - J, triple.Y[np.newaxis])
        ratios.append(s[far, -1] * singular_values(Pinv - resolvent)[:, 0])
    if not any(r.size for r in ratios):
        raise HypothesisViolationError(
            f"all {len(z)} samples are within tolerance of the spectrum; "
            "choose sample points away from the eigenvalues")
    return float(np.max(np.concatenate(ratios)))
