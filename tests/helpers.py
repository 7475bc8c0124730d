"""Independent oracles and generators shared across the test suite.

Everything here recomputes quantities by a different route than the library
(naive power sums, cofactor expansions, interpolation-based root finding) so
the tests never compare an implementation against itself.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from polycond import (HypothesisViolationError, MatrixPolynomial, PseudoGrid, WeightSet, companion,
                      eigenvalues, load_problem, perturbation_rng, random_perturbation,
                      singular_values, spectral_norm)
from polycond.spectra import NEAR_SPECTRUM_RTOL

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ("p3", "p4", "p5", "p6", "p6_perturbed", "pz_zero_eig")


def load_fixture(name: str):
    return load_problem(str(FIXTURES / f"{name}.json"))


# ---------------------------------------------------------------------------
# evaluation oracles


def naive_eval(coeffs, z: complex) -> np.ndarray:
    """Power-sum evaluation sum_j A_j z^j, no Horner."""
    z = complex(z)
    out = np.zeros_like(np.asarray(coeffs[0], dtype=complex))
    for j, A in enumerate(coeffs):
        out = out + np.asarray(A, dtype=complex) * z**j
    return out


def naive_derivative(coeffs, z: complex, order: int) -> np.ndarray:
    """Term-wise derivative sum_{j>=order} j!/(j-order)! A_j z^{j-order}."""
    z = complex(z)
    out = np.zeros_like(np.asarray(coeffs[0], dtype=complex))
    for j, A in enumerate(coeffs):
        if j < order:
            continue
        c = math.factorial(j) // math.factorial(j - order)
        out = out + c * np.asarray(A, dtype=complex) * z ** (j - order)
    return out


def naive_weight(weights, r: float) -> float:
    return float(sum(w * r**j for j, w in enumerate(weights)))


# ---------------------------------------------------------------------------
# adjugate and SVD oracles


def cofactor_adjugate(M) -> np.ndarray:
    """adj(M) by explicit cofactor expansion; adj of a 1x1 matrix is [[1]]."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    adj = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(M, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def svd2_closed_form(M) -> tuple[float, float]:
    """Singular values of a 2x2 complex matrix from the eigenvalues of M*M."""
    M = np.asarray(M, dtype=complex)
    G = M.conj().T @ M
    t = float(G[0, 0].real + G[1, 1].real)
    d = float(max((G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]).real, 0.0))
    disc = math.sqrt(max(t * t - 4.0 * d, 0.0))
    hi = math.sqrt(max((t + disc) / 2.0, 0.0))
    lo = math.sqrt(max((t - disc) / 2.0, 0.0))
    return hi, lo


def singular_with_known_adjugate(rng: np.random.Generator, n: int):
    """Random n x n matrix with exactly one zero singular value.

    Returns (M, product of the n-1 nonzero singular values).
    """
    s = np.sort(rng.uniform(0.5, 3.0, size=n - 1))[::-1] if n > 1 else np.array([])
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    M = U @ np.diag(np.concatenate([s, [0.0]])) @ V.conj().T
    return M, float(np.prod(s)) if n > 1 else 1.0


# ---------------------------------------------------------------------------
# root-finding oracle


def det_poly_roots(poly: MatrixPolynomial) -> np.ndarray:
    """Roots of det P(lambda) via interpolation of the scalar determinant.

    Samples det P at nm+1 scaled roots of unity, solves for the monomial
    coefficients, and calls the classical scalar root finder. Entirely
    independent of the companion linearization.
    """
    deg = poly.n * poly.m
    radius = 1.0 + max(
        float(np.linalg.norm(np.asarray(A))) for A in poly.coeffs
    )
    nodes = radius * np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
    dets = np.array([np.linalg.det(poly.eval(z)) for z in nodes])
    V = np.vander(nodes, deg + 1, increasing=True)
    coeffs = np.linalg.solve(V, dets)
    return np.roots(coeffs[::-1])


def pair_max_distance(a, b) -> float:
    """Max matched distance between two equal-size complex multisets under
    the optimal (Hungarian) pairing."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    assert len(a) == len(b)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if len(a) else 0.0


# ---------------------------------------------------------------------------
# matrix eigenvalue condition oracle


def companion_eig_conds(poly: MatrixPolynomial):
    """Eigenvalues of the companion matrix with the classical per-eigenvalue
    condition numbers ||u|| ||v|| / |u* v| from a full left/right eigensolve."""
    import scipy.linalg

    C = companion(poly)
    vals, vl, vr = scipy.linalg.eig(C, left=True, right=True)
    conds = np.empty(len(vals))
    for i in range(len(vals)):
        u = vl[:, i]
        v = vr[:, i]
        conds[i] = np.linalg.norm(u) * np.linalg.norm(v) / abs(u.conj() @ v)
    return vals, conds


# ---------------------------------------------------------------------------
# random fixture generation


def random_polynomial(rng: np.random.Generator, n: int, m: int) -> MatrixPolynomial:
    coeffs = [
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
        for _ in range(m + 1)
    ]
    return MatrixPolynomial(coeffs)


def random_well_separated(
    rng: np.random.Generator,
    n: int,
    m: int,
    min_gap: float = 0.1,
    max_tries: int = 500,
) -> MatrixPolynomial:
    """Random polynomial whose eigenvalues are pairwise at least min_gap apart
    and whose leading coefficient is comfortably nonsingular."""
    for _ in range(max_tries):
        poly = random_polynomial(rng, n, m)
        s = np.linalg.svd(np.asarray(poly.coeffs[m]), compute_uv=False)
        if s[-1] < s[0] / 20.0:
            continue
        vals = np.linalg.eigvals(companion(poly))
        if len(vals) > 1:
            diff = np.abs(vals[:, None] - vals[None, :])
            np.fill_diagonal(diff, np.inf)
            if diff.min() < min_gap:
                continue
        if np.abs(vals).max() > 20.0:
            continue
        return poly
    raise RuntimeError(f"no well-separated polynomial found for n={n}, m={m}")


def spectral_problem(seed: int, stream: int, n: int, m: int) -> MatrixPolynomial:
    """The benchmark's seeded (n, m) problem: complex Gaussian coefficients of
    norm about 1 from perturbation_rng(seed, stream), the leading one shifted
    by 3I."""
    rng = perturbation_rng(seed, stream)
    coeffs = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
              for _ in range(m + 1)]
    coeffs[-1] = coeffs[-1] + 3.0 * np.eye(n)
    return MatrixPolynomial(coeffs)


def unit_weights(poly: MatrixPolynomial) -> WeightSet:
    return WeightSet([1.0] * (poly.m + 1))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def diagonalizable_triple(poly: MatrixPolynomial):
    """Jordan triple for a polynomial with simple eigenvalues, built from the
    companion eigendecomposition: X = top block of the eigenvector matrix,
    J = diag of eigenvalues, Y = last block column of the inverse times
    A_m^{-1}. Valid whenever the companion matrix is diagonalizable."""
    from polycond import JordanBlock, JordanTriple

    C = companion(poly)
    vals, V = np.linalg.eig(C)
    n = poly.n
    X = V[:n, :]
    W = np.linalg.inv(V)
    Y = W[:, -n:] @ np.linalg.inv(np.asarray(poly.coeffs[poly.m], dtype=complex))
    blocks = [JordanBlock(eigenvalue=complex(v), size=1) for v in vals]
    return JordanTriple(X, blocks, Y)


def simple_eigenpairs(poly: MatrixPolynomial, sp):
    """(i, lam, x, y) for the eigenvalue of every simple cluster of sp, with
    its unit right/left vectors from eig_vectors."""
    from polycond import eig_vectors

    for c in sp.clusters:
        if c.is_simple:
            i = c.indices[0]
            lam = complex(sp.eigenvalues[i])
            yield (i, lam) + eig_vectors(poly, lam, values=sp.eigenvalues)


def snap_vectors(poly: MatrixPolynomial, target: complex):
    """Nearest computed eigenvalue to target, with its right/left vectors."""
    from polycond import eig_vectors, nearest_eigenvalue, spectrum

    sp = spectrum(poly)
    lam = complex(sp.eigenvalues[nearest_eigenvalue(sp.eigenvalues, target)])
    x, y = eig_vectors(poly, lam, values=sp.eigenvalues)
    return lam, x, y


# ---------------------------------------------------------------------------
# defect perturbation oracle


def frame_defect_perturbation(poly: MatrixPolynomial, weights: WeightSet, lam: complex,
                              x, y):
    """(deltas, eps_used) of the multiple-eigenvalue perturbation built in a
    unitary frame V with V e_1 = x, completed by QR.

    With Pt = P V, M = Pt'(lam)^{-1} Pt(lam), y* Pt'(lam) = [delta, w*] and a*
    the tail of M's first row, E = (delta / w* w) [0 0; 0 w a*] and
    Dhat = Pt'(lam) E V*; eps_used = ||Dhat|| / w(|lam|) from an SVD, and Dhat
    is spread over the coefficients as defect_perturbation documents.
    """
    lam = complex(lam)
    x = np.asarray(x, dtype=complex) / np.linalg.norm(x)
    y = np.asarray(y, dtype=complex) / np.linalg.norm(y)
    n = poly.n
    A = np.eye(n, dtype=complex)
    A[:, 0] = x
    V, _ = np.linalg.qr(A)
    V[:, 0] *= complex(V[:, 0].conj() @ x)
    Ppt = poly.eval_derivative(lam) @ V
    M = np.linalg.solve(Ppt, poly.eval(lam) @ V)
    row = y.conj() @ Ppt
    delta, wvec, a_row = complex(row[0]), row[1:].conj(), M[0, 1:]
    E = np.zeros((n, n), dtype=complex)
    E[1:, 1:] = (delta / np.linalg.norm(wvec) ** 2) * np.outer(wvec, a_row)
    Dhat = Ppt @ E @ V.conj().T
    w_at = weights.eval(abs(lam))
    eps_used = float(np.linalg.svd(Dhat, compute_uv=False)[0]) / w_at
    if lam == 0:
        return [Dhat] + [np.zeros((n, n), dtype=complex)] * poly.m, eps_used
    return [(lam.conjugate() / abs(lam)) ** j * (weights.weights[j] / w_at) * Dhat
            for j in range(poly.m + 1)], eps_used


# ---------------------------------------------------------------------------
# pseudospectra oracles

# segment endpoints per marching-squares code, named by cell edge;
# inside-corner bits: 1 = (ix, iy), 2 = (ix+1, iy), 4 = (ix+1, iy+1), 8 = (ix, iy+1)
_MS_CASES = {
    1: (("left", "bottom"),),
    2: (("bottom", "right"),),
    4: (("right", "top"),),
    8: (("top", "left"),),
    3: (("left", "right"),),
    6: (("bottom", "top"),),
    12: (("right", "left"),),
    9: (("bottom", "top"),),
    7: (("left", "top"),),
    14: (("bottom", "left"),),
    13: (("right", "bottom"),),
    11: (("top", "right"),),
}
# the two diagonal codes depend on the cell center: (center inside, outside)
_MS_SADDLES = {
    5: ((("bottom", "right"), ("top", "left")),
        (("left", "bottom"), ("right", "top"))),
    10: ((("left", "bottom"), ("right", "top")),
         (("bottom", "right"), ("top", "left"))),
}


def noisy_circle_grid(n: int = 401) -> PseudoGrid:
    """|z| plus seeded noise of size 1e-2 on [-1, 1]^2 at n x n nodes, with
    gfun = |z|: at eps = 0.5 a wobbly circle, small islands and saddle
    cells, and no grid_eval run."""
    z = np.linspace(-1.0, 1.0, n) + 1j * np.linspace(-1.0, 1.0, n)[:, np.newaxis]
    values = np.abs(z) + 1e-2 * np.random.default_rng(22).standard_normal(z.shape)
    values.flags.writeable = False
    return PseudoGrid(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0, nx=n, ny=n,
                      values=values, weights=WeightSet([1.0]), poly_hash="synthetic",
                      gfun=np.abs)


def reference_contours(grid, eps):
    """Cell-by-cell marching squares over edge keys ("h" | "v", ix, iy).

    Returns (segments, labels) as contours() defines them: segments in cell
    order (row-major, real axis fastest), each an endpoint pair interpolated
    on its edge; labels dense in order of first appearance.  grid.gfun is
    called once per saddle cell, on its center, in cell order.
    """
    v = grid.values
    re, im = grid.re_axis, grid.im_axis
    inside = v <= eps
    code = (inside[:-1, :-1].astype(np.int8) | (inside[:-1, 1:] << 1)
            | (inside[1:, 1:] << 2) | (inside[1:, :-1] << 3))

    def edge_key(name, ix, iy):
        return {"bottom": ("h", ix, iy), "top": ("h", ix, iy + 1),
                "left": ("v", ix, iy), "right": ("v", ix + 1, iy)}[name]

    def edge_point(key):
        kind, ix, iy = key
        jx, jy = (ix + 1, iy) if kind == "h" else (ix, iy + 1)
        va, vb = v[iy, ix], v[jy, jx]
        za = re[ix] + 1j * im[iy]
        zb = re[jx] + 1j * im[jy]
        t = 0.0 if vb == va else (eps - va) / (vb - va)
        return za + min(1.0, max(0.0, t)) * (zb - za)

    parent = {}

    def find(k):
        while parent.setdefault(k, k) != k:
            k = parent[k]
        return k

    seg_edges = []
    for iy, ix in zip(*np.nonzero((code != 0) & (code != 15))):
        c = int(code[iy, ix])
        if c in _MS_SADDLES:
            zc = (re[ix] + re[ix + 1]) / 2 + 1j * (im[iy] + im[iy + 1]) / 2
            pairs = _MS_SADDLES[c][0 if grid.gfun(zc) <= eps else 1]
        else:
            pairs = _MS_CASES[c]
        for e1, e2 in pairs:
            k1, k2 = edge_key(e1, ix, iy), edge_key(e2, ix, iy)
            r1, r2 = find(k1), find(k2)
            if r1 != r2:
                parent[r2] = r1
            seg_edges.append((k1, k2))
    segments = [(edge_point(k1), edge_point(k2)) for k1, k2 in seg_edges]
    relabel = {}
    labels = [relabel.setdefault(find(k1), len(relabel)) for k1, _ in seg_edges]
    return segments, labels


def reference_jordan_matrix(blocks) -> np.ndarray:
    """JordanTriple.J entry by entry: each block's eigenvalue on the diagonal
    and 1.0 above it inside the block."""
    N = sum(b.size for b in blocks)
    J = np.zeros((N, N), dtype=complex)
    at = 0
    for b in blocks:
        for t in range(b.size):
            J[at + t, at + t] = b.eigenvalue
            if t + 1 < b.size:
                J[at + t, at + t + 1] = 1.0
        at += b.size
    return J


def reference_validate_jordan_triple(poly, triple, samples) -> float:
    """validate_jordan_triple one sample at a time: the largest relative
    resolvent residual over the samples not within NEAR_SPECTRUM_RTOL of the
    spectrum, refused when every sample is."""
    samples = [complex(z) for z in samples]
    if not samples:
        raise HypothesisViolationError(
            "no sample points given; the validation needs at least one")
    N = triple.size
    worst = -1.0
    skipped = []
    for z in samples:
        M = poly.eval(z)
        s = singular_values(M)
        if s[-1] <= NEAR_SPECTRUM_RTOL * s[0]:
            skipped.append(z)
            continue
        Pinv = np.linalg.inv(M)
        resolvent = triple.X @ np.linalg.solve(z * np.eye(N) - triple.J, triple.Y)
        worst = max(worst, spectral_norm(Pinv - resolvent) / spectral_norm(Pinv))
    if worst < 0:
        raise HypothesisViolationError(
            f"all {len(skipped)} samples are within tolerance of the spectrum; "
            "choose sample points away from the eigenvalues")
    return worst


def reference_contains(segments, z: complex) -> bool:
    """Scalar even-odd test: does the closed curve formed by segments, a
    sequence of complex endpoint pairs, enclose z?"""
    crossings = 0
    x, yc = z.real, z.imag
    for z1, z2 in segments:
        y1, y2 = z1.imag, z2.imag
        if (y1 > yc) == (y2 > yc):
            continue
        x_at = z1.real + (yc - y1) * (z2.real - z1.real) / (y2 - y1)
        if x_at > x:
            crossings += 1
    return crossings % 2 == 1


def reference_companion(poly: MatrixPolynomial) -> np.ndarray:
    """The companion matrix as first built: shift blocks np.eye(n(m-1)) set
    into a zero matrix, and the bottom block row from one solve against
    np.hstack of A_0..A_{m-1}."""
    n, m = poly.n, poly.m
    C = np.zeros((n * m, n * m), dtype=complex)
    C[:n * (m - 1), n:] = np.eye(n * (m - 1))
    C[(m - 1) * n:, :] = -np.linalg.solve(poly.coeffs[-1], np.hstack(poly.coeffs[:-1]))
    return C


def reference_shift_samples(poly, weights, eps, lam, samples, seed, stream_base=0) -> np.ndarray:
    """eigenvalue_shift_samples one public call at a time: the distance from
    lam to the nearest eigenvalue of random_perturbation(..., stream_base + i)."""
    return np.array([
        float(np.min(np.abs(eigenvalues(random_perturbation(
            poly, eps, weights, seed, stream=stream_base + i)) - complex(lam))))
        for i in range(samples)])
