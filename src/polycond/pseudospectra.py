"""Weighted pseudospectra on rectangular grids.

The scalar field is g(z) = s_min(P(z)) / w(|z|); the eps-pseudospectrum is the
sublevel set {g <= eps}, whose boundary is extracted as marching-squares
segments.  Saddle cells are resolved by sampling g at the cell centers, so the
extraction is deterministic and refines with the grid.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (MatrixPolynomial, WeightSet, _blocks, _components, _empty, _finite_point,
                   _finite_points, _is_int, _require_real, singular_values)
from .errors import ContainmentError, HypothesisViolationError

__all__ = [
    "PseudoGrid",
    "ContourSet",
    "boundedness_check",
    "grid_eval",
    "contours",
    "component_vertices",
    "disc_deviation",
    "fitted_radius",
    "sublevel_component_count",
]


def _problem_hash(poly: MatrixPolynomial, weights: WeightSet) -> str:
    """Content hash tying a grid to the exact polynomial and weights."""
    h = hashlib.sha256()
    h.update(f"n={poly.n};m={poly.m};".encode())
    for A in poly.coeffs:
        h.update(np.ascontiguousarray(A).tobytes())
    h.update(repr(weights.weights).encode())
    return h.hexdigest()


@dataclass(frozen=True, eq=False)
class PseudoGrid:
    """g sampled on a rectangular grid.

    values[iy, ix] = g(re[ix] + i im[iy]); flattened storage is row-major with
    the real axis fastest.  im_axis is exactly antisymmetric on a box with
    im_min == -im_max (_im_axis), so a real polynomial's values there are
    symmetric, values == values[::-1].  gfun re-evaluates g off-grid at an
    array of points (saddle resolution) and returns the array of values.
    Instances compare by identity (compare the values with np.array_equal).
    values must be a finite real float array of shape (ny, nx), checked as
    given, without a copy (HypothesisViolationError).
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int
    values: np.ndarray
    weights: WeightSet
    poly_hash: str
    gfun: object = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        v = self.values
        shape = (self.ny, self.nx)
        if not (isinstance(v, np.ndarray) and v.dtype.kind == "f" and v.shape == shape):
            got = (f"a {v.dtype} array of shape {v.shape}" if isinstance(v, np.ndarray)
                   else type(v).__name__)
            raise HypothesisViolationError(
                f"values must be a real float array of shape (ny, nx) = {shape}, got {got}")
        if not np.isfinite(v).all():
            raise HypothesisViolationError("values must be finite (no NaN/Inf)")

    @property
    def re_axis(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    @property
    def im_axis(self) -> np.ndarray:
        return _im_axis(self.im_min, self.im_max, self.ny)


def _im_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n), made exactly antisymmetric when lo == -hi: the
    upper half is the negated lower half, and an odd middle node is 0.0."""
    axis = np.linspace(lo, hi, n)
    if lo == -hi:
        half = n // 2
        axis[n - half:] = -axis[:half][::-1]
        if n % 2:
            axis[half] = 0.0
    return axis


def boundedness_check(poly: MatrixPolynomial, weights: WeightSet, eps: float) -> bool:
    """True iff eps * w_m < s_min(A_m) strictly, which certifies that the
    eps-pseudospectrum is bounded."""
    weights.require_match(poly)
    eps = _require_real(eps, "eps")
    return bool(eps * weights.weights[-1] < poly.leading_singular_values[-1])


def _g_batch(poly: MatrixPolynomial, weights: WeightSet, z: np.ndarray) -> np.ndarray:
    """g at every entry of an array of finite points (core._finite_points), SVDs
    batched over the blocks of core._blocks of the flattened points."""
    z = _finite_points(z, "z")
    flat = z.reshape(-1)
    smin = np.empty(flat.shape)
    for b in _blocks(flat.size, poly.n):
        smin[b] = singular_values(poly.eval(flat[b]))[:, -1]
    return smin.reshape(z.shape) / weights.eval(np.abs(z))


def grid_eval(poly: MatrixPolynomial, weights: WeightSet, box, resolution,
              threads: int = 1) -> PseudoGrid:
    """Evaluate g on box = (re_min, re_max, im_min, im_max).

    resolution is (nx, ny) or a single int for both; the box edges must be
    finite.  Nodes are evaluated in row-major blocks of about 256 KiB of n x n
    matrices (core._blocks); each of min(threads, blocks, cores) workers, the
    calling thread and threads - 1 pool threads at most, takes the next
    unprocessed block until none is left.  Every node is independent, so the
    result is identical for any thread count, and memory beyond `values` is
    one block per worker at any resolution; threads=1 starts no thread.

    For a polynomial with real coefficients, g(conj z) = g(z).  On a box with
    im_min == -im_max, whose imaginary nodes are exactly antisymmetric
    (_im_axis), only rows 0..ceil(ny/2)-1 are evaluated, and row ny-1-k is
    copied from row k: the same bits as evaluating it.
    """
    weights.require_match(poly)
    edges = tuple(box) if np.iterable(box) else ()
    if len(edges) != 4:
        raise HypothesisViolationError("box must be four real numbers "
                                       f"(re_min, re_max, im_min, im_max), got {box!r}")
    re_min, re_max, im_min, im_max = (_require_real(v, "box edge", positive=None) for v in edges)
    if not (re_min <= re_max and im_min <= im_max):
        raise HypothesisViolationError(f"empty bounding box {box}")
    pair = tuple(resolution) if np.iterable(resolution) else (resolution,) * 2
    if len(pair) != 2 or not all(_is_int(k) and k >= 1 for k in pair):
        raise HypothesisViolationError(
            f"resolution must be a positive integer or a pair of them, got {resolution!r}")
    nx, ny = pair
    if not _is_int(threads):
        raise HypothesisViolationError(f"threads must be an integer, got {threads!r}")
    values = _empty((ny, nx), "resolution", resolution)     # before the axes: the largest array
    re = np.linspace(re_min, re_max, nx)
    im = _im_axis(im_min, im_max, ny)
    mirror = im_min == -im_max and not poly.coeff_stack.imag.any()
    rows = (ny + 1) // 2 if mirror else ny
    flat = values[:rows].reshape(-1)

    blocks = _blocks(flat.size, poly.n)
    workers = min(max(1, threads), len(blocks), os.cpu_count() or 1)
    todo, lock = iter(blocks), threading.Lock()

    def work():
        # take the next unprocessed block until none is left
        while True:
            with lock:
                s = next(todo, None)
            if s is None:
                return
            iy, ix = np.divmod(np.arange(s.start, s.stop), nx)
            flat[s] = _g_batch(poly, weights, re[ix] + 1j * im[iy])

    # the caller is one of the workers, so the pool starts workers - 1 threads
    # (none for one worker); leaving it joins them, and result() re-raises
    # an error from any of them
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        others = [pool.submit(work) for _ in range(workers - 1)]
        work()
        for f in others:
            f.result()
    for k in range(ny - rows):      # one row at a time: no half-grid temporary
        values[ny - 1 - k] = values[k]
    values.flags.writeable = False
    return PseudoGrid(
        re_min=re_min, re_max=re_max, im_min=im_min, im_max=im_max,
        nx=nx, ny=ny, values=values, weights=weights,
        poly_hash=_problem_hash(poly, weights),
        gfun=lambda z: _g_batch(poly, weights, z))


@dataclass(frozen=True, eq=False)
class ContourSet:
    """Level-set segments of g = eps with connectivity labels.

    segments is a read-only (k, 2) complex array: row i holds the two
    endpoints of segment i, lying on cell edges.  labels is a read-only (k,)
    integer array: labels[i] is the connected-component id of segment i
    (dense, in order of first appearance).  clipped is a read-only
    (n_components,) bool array: clipped[j] says the box cuts component j, an
    open curve.  diagnostic is nonempty when the set is empty by level
    mismatch rather than by geometry.  Instances compare by identity.
    """

    eps: float
    segments: np.ndarray
    labels: np.ndarray
    clipped: np.ndarray
    diagnostic: str = ""

    @property
    def n_components(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


# segment endpoints per marching-squares code, as cell edges 0 = bottom,
# 1 = right, 2 = top, 3 = left; inside-corner bits: 1 = (ix, iy),
# 2 = (ix+1, iy), 4 = (ix+1, iy+1), 8 = (ix, iy+1).  The diagonal codes 5 and
# 10 depend on the cell center: rows 16 (code 5 with the center inside, or 10
# with it outside) and 17 (the other two) hold their two pairings.
_CASES = {
    1: ((3, 0),), 2: ((0, 1),), 4: ((1, 2),), 8: ((2, 3),),
    3: ((3, 1),), 6: ((0, 2),), 12: ((1, 3),), 9: ((0, 2),),
    7: ((3, 2),), 14: ((0, 3),), 13: ((1, 0),), 11: ((2, 1),),
    16: ((0, 1), (2, 3)), 17: ((3, 0), (1, 2)),
}
_NSEG = np.array([len(_CASES.get(c, ())) for c in range(18)])
_PAIRS = np.array([(_CASES.get(c, ()) + ((0, 0), (0, 0)))[:2] for c in range(18)])
# per edge name: offset of its first node from the cell's (ix, iy) node, and
# whether it is vertical (its second node is above the first, else right)
_EDGE_DX = np.array([0, 1, 0, 0])
_EDGE_DY = np.array([0, 0, 1, 0])
_EDGE_VERTICAL = np.array([0, 1, 0, 1])


def contours(grid: PseudoGrid, eps: float) -> ContourSet:
    """Marching-squares extraction of the level g = eps.

    Endpoints are linearly interpolated along cell edges and shared between
    neighboring cells, so component labels follow true connectivity.  Edges
    carry integer ids: horizontal edge (ix, iy) is iy (nx - 1) + ix, vertical
    edge (ix, iy) is ny (nx - 1) + iy nx + ix.
    """
    eps = _require_real(eps, "eps", positive=True)
    v = grid.values
    vmin, vmax = float(v.min()), float(v.max())
    diagnostic = (f"eps={eps:g} is below the grid minimum {vmin:g}" if eps < vmin else
                  f"eps={eps:g} is above the grid maximum {vmax:g}" if eps > vmax else "")
    re = grid.re_axis
    im = grid.im_axis
    nx, ny = grid.nx, grid.ny
    # one byte per node and per code: 0-15, and 16 or 17 for a resolved saddle
    inside = (v <= eps).view(np.uint8)
    code = (inside[:-1, :-1]
            | (inside[:-1, 1:] << 1)
            | (inside[1:, 1:] << 2)
            | (inside[1:, :-1] << 3)).reshape(-1)
    cells = np.flatnonzero((code != 0) & (code != 15))
    case = code[cells]
    saddle = np.flatnonzero((case == 5) | (case == 10))
    if saddle.size:
        iy, ix = np.divmod(cells[saddle], nx - 1)
        zc = (re[ix] + re[ix + 1]) / 2 + 1j * (im[iy] + im[iy + 1]) / 2
        case[saddle] = np.where((case[saddle] == 5) == (grid.gfun(zc) <= eps), 16, 17)

    # one row per segment, in cell order; columns are its two endpoint edges
    nseg = _NSEG[case]
    first = np.repeat(np.cumsum(nseg) - nseg, nseg)
    edge = _PAIRS[np.repeat(case, nseg), np.arange(first.size) - first]
    iy, ix = np.divmod(np.repeat(cells, nseg)[:, np.newaxis], nx - 1)
    ax, ay = ix + _EDGE_DX[edge], iy + _EDGE_DY[edge]
    vert = _EDGE_VERTICAL[edge]
    bx, by = ax + 1 - vert, ay + vert
    ids = np.where(vert == 1, ny * (nx - 1) + ay * nx + ax, ay * (nx - 1) + ax)

    va, vb = v[ay, ax], v[by, bx]
    za = re[ax] + 1j * im[ay]
    zb = re[bx] + 1j * im[by]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(vb == va, 0.0, (eps - va) / (vb - va))
    # min(1, max(0, t)) with Python's semantics: 0 for NaN and for -0.0
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    pts = za + t * (zb - za)

    # edges as graph nodes; an edge bounds two segments, or one if on the box
    edges, node = np.unique(ids, return_inverse=True)
    node = node.reshape(ids.shape)
    roots = _components(node[:, 0], node[:, 1], edges.size)[node[:, 0]]
    # dense labels in order of first appearance: rank of each root's first row
    _, first, inverse = np.unique(roots, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[inverse]
    on_box = np.bincount(node.reshape(-1)) == 1
    clipped = np.zeros(first.size, dtype=bool)
    clipped[labels[on_box[node].any(axis=1)]] = True
    return ContourSet(eps=eps, segments=_read_only(pts), labels=_read_only(labels),
                      clipped=_read_only(clipped), diagnostic=diagnostic)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _contains(contour: ContourSet, z: complex) -> np.ndarray:
    """Even-odd test per component: entry i says whether the closed curve
    formed by the segments labelled i encloses z."""
    y1, y2 = contour.segments.imag.T
    cut = (y1 > z.imag) != (y2 > z.imag)
    (z1, z2), y1, y2 = contour.segments[cut].T, y1[cut], y2[cut]
    x_at = z1.real + (z.imag - y1) * (z2.real - z1.real) / (y2 - y1)
    hits = contour.labels[cut][x_at > z.real]
    return np.bincount(hits, minlength=contour.n_components) % 2 == 1


def component_vertices(contour: ContourSet, center: complex) -> np.ndarray:
    """Unique segment endpoints of the first unclipped component (by label)
    that encloses center."""
    center = _finite_point(center, "center")
    passes = _contains(contour, center)
    enclosing = np.flatnonzero(passes & ~contour.clipped)
    if not enclosing.size and passes.any():
        raise ContainmentError(
            f"the contour component at eps={contour.eps:g} around {center} is cut "
            "by the box, an open curve that encloses nothing")
    if not enclosing.size:
        raise ContainmentError(
            f"no contour component at eps={contour.eps:g} encloses {center} "
            f"({contour.n_components} components present)")
    return np.unique(contour.segments[contour.labels == enclosing[0]])


def disc_deviation(contour: ContourSet, center: complex, radius: float) -> float:
    """Worst relative deviation of the enclosing component from the circle
    |z - center| = radius: max over its vertices of ||v - center| - radius|,
    normalized by radius."""
    radius = _require_real(radius, "radius", positive=True)
    center = _finite_point(center, "center")
    verts = component_vertices(contour, center)
    return float(np.max(np.abs(np.abs(verts - center) - radius)) / radius)


def fitted_radius(contour: ContourSet, center: complex) -> float:
    """Median distance from center to the enclosing component's vertices;
    robust to corner discretization."""
    center = _finite_point(center, "center")
    verts = component_vertices(contour, center)
    return float(np.median(np.abs(verts - center)))


def sublevel_component_count(grid: PseudoGrid, eps: float) -> int:
    """Number of 4-connected components of {g <= eps} on the grid.

    Each row run of the mask is a node.  Two runs in adjacent rows overlap in
    one interval, a run of the columns masked in both rows, and are joined by
    one edge at its first column.
    """
    eps = _require_real(eps, "eps", positive=True)
    mask = grid.values <= eps
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    run = np.cumsum(starts, dtype=np.min_scalar_type(mask.size)).reshape(mask.shape)
    run -= 1        # run id where mask; the wrap where no run has started is never read
    both = mask[:-1] & mask[1:]
    both[:, 1:] &= ~both[:, :-1]
    n = int(starts.sum())
    return int(np.count_nonzero(_components(run[:-1][both], run[1:][both], n) == np.arange(n)))
