"""Weighted pseudospectra on rectangular grids.

The scalar field is g(z) = s_min(P(z)) / w(|z|); the eps-pseudospectrum is the
sublevel set {g <= eps}, whose boundary is extracted as marching-squares
segments.  Saddle cells are resolved by sampling g at the cell center, so the
extraction is deterministic and refines with the grid.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import MatrixPolynomial, WeightSet, _UnionFind, singular_values
from .errors import ContainmentError, HypothesisViolationError

__all__ = [
    "PseudoGrid",
    "ContourSet",
    "problem_hash",
    "boundedness_check",
    "grid_eval",
    "contours",
    "component_vertices",
    "disc_deviation",
    "fitted_radius",
    "sublevel_component_count",
]


def problem_hash(poly: MatrixPolynomial, weights: WeightSet) -> str:
    """Content hash tying a grid to the exact polynomial and weights."""
    h = hashlib.sha256()
    h.update(f"n={poly.n};m={poly.m};".encode())
    for A in poly.coeffs:
        h.update(np.ascontiguousarray(A).tobytes())
    h.update(repr(weights.weights).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class PseudoGrid:
    """g sampled on a rectangular grid.

    values[iy, ix] = g(re[ix] + i im[iy]); flattened storage is row-major with
    the real axis fastest.  gfun re-evaluates g off-grid (saddle resolution).
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

    @property
    def re_axis(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    @property
    def im_axis(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)

    def nodes(self) -> np.ndarray:
        """Complex node coordinates, shape (ny, nx)."""
        re = self.re_axis
        im = self.im_axis
        return re[np.newaxis, :] + 1j * im[:, np.newaxis]


def boundedness_check(poly: MatrixPolynomial, weights: WeightSet, eps: float) -> bool:
    """True iff eps * w_m < s_min(A_m) strictly, which certifies that the
    eps-pseudospectrum is bounded."""
    weights.require_match(poly)
    s_min = singular_values(poly.coeffs[-1])[-1]
    return bool(eps * weights.weights[-1] < s_min)


def _g_batch(poly: MatrixPolynomial, weights: WeightSet, z: np.ndarray) -> np.ndarray:
    """g at every entry of a complex array, SVDs batched."""
    smin = np.linalg.svd(poly.eval(z), compute_uv=False)[..., -1]
    return smin / weights.eval(np.abs(z))


def grid_eval(poly: MatrixPolynomial, weights: WeightSet, box, resolution,
              threads: int = 1) -> PseudoGrid:
    """Evaluate g on box = (re_min, re_max, im_min, im_max).

    resolution is (nx, ny) or a single int for both.  Rows are dealt to
    threads in chunks; every node is independent, so the result is identical
    for any thread count.
    """
    weights.require_match(poly)
    re_min, re_max, im_min, im_max = (float(v) for v in box)
    if not (re_min <= re_max and im_min <= im_max):
        raise HypothesisViolationError(f"empty bounding box {box}")
    if np.isscalar(resolution):
        nx = ny = int(resolution)
    else:
        nx, ny = (int(v) for v in resolution)
    if nx < 1 or ny < 1:
        raise HypothesisViolationError(f"resolution must be positive, got {(nx, ny)}")
    re = np.linspace(re_min, re_max, nx)
    im = np.linspace(im_min, im_max, ny)
    Z = re[np.newaxis, :] + 1j * im[:, np.newaxis]
    values = np.empty((ny, nx), dtype=float)
    threads = max(1, int(threads))
    if threads == 1 or ny == 1:
        values[:] = _g_batch(poly, weights, Z)
    else:
        chunk = max(1, -(-ny // threads))
        spans = [(i, min(i + chunk, ny)) for i in range(0, ny, chunk)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            def work(span):
                lo, hi = span
                values[lo:hi] = _g_batch(poly, weights, Z[lo:hi])
            list(pool.map(work, spans))
    values.flags.writeable = False
    return PseudoGrid(
        re_min=re_min, re_max=re_max, im_min=im_min, im_max=im_max,
        nx=nx, ny=ny, values=values, weights=weights,
        poly_hash=problem_hash(poly, weights),
        gfun=lambda z: float(_g_batch(poly, weights, z)))


@dataclass(frozen=True)
class ContourSet:
    """Level-set segments of g = eps with connectivity labels.

    segments[i] is a pair of complex endpoints lying on cell edges; labels[i]
    is the connected-component id of that segment (dense, in order of first
    appearance).  diagnostic is nonempty when the set is empty by level
    mismatch rather than by geometry.
    """

    eps: float
    segments: tuple
    labels: tuple
    diagnostic: str = ""

    @property
    def n_components(self) -> int:
        return len(set(self.labels))


# segment endpoints per marching-squares code, named by cell edge;
# inside-corner bits: 1 = (ix, iy), 2 = (ix+1, iy), 4 = (ix+1, iy+1), 8 = (ix, iy+1)
_CASES = {
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
# the two diagonal codes depend on the cell center: value = (center inside,
# center outside)
_SADDLES = {
    5: ((("bottom", "right"), ("top", "left")),
        (("left", "bottom"), ("right", "top"))),
    10: ((("left", "bottom"), ("right", "top")),
         (("bottom", "right"), ("top", "left"))),
}


def contours(grid: PseudoGrid, eps: float) -> ContourSet:
    """Marching-squares extraction of the level g = eps.

    Endpoints are linearly interpolated along cell edges and shared between
    neighboring cells, so component labels follow true connectivity.
    """
    if eps <= 0:
        raise HypothesisViolationError(f"eps must be positive, got {eps}")
    v = grid.values
    vmin, vmax = float(v.min()), float(v.max())
    if eps < vmin:
        return ContourSet(eps=eps, segments=(), labels=(),
                          diagnostic=f"eps={eps:g} is below the grid minimum {vmin:g}")
    if eps > vmax:
        return ContourSet(eps=eps, segments=(), labels=(),
                          diagnostic=f"eps={eps:g} is above the grid maximum {vmax:g}")
    re = grid.re_axis
    im = grid.im_axis
    inside = v <= eps
    code = (inside[:-1, :-1].astype(np.int8)
            | (inside[:-1, 1:] << 1)
            | (inside[1:, 1:] << 2)
            | (inside[1:, :-1] << 3))
    iys, ixs = np.nonzero((code != 0) & (code != 15))

    def edge_key(name, ix, iy):
        if name == "bottom":
            return ("h", ix, iy)
        if name == "top":
            return ("h", ix, iy + 1)
        if name == "left":
            return ("v", ix, iy)
        return ("v", ix + 1, iy)    # right

    point_cache = {}

    def edge_point(key):
        pt = point_cache.get(key)
        if pt is not None:
            return pt
        kind, ix, iy = key
        if kind == "h":
            va, vb = v[iy, ix], v[iy, ix + 1]
            za = re[ix] + 1j * im[iy]
            zb = re[ix + 1] + 1j * im[iy]
        else:
            va, vb = v[iy, ix], v[iy + 1, ix]
            za = re[ix] + 1j * im[iy]
            zb = re[ix] + 1j * im[iy + 1]
        t = 0.0 if vb == va else (eps - va) / (vb - va)
        pt = za + min(1.0, max(0.0, t)) * (zb - za)
        point_cache[key] = pt
        return pt

    uf = _UnionFind()
    seg_edges = []
    for iy, ix in zip(iys, ixs):
        c = int(code[iy, ix])
        if c in _SADDLES:
            zc = (re[ix] + re[ix + 1]) / 2 + 1j * (im[iy] + im[iy + 1]) / 2
            center_inside = grid.gfun(zc) <= eps
            pairs = _SADDLES[c][0 if center_inside else 1]
        else:
            pairs = _CASES[c]
        for e1, e2 in pairs:
            k1 = edge_key(e1, ix, iy)
            k2 = edge_key(e2, ix, iy)
            uf.union(k1, k2)
            seg_edges.append((k1, k2))

    segments = tuple((edge_point(k1), edge_point(k2)) for k1, k2 in seg_edges)
    relabel = {}
    labels = []
    for k1, _ in seg_edges:
        root = uf.find(k1)
        labels.append(relabel.setdefault(root, len(relabel)))
    return ContourSet(eps=eps, segments=segments, labels=tuple(labels))


def _contains(segments, z: complex) -> bool:
    """Even-odd test: does the closed curve formed by segments enclose z?"""
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


def _component_of(contour: ContourSet, center: complex):
    """Segments of the component enclosing center."""
    by_label = {}
    for seg, lab in zip(contour.segments, contour.labels):
        by_label.setdefault(lab, []).append(seg)
    for lab in sorted(by_label):
        if _contains(by_label[lab], center):
            return by_label[lab]
    raise ContainmentError(
        f"no contour component at eps={contour.eps:g} encloses {center} "
        f"({contour.n_components} components present)")


def component_vertices(contour: ContourSet, center: complex) -> np.ndarray:
    """Unique segment endpoints of the component enclosing center."""
    segs = _component_of(contour, center)
    pts = np.array([p for seg in segs for p in seg], dtype=complex)
    return np.unique(pts)


def disc_deviation(contour: ContourSet, center: complex, radius: float) -> float:
    """Worst relative deviation of the enclosing component from the circle
    |z - center| = radius: max over its vertices of ||v - center| - radius|,
    normalized by radius."""
    if radius <= 0:
        raise HypothesisViolationError(f"radius must be positive, got {radius}")
    verts = component_vertices(contour, center)
    return float(np.max(np.abs(np.abs(verts - center) - radius)) / radius)


def fitted_radius(contour: ContourSet, center: complex) -> float:
    """Median distance from center to the enclosing component's vertices;
    robust to corner discretization."""
    verts = component_vertices(contour, center)
    return float(np.median(np.abs(verts - center)))


def sublevel_component_count(grid: PseudoGrid, eps: float) -> int:
    """Number of 4-connected components of {g <= eps} on the grid.

    Each row run of the mask starts as its own component; runs that share a
    column in adjacent rows are merged.
    """
    mask = grid.values <= eps
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    run = np.cumsum(starts).reshape(mask.shape)     # 1-based run id where mask
    both = mask[:-1] & mask[1:]
    upper, lower = run[:-1][both], run[1:][both]
    new = np.ones(len(upper), dtype=bool)
    new[1:] = (upper[1:] != upper[:-1]) | (lower[1:] != lower[:-1])
    uf = _UnionFind()
    merges = sum(uf.union(a, b) for a, b in zip(upper[new].tolist(), lower[new].tolist()))
    return int(starts.sum()) - merges
