"""Grid evaluation, level-set extraction, and disc comparison."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import polycond.core
import polycond.pseudospectra
from helpers import reference_contains, reference_contours
from polycond import (
    ContourSet,
    ContainmentError,
    HypothesisViolationError,
    MatrixPolynomial,
    PseudoGrid,
    WeightSet,
    boundedness_check,
    cond_multiple,
    contours,
    disc_deviation,
    eig_vectors,
    cond_simple,
    component_vertices,
    fitted_radius,
    grid_eval,
    problem_hash,
    singular_values,
    sublevel_component_count,
)

LADDER = (1e-4, 2e-4, 4e-4, 8e-4)


@pytest.fixture(scope="module")
def g3(p3):
    """401^2 grid around the quintuple eigenvalue at 1."""
    return grid_eval(p3.poly, p3.weights, (0.85, 1.15, -0.15, 0.15), 401, threads=4)


@pytest.fixture(scope="module")
def g6(p6):
    """Full-spectrum grid for the cubic fixture."""
    return grid_eval(p6.poly, p6.weights, (-1.5, 1.5, -0.75, 0.75), (241, 121))


def synthetic_grid(g, box=(-1.0, 1.0, -1.0, 1.0), n=101):
    """g, a function of an array of points, tabulated on box at n x n nodes."""
    re_min, re_max, im_min, im_max = box
    Z = np.linspace(re_min, re_max, n) + 1j * np.linspace(im_min, im_max, n)[:, np.newaxis]
    return PseudoGrid(
        re_min=re_min, re_max=re_max, im_min=im_min, im_max=im_max, nx=n, ny=n,
        values=g(Z), weights=WeightSet([1.0]), poly_hash="synthetic", gfun=g)


def synthetic_circle_grid(n=101):
    """g(z) = |z| tabulated on [-1, 1]^2: exact circles as level sets."""
    return synthetic_grid(np.abs, n=n)


def mask_grid(mask):
    """A grid whose sublevel set at eps = 0.5 is exactly mask."""
    ny, nx = mask.shape
    return PseudoGrid(
        re_min=0.0, re_max=1.0, im_min=0.0, im_max=1.0, nx=nx, ny=ny,
        values=np.where(mask, 0.0, 1.0), weights=WeightSet([1.0]), poly_hash="mask")


class TestBoundedness:
    def test_ill_scaled_fixture(self, p5):
        assert boundedness_check(p5.poly, p5.weights, 1e-4)
        assert not boundedness_check(p5.poly, p5.weights, 0.01)

    def test_zero_leading_weight_always_bounded(self, p6):
        assert boundedness_check(p6.poly, p6.weights, 1e9)


class TestGridEval:
    def test_values_match_pointwise_oracle(self, p5):
        g = grid_eval(p5.poly, p5.weights, (0.5, 4.5, -0.5, 0.5), (9, 5))
        for iy, imv in enumerate(g.im_axis):
            for ix, rev in enumerate(g.re_axis):
                z = complex(rev, imv)
                smin = np.linalg.svd(p5.poly.eval(z), compute_uv=False)[-1]
                want = smin / p5.weights.eval(abs(z))
                assert g.values[iy, ix] == pytest.approx(want, rel=1e-12)

    def test_node_exactly_on_eigenvalue(self, p5):
        g = grid_eval(p5.poly, p5.weights, (0.0, 2.0, -1.0, 1.0), 3)
        assert g.re_axis[1] == 1.0 and g.im_axis[1] == 0.0
        assert g.values[1, 1] <= 1e-10 * g.values.max()

    def test_values_nonnegative_and_read_only(self, p5):
        g = grid_eval(p5.poly, p5.weights, (0, 1, 0, 1), 5)
        assert np.all(g.values >= 0)
        with pytest.raises(ValueError):
            g.values[0, 0] = -1.0

    def test_nodes_resolution_invariant(self, p5):
        box = (0.5, 4.5, -0.5, 0.5)
        a = grid_eval(p5.poly, p5.weights, box, (51, 11))
        b = grid_eval(p5.poly, p5.weights, box, (101, 21))
        scale = a.values.max()
        assert np.abs(b.values[::2, ::2] - a.values).max() <= 1e-13 * scale

    def test_thread_count_bitwise_irrelevant(self, p3):
        # 91 x 83 = 7553 nodes: one full block of 7281 (n = 3) and a partial one
        box = (-2.4, 0.0, -1.2, 0.0)
        a = grid_eval(p3.poly, p3.weights, box, (91, 83), threads=1)
        for threads in (2, 3, 7):
            b = grid_eval(p3.poly, p3.weights, box, (91, 83), threads=threads)
            assert np.array_equal(a.values, b.values)

    def test_block_size_bitwise_irrelevant(self, p3, monkeypatch):
        # 23 x 19 = 437 nodes: in blocks of 100 nodes, five blocks (more than
        # the three threads) and the last node, z = 0 exactly, in the partial
        # fifth block of 37
        box = (-2.4, 0.0, -1.2, 0.0)
        ref = grid_eval(p3.poly, p3.weights, box, (23, 19), threads=1)
        assert ref.re_axis[-1] == 0.0 and ref.im_axis[-1] == 0.0
        want = singular_values(p3.poly.coeffs[0])[-1] / p3.weights.weights[0]
        assert ref.values[-1, -1] == want
        # blocks of 100 nodes and of one node give the same bits
        for nodes in (100, 1):
            monkeypatch.setattr(polycond.core, "_BLOCK_BYTES", 16 * 9 * nodes)
            assert len(polycond.core._blocks(ref.values.size, 3)) > 3
            for threads in (1, 3):
                got = grid_eval(p3.poly, p3.weights, box, (23, 19), threads=threads)
                assert np.array_equal(got.values, ref.values)

    def test_pool_capped_at_blocks_and_cores(self, p3, monkeypatch):
        # a serial stand-in records each pool's size and starts no thread
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(polycond.pseudospectra, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(polycond.pseudospectra.os, "cpu_count", lambda: 4)
        box = (-2.4, 0.0, -1.2, 0.0)
        ref = grid_eval(p3.poly, p3.weights, box, (91, 83), threads=1)
        # two blocks at n = 3, then 76 blocks of 100 nodes
        for threads in (2, 3, 10 ** 6):
            got = grid_eval(p3.poly, p3.weights, box, (91, 83), threads=threads)
            assert np.array_equal(got.values, ref.values)
        monkeypatch.setattr(polycond.core, "_BLOCK_BYTES", 16 * 9 * 100)
        for threads in (3, 10 ** 6):
            got = grid_eval(p3.poly, p3.weights, box, (91, 83), threads=threads)
            assert np.array_equal(got.values, ref.values)
        monkeypatch.setattr(polycond.pseudospectra.os, "cpu_count", lambda: None)
        grid_eval(p3.poly, p3.weights, box, (91, 83), threads=10 ** 6)
        assert pools == [1, 2, 2, 2, 3, 4, 1]

    def test_memory_is_one_block_per_thread(self):
        # n = 6: blocks of 1820 nodes; the whole 201^2 stack of P(z) would
        # take 22 MiB, and its Horner temporaries as much again
        rng = np.random.default_rng(6)
        coeffs = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
                  for _ in range(3)] + [np.eye(6)]
        poly, w = MatrixPolynomial(coeffs), WeightSet([1.0, 1.0, 1.0, 1.0])
        tracemalloc.start()
        try:
            grid_eval(poly, w, (-3.0, 3.0, -3.0, 3.0), 201, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_grid_minimum_adjacent_to_eigenvalue(self, g3):
        iy, ix = np.unravel_index(np.argmin(g3.values), g3.values.shape)
        z = g3.re_axis[ix] + 1j * g3.im_axis[iy]
        cell = np.hypot(g3.re_axis[1] - g3.re_axis[0], g3.im_axis[1] - g3.im_axis[0])
        assert abs(z - 1.0) <= cell

    def test_empty_box_rejected(self, p5):
        with pytest.raises(HypothesisViolationError):
            grid_eval(p5.poly, p5.weights, (1.0, 0.0, 0.0, 1.0), 5)
        for box in ((-np.inf, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, np.inf)):
            with pytest.raises(HypothesisViolationError, match="must be finite"):
                grid_eval(p5.poly, p5.weights, box, 5)
        with pytest.raises(HypothesisViolationError, match="empty bounding box"):
            grid_eval(p5.poly, p5.weights, (0.0, np.nan, 0.0, 1.0), 5)

    def test_zero_resolution_rejected(self, p5):
        with pytest.raises(HypothesisViolationError):
            grid_eval(p5.poly, p5.weights, (0, 1, 0, 1), 0)

    def test_compared_by_identity(self, p3):
        a = grid_eval(p3.poly, p3.weights, (0, 1, 0, 1), 5)
        b = grid_eval(p3.poly, p3.weights, (0, 1, 0, 1), 5)
        # never by the truth value of an array, and hashable
        assert a == a and a != b and np.array_equal(a.values, b.values)
        assert len({a, b}) == 2

    def test_hash_identifies_problem(self, p5, p6):
        a = grid_eval(p5.poly, p5.weights, (0, 1, 0, 1), 3)
        assert a.poly_hash == problem_hash(p5.poly, p5.weights)
        assert problem_hash(p5.poly, p5.weights) != problem_hash(p6.poly, p6.weights)
        other = WeightSet([2.0, 1.0, 1.0])
        assert problem_hash(p5.poly, other) != problem_hash(p5.poly, p5.weights)


class TestContours:
    def test_synthetic_circle(self):
        g = synthetic_circle_grid()
        c = contours(g, 0.5)
        assert c.n_components == 1 and c.clipped.tolist() == [False]
        assert fitted_radius(c, 0.0) == pytest.approx(0.5, abs=1e-3)
        assert disc_deviation(c, 0.0, 0.5) <= 1e-3
        # against a wrong radius the deviation is the relative radius error
        assert disc_deviation(c, 0.0, 0.4) == pytest.approx(0.25, abs=0.01)

    def test_nonpositive_radius_rejected(self):
        c = contours(synthetic_circle_grid(), 0.5)
        for radius in (0.0, -0.5, float("nan")):
            with pytest.raises(HypothesisViolationError, match="radius must be positive"):
                disc_deviation(c, 0.0, radius)

    def test_vertices_on_level_set(self, g3):
        c = contours(g3, 1e-4)
        verts = component_vertices(c, 1.0)
        g_at = g3.gfun(verts)
        # linear interpolation puts vertices near the true level
        assert np.median(np.abs(g_at - 1e-4)) <= 0.05 * 1e-4

    def test_multiple_eigenvalue_disc_radii(self, g3, p3):
        md = p3.multiple
        khat = cond_multiple(p3.poly, p3.weights, md.eigenvalue,
                             md.right_vectors, md.left_vectors)
        c = contours(g3, 1e-4)
        want = (khat * 1e-4) ** 0.5
        assert 0.95 <= fitted_radius(c, 1.0) / want <= 1.05

    def test_deviation_trend_down_the_ladder(self, g3, p3):
        md = p3.multiple
        khat = cond_multiple(p3.poly, p3.weights, md.eigenvalue,
                             md.right_vectors, md.left_vectors)
        devs = []
        for eps in LADDER:
            c = contours(g3, eps)
            devs.append(disc_deviation(c, 1.0, (khat * eps) ** 0.5))
        assert devs[-1] <= 0.05  # eps = 8e-4
        # smaller eps hugs the predicted disc at least as well, up to 20% noise
        for small, big in zip(devs, devs[1:]):
            assert small <= big * 1.2

    def test_simple_eigenvalue_disc_radius(self, p5):
        x, y = eig_vectors(p5.poly, 4.0)
        k = cond_simple(p5.poly, p5.weights, 4.0, x, y)
        g = grid_eval(p5.poly, p5.weights, (3.996, 4.004, -0.004, 0.004), 201)
        c = contours(g, 1e-4)
        assert 0.9 <= fitted_radius(c, 4.0) / (k * 1e-4) <= 1.1

    def test_component_count_bounded_by_distinct_eigenvalues(self, g6, g3):
        for eps in (1e-3, 1e-2, 0.05):
            assert contours(g6, eps).n_components <= 3
            assert sublevel_component_count(g6, eps) <= 3
        for eps in LADDER:
            assert contours(g3, eps).n_components <= 2

    def test_cubic_fixture_three_components(self, g6):
        c = contours(g6, 0.01)
        assert c.n_components == 3
        assert sublevel_component_count(g6, 0.01) == 3
        for center in (0.0, 1.0, -1.0):
            assert len(component_vertices(c, center)) > 0

    def test_sublevel_masks_nested(self, g6):
        small = g6.values <= 1e-3
        big = g6.values <= 1e-2
        assert np.all(big[small])

    def test_eps_below_grid_minimum(self, p3):
        # a box away from the spectrum, so the grid minimum is positive
        far = grid_eval(p3.poly, p3.weights, (10.0, 10.5, 0.1, 0.6), 11)
        assert float(far.values.min()) > 0
        c = contours(far, 1e-12)
        assert c.segments.shape == (0, 2) and c.labels.shape == (0,)
        assert c.n_components == 0
        assert "below the grid minimum" in c.diagnostic

    def test_eps_above_grid_maximum(self, g3):
        c = contours(g3, 1e6)
        assert c.segments.shape == (0, 2) and c.labels.shape == (0,)
        assert c.n_components == 0
        assert "above the grid maximum" in c.diagnostic

    def test_nonpositive_eps_rejected(self, g3):
        for eps in (0.0, -1.0, float("nan")):
            for level_set in (contours, sublevel_component_count):
                with pytest.raises(HypothesisViolationError, match="eps must be positive"):
                    level_set(g3, eps)

    def test_center_outside_every_component(self, g3):
        c = contours(g3, 1e-4)
        with pytest.raises(ContainmentError):
            component_vertices(c, 42.0 + 7.0j)

    def test_labels_dense_from_zero(self, g6):
        c = contours(g6, 0.01)
        assert set(c.labels.tolist()) == set(range(c.n_components))

    def test_arrays_read_only(self, g6):
        for eps in (0.01, 1e6):
            c = contours(g6, eps)
            k = len(c.segments)
            assert c.segments.shape == (k, 2) and c.segments.dtype == complex
            assert c.labels.shape == (k,) and c.labels.dtype.kind == "i"
            assert c.clipped.shape == (c.n_components,) and c.clipped.dtype == bool
            for a in (c.segments, c.labels, c.clipped):
                with pytest.raises(ValueError):
                    a[...] = 0
            # compared by identity, never by the truth value of an array
            assert c == c and c != contours(g6, eps)


class TestClipped:
    """Components the box cuts are open curves: marked, and never fitted."""

    def test_circle_cut_by_box_refused(self):
        c = contours(synthetic_grid(np.abs, box=(0.2, 1.0, -1.0, 1.0)), 0.5)
        assert c.clipped.tolist() == [True]
        # the open arc passes the even-odd test at 0, outside the box
        assert polycond.pseudospectra._contains(c, 0.0).tolist() == [True]
        for measure in (component_vertices, fitted_radius):
            with pytest.raises(ContainmentError, match="cut by the box"):
                measure(c, 0.0)
        with pytest.raises(ContainmentError, match="cut by the box"):
            disc_deviation(c, 0.0, 0.5)

    def test_simple_eigenvalue_outside_box_refused(self, p5):
        # the component of the eigenvalue 3 at eps = 1e-4, cut by the left edge
        c = contours(grid_eval(p5.poly, p5.weights, (3.001, 3.2, -0.1, 0.1), 201), 1e-4)
        assert c.clipped.any()
        with pytest.raises(ContainmentError, match="cut by the box"):
            fitted_radius(c, 3.0)
        with pytest.raises(ContainmentError, match="cut by the box"):
            disc_deviation(c, 3.0, 0.002)

    def test_clipped_component_skipped(self):
        # the arc of |z - 1.3| = 0.4 is cut by the right edge and comes first by
        # label; at -0.5 it passes the even-odd test, as the closed circle does
        c = contours(synthetic_grid(lambda z: np.minimum(2 * abs(z + 0.5), abs(z - 1.3))), 0.4)
        assert c.clipped.tolist() == [True, False]
        assert polycond.pseudospectra._contains(c, -0.5).tolist() == [True, True]
        assert fitted_radius(c, -0.5) == pytest.approx(0.2, abs=1e-3)
        with pytest.raises(ContainmentError, match="cut by the box"):
            fitted_radius(c, 0.5)


class TestContourReference:
    """contours() against the cell-by-cell loop in helpers.reference_contours:
    the same segment bits, labels, and saddle evaluations in the same order."""

    @staticmethod
    def assert_matches(grid, eps):
        """Returns the number of saddle cells resolved."""
        calls, ref_calls = [], []

        def logged(log):
            return lambda z: log.append(z) or grid.gfun(z)

        got = contours(dataclasses.replace(grid, gfun=logged(calls)), eps)
        segs, labels = reference_contours(dataclasses.replace(grid, gfun=logged(ref_calls)), eps)
        assert got.segments.tobytes() == np.array(segs, dtype=complex).reshape(-1, 2).tobytes()
        assert got.labels.tolist() == labels
        # one gfun call when there is a saddle cell, none otherwise; it holds
        # the reference's per-cell points, in order
        assert len(calls) == (1 if ref_calls else 0)
        points = np.concatenate([np.ravel(z) for z in calls]) if calls else []
        assert np.array_equal(points, np.array(ref_calls, dtype=complex))
        return len(ref_calls)

    def test_fixture_grids(self, g3, g6, p5):
        g5 = grid_eval(p5.poly, p5.weights, (3.996, 4.004, -0.004, 0.004), 201)
        g5_wide = grid_eval(p5.poly, p5.weights, (0.5, 4.5, -0.5, 0.5), (101, 21))
        for grid, levels in ((g3, LADDER), (g6, (1e-3, 1e-2, 0.05)), (g5, (1e-4,)),
                             (g5_wide, np.quantile(g5_wide.values, [0.01, 0.2, 0.5, 0.8]))):
            for eps in levels:
                self.assert_matches(grid, float(eps))

    def test_synthetic_and_saddle_grids(self):
        circle = synthetic_circle_grid()
        for eps in (0.4, 0.5):
            self.assert_matches(circle, eps)
        for center in (0.0, 1.0):
            assert self.assert_matches(TestSaddleResolution().build(center), 0.5) == 1
        noise = PseudoGrid(
            re_min=-1.0, re_max=1.0, im_min=-0.5, im_max=0.5, nx=53, ny=37,
            values=np.random.default_rng(11).random((37, 53)), weights=WeightSet([1.0]),
            poly_hash="noise", gfun=lambda z: abs(np.sin(3 * z)) / 2)
        saddles = sum(self.assert_matches(noise, eps) for eps in (0.1, 0.3, 0.5, 0.7, 0.9))
        assert saddles > 100


def closed_curves(polygons):
    """A ContourSet whose component i is polygons[i], closed."""
    segs = [(p[i], p[(i + 1) % len(p)]) for p in polygons for i in range(len(p))]
    labels = [lab for lab, p in enumerate(polygons) for _ in p]
    segments, labels = np.array(segs, dtype=complex).reshape(-1, 2), np.array(labels, dtype=np.intp)
    clipped = np.zeros(len(polygons), dtype=bool)
    segments.flags.writeable = labels.flags.writeable = clipped.flags.writeable = False
    return ContourSet(eps=1.0, segments=segments, labels=labels, clipped=clipped)


# a vertex on a half-integer lattice (so that rows and vertices line up) or anywhere
_vertex = (st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda p: complex(*p) / 2)
           | st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))


class TestContains:
    """The per-component even-odd test against the scalar loop in
    helpers.reference_contains, component by component."""

    @staticmethod
    def assert_matches(contour, points):
        for z in points:
            want = [reference_contains(contour.segments[contour.labels == lab].tolist(), z)
                    for lab in range(contour.n_components)]
            assert polycond.pseudospectra._contains(contour, z).tolist() == want, z

    def test_fixture_contours(self, g3, g6, p5):
        g5 = grid_eval(p5.poly, p5.weights, (0.5, 4.5, -0.5, 0.5), (101, 21))
        rng = np.random.default_rng(3)
        for grid, levels in ((g3, LADDER), (g6, (1e-3, 1e-2, 0.05)),
                             (g5, np.quantile(g5.values, [0.01, 0.2, 0.5]))):
            for eps in levels:
                c = contours(grid, float(eps))
                verts = c.segments.reshape(-1)[::max(1, c.segments.size // 8)]
                points = [0.0, 1.0, -1.0, 4.0, 1.001 + 0.002j]
                points += [complex(rng.uniform(grid.re_min, grid.re_max), v.imag) for v in verts]
                points += verts.tolist()
                self.assert_matches(c, points)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(polygons=st.lists(st.lists(_vertex, min_size=3, max_size=10), min_size=1, max_size=3),
           xs=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
           ys=st.lists(st.floats(-3, 3), min_size=1, max_size=4))
    def test_random_polygons(self, polygons, xs, ys):
        # points anywhere, and level with every vertex
        points = [complex(x, y) for x in xs for y in ys]
        points += [complex(x, v.imag) for x in xs for p in polygons for v in p]
        self.assert_matches(closed_curves(polygons), points)


class TestSaddleResolution:
    def build(self, center_value):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        return PseudoGrid(
            re_min=0.0, re_max=1.0, im_min=0.0, im_max=1.0, nx=2, ny=2,
            values=values, weights=WeightSet([1.0]), poly_hash="saddle",
            gfun=lambda z: np.full(np.shape(z), center_value))

    def test_center_inside_pairing(self):
        c = contours(self.build(0.0), 0.5)
        got = {tuple(sorted((z1, z2), key=lambda z: (z.real, z.imag)))
               for z1, z2 in c.segments}
        want = {(0.5 + 0.0j, 1.0 + 0.5j), (0.0 + 0.5j, 0.5 + 1.0j)}
        assert got == want

    def test_center_outside_pairing(self):
        c = contours(self.build(1.0), 0.5)
        got = {tuple(sorted((z1, z2), key=lambda z: (z.real, z.imag)))
               for z1, z2 in c.segments}
        want = {(0.0 + 0.5j, 0.5 + 0.0j), (0.5 + 1.0j, 1.0 + 0.5j)}
        assert got == want

    def test_deterministic(self):
        a = contours(self.build(0.0), 0.5)
        b = contours(self.build(0.0), 0.5)
        assert np.array_equal(a.segments, b.segments)
        assert np.array_equal(a.labels, b.labels)


class TestSublevelComponentCount:
    """4-connected labelling, checked against scipy.ndimage.label."""

    def test_matches_ndimage_on_random_masks(self):
        rng = np.random.default_rng(20240903)
        shapes = [(1, 1), (1, 7), (7, 1), (2, 2)]
        shapes += [tuple(int(v) for v in rng.integers(1, 48, size=2)) for _ in range(296)]
        for k, shape in enumerate(shapes):
            density = (0.0, 1.0)[k] if k < 2 else float(rng.uniform(0.0, 1.0))
            mask = rng.random(shape) < density
            want = ndimage.label(mask)[1]
            assert sublevel_component_count(mask_grid(mask), 0.5) == want, (shape, density)

    def test_diagonal_neighbours_are_separate(self):
        mask = np.eye(5, dtype=bool) | np.eye(5, dtype=bool)[::-1]
        assert sublevel_component_count(mask_grid(mask), 0.5) == 9

    def test_matches_ndimage_on_fixture_grids(self, g3, g6, p5):
        g5 = grid_eval(p5.poly, p5.weights, (0.5, 4.5, -0.5, 0.5), (101, 21))
        for g in (g3, g6, g5):
            # eps must be positive; g3 has a node with g = 0, inside every mask
            for eps in np.quantile(g.values[g.values > 0], [0.0, 0.01, 0.05, 0.2, 0.5, 0.8, 1.0]):
                want = ndimage.label(g.values <= eps)[1]
                assert sublevel_component_count(g, eps) == want
