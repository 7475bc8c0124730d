"""Condition numbers by all four routes, the adjugate norm, and gap bounds."""

import numpy as np
import pytest

import polycond.condition
from helpers import (
    FIXTURE_NAMES,
    companion_eig_conds,
    cofactor_adjugate,
    kappa_by_perturbation,
    load_fixture,
    random_well_separated,
    simple_eigenpairs,
    singular_with_known_adjugate,
    unit_weights,
)
from polycond import (
    DefectiveEigenvalueError,
    DegenerateProblemError,
    HypothesisViolationError,
    MatrixPolynomial,
    NotAnEigenvalueError,
    PolycondError,
    WeightSet,
    adjugate_norm,
    cond_eigvector_free,
    cond_multiple,
    cond_simple,
    cond_via_companion,
    companion_vectors,
    dist_mult_bound,
    dist_mult_bound_adj,
    eig_vectors,
    eigenvalue_shift_samples,
    min_gap_bound,
    nearest_eigenvalue,
    perturbation_rng,
    spectral_norm,
    spectrum,
)


class TestSimpleRoutes:
    def test_ill_scaled_fixture_values(self, p5):
        poly, w = p5.poly, p5.weights
        want = {1.0: 3000.0, 2.0: 7000.0}
        for lam, k in want.items():
            x, y = eig_vectors(poly, lam)
            assert cond_simple(poly, w, lam, x, y) == pytest.approx(k, rel=0.01)
        x, y = eig_vectors(poly, 4.0)
        assert cond_simple(poly, w, 4.0, x, y) == pytest.approx(21.2897, abs=1e-2)

    def test_companion_route_matches(self, p5):
        poly, w = p5.poly, p5.weights
        for lam in (1.0, 2.0, 3.0, 4.0):
            x, y = eig_vectors(poly, lam)
            a = cond_simple(poly, w, lam, x, y)
            b = cond_via_companion(poly, w, lam, x, y)
            assert b == pytest.approx(a, rel=1e-2)

    def test_routes_agree_on_random_fixtures(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            if n * m < 2:
                m = 2
            poly = random_well_separated(rng, n, m)
            w = unit_weights(poly)
            sp = spectrum(poly)
            for i, lam, x, y in simple_eigenpairs(poly, sp):
                a = cond_simple(poly, w, lam, x, y)
                b = cond_via_companion(poly, w, lam, x, y)
                c = cond_eigvector_free(poly, w, i, sp)
                assert b == pytest.approx(a, rel=1e-4)
                assert c == pytest.approx(a, rel=1e-4)

    def test_companion_cond_against_full_eigensolve(self, rng):
        poly = random_well_separated(rng, 2, 2)
        w = unit_weights(poly)
        vals, conds = companion_eig_conds(poly)
        sp = spectrum(poly)
        for _, lam, x, y in simple_eigenpairs(poly, sp):
            j = nearest_eigenvalue(vals, lam, tol=1e-8)
            right, left = companion_vectors(poly, lam, x, y)
            k = np.linalg.norm(right) * np.linalg.norm(left) / abs(left.conj() @ right)
            assert k == pytest.approx(conds[j], rel=1e-8)

    def test_cond_simple_matches_its_definition(self):
        # a route checked against the paper's definition of kappa, sup |d lam| / eps,
        # rather than against another route: every simple eigenvalue of the
        # fixtures (p6 has none), pz_zero_eig's lam = 0 among them
        checked = 0
        for name in FIXTURE_NAMES:
            pf = load_fixture(name)
            for _, lam, x, y in simple_eigenpairs(pf.poly, spectrum(pf.poly)):
                k = cond_simple(pf.poly, pf.weights, lam, x, y)
                got = kappa_by_perturbation(pf.poly, pf.weights, lam, x, y, 1e-7 / k)
                assert got == pytest.approx(k, rel=1e-5), (name, lam)
                checked += 1
        assert checked == 21

    def test_companion_overflow_refused(self, p5):
        # ||right|| ||left|| overflows at |lam| = 1e200: refused as such, not
        # judged defective against an infinite norm product
        x, y = eig_vectors(p5.poly, 4.0)
        with np.errstate(over="ignore"), pytest.raises(
                HypothesisViolationError, match="^the companion eigenvectors overflow at lam"):
            cond_via_companion(p5.poly, p5.weights, 1e200, x, y)

    def test_phase_scaling_invariance(self, p5):
        poly, w = p5.poly, p5.weights
        x, y = eig_vectors(poly, 4.0)
        base = cond_simple(poly, w, 4.0, x, y)
        for theta, phi in ((0.3, -1.2), (2.0, 0.7)):
            got = cond_simple(poly, w, 4.0, np.exp(1j * theta) * x, np.exp(1j * phi) * y)
            assert got == pytest.approx(base, rel=1e-12)

    def test_defective_eigenvalue_gated(self, p3):
        poly = p3.poly
        x, y = eig_vectors(poly, 1.0)
        with pytest.raises(DefectiveEigenvalueError):
            cond_simple(poly, WeightSet([1.0, 1.0, 1.0]), 1.0, x, y)

    @pytest.mark.parametrize("route", [cond_simple, cond_via_companion])
    def test_zero_vector_rejected(self, p5, route):
        # a zero x or y raised DefectiveEigenvalueError
        x, y = eig_vectors(p5.poly, 4.0)
        for args, which in (((0 * x, y), "x"), ((x, 0 * y), "y")):
            with pytest.raises(HypothesisViolationError, match=f"^{which} must be a nonzero vector$"):
                route(p5.poly, p5.weights, 4.0, *args)

    def test_weight_mismatch_rejected(self, p5):
        x, y = eig_vectors(p5.poly, 1.0)
        from polycond import InvalidWeightsError

        with pytest.raises(InvalidWeightsError):
            cond_simple(p5.poly, WeightSet([1.0]), 1.0, x, y)


class TestCondMultiple:
    def test_quintuple_fixture_value(self, p3):
        md = p3.multiple
        k = cond_multiple(p3.poly, p3.weights, md.eigenvalue,
                          md.right_vectors, md.left_vectors)
        assert k == pytest.approx(4.2426, abs=1e-3)

    def test_kappa_one_coincides_with_simple(self, p5):
        poly, w = p5.poly, p5.weights
        lam = 4.0
        x, y = eig_vectors(poly, lam)
        delta = y.conj() @ poly.eval_derivative(lam, 1) @ x
        # normalize the left vector so y* P'(lam) x = 1: then the two
        # definitions coincide
        y_scaled = y / np.conj(delta)
        k_hat = cond_multiple(poly, w, lam, x.reshape(-1, 1),
                              y_scaled.conj().reshape(1, -1))
        assert k_hat == pytest.approx(cond_simple(poly, w, lam, x, y), rel=1e-10)

    def test_rank_deficient_rejected(self, p3):
        md = p3.multiple
        Xh = np.asarray(md.right_vectors)
        bad = np.hstack([Xh[:, :1], Xh[:, :1]])
        with pytest.raises(HypothesisViolationError):
            cond_multiple(p3.poly, p3.weights, 1.0, bad, np.asarray(md.left_vectors))

    def test_shape_mismatch_rejected(self, p3):
        md = p3.multiple
        with pytest.raises(HypothesisViolationError):
            cond_multiple(p3.poly, p3.weights, 1.0,
                          np.asarray(md.right_vectors),
                          np.asarray(md.left_vectors)[:1, :])


class TestAdjugateNorm:
    def test_rank_one_2x2(self):
        assert adjugate_norm([[0.0, 0.001], [0.0, 6.0]]) == pytest.approx(
            np.sqrt(36.0 + 1e-6), rel=1e-12)

    def test_diagonal_with_zero(self):
        assert adjugate_norm(np.diag([2.0, 3.0, 0.0])) == pytest.approx(6.0)

    def test_ill_scaled_fixture_at_4(self, p5):
        assert adjugate_norm(p5.poly.eval(4.0)) == pytest.approx(0.006083, abs=1e-5)

    def test_1x1_convention(self):
        assert adjugate_norm([[0.0]]) == 1.0
        assert adjugate_norm([[3.0]]) == 1.0

    def test_nonsingular_matrix_rejected(self):
        with pytest.raises(HypothesisViolationError) as err:
            adjugate_norm(np.eye(3))
        assert "1.0e+06" in str(err.value)

    def test_double_zero_rejected(self):
        with pytest.raises(HypothesisViolationError):
            adjugate_norm(np.zeros((2, 2)))

    @pytest.mark.parametrize("M, shape", [
        (np.ones(3), (3,)),             # leaked LinAlgError
        (np.ones((2, 3)), (2, 3)),      # returned a number
        (np.ones((2, 2, 2)), (2, 2, 2)),
        (5.0, ()),
    ])
    def test_non_square_refused(self, M, shape):
        with pytest.raises(HypothesisViolationError) as err:
            adjugate_norm(M)
        assert str(err.value) == f"adjugate norm needs a square matrix, got shape {shape}"

    def test_gap_override(self, monkeypatch):
        # adjugate_norm takes no gap argument: s_1/s_2 must exceed the module
        # constant ADJUGATE_GAP = 1e6
        assert polycond.condition.ADJUGATE_GAP == 1e6
        assert adjugate_norm(np.diag([1.0, 0.99e-6])) == 1.0
        for s2 in (1.01e-6, 1e-3):
            with pytest.raises(HypothesisViolationError, match=r"required > 1\.0e\+06"):
                adjugate_norm(np.diag([1.0, s2]))
        monkeypatch.setattr(polycond.condition, "ADJUGATE_GAP", 100.0)
        assert adjugate_norm(np.diag([1.0, 1e-3])) == 1.0

    def test_matches_cofactor_oracle(self, rng):
        for n in (1, 2, 3, 4):
            for _ in range(8):
                M, want = singular_with_known_adjugate(rng, n)
                got = adjugate_norm(M)
                assert got == pytest.approx(want, rel=1e-8)
                assert got == pytest.approx(spectral_norm(cofactor_adjugate(M)), rel=1e-8)


class TestEigvectorFree:
    def test_ill_scaled_fixture_values(self, p5):
        poly, w = p5.poly, p5.weights
        sp = spectrum(poly)
        want = {1.0: 3000.0, 2.0: 7000.0}
        for lam, k in want.items():
            i = nearest_eigenvalue(sp.eigenvalues, lam)
            assert cond_eigvector_free(poly, w, i, sp) == pytest.approx(k, rel=0.01)
        i = nearest_eigenvalue(sp.eigenvalues, 4.0)
        assert cond_eigvector_free(poly, w, i, sp) == pytest.approx(21.2897, abs=1e-2)

    def test_adjugate_numerators(self, p5):
        # w(|lam|) ||adj P(lam)|| / |det A_m|, the quantity divided by the gap
        # product to get the condition number: 18000, 14000, 127.738 at 1, 2, 4
        poly = p5.poly
        sp = spectrum(poly)
        det_am = abs(np.linalg.det(np.asarray(poly.coeffs[-1])))
        for lam, want in ((1.0, 18000.0), (2.0, 14000.0), (4.0, 127.738)):
            i = nearest_eigenvalue(sp.eigenvalues, lam)
            num = p5.weights.eval(abs(lam)) * adjugate_norm(
                poly.eval(complex(sp.eigenvalues[i])))
            assert num / det_am == pytest.approx(want, rel=0.01)

    @pytest.mark.parametrize("scale", [1e12, 1e-14])
    def test_adjugate_product_outside_float_range(self, scale):
        # ||adj P(lam)|| is a product of 29 singular values of order 10 * scale:
        # it overflows at 1e12 and underflows at 1e-14, while the condition
        # number is scale-invariant (64.05)
        n, m = 30, 2
        rng = perturbation_rng(1, 7)
        poly = MatrixPolynomial([
            scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for _ in range(m + 1)])
        w = WeightSet.from_coefficient_norms(poly)
        sp = spectrum(poly)
        lam = complex(sp.eigenvalues[0])
        x, y = eig_vectors(poly, lam, values=sp.eigenvalues)
        k = cond_simple(poly, w, lam, x, y)
        assert k == pytest.approx(64.05, abs=5e-3)
        assert cond_via_companion(poly, w, lam, x, y) == pytest.approx(k, rel=1e-8)
        assert cond_eigvector_free(poly, w, 0, sp) == pytest.approx(k, rel=1e-8)
        bound = dist_mult_bound_adj(poly, w, 0, sp, x, y).value
        assert 0.0 < bound < np.inf
        assert bound == pytest.approx(dist_mult_bound(poly, w, lam, x, y).value, rel=1e-8)

    @pytest.mark.parametrize("a0, a1, weights", [
        (-2.0, 4.0, (1.0, 1.0)), (3.0 - 1.0j, -0.5j, (0.25, 2.0)), (0.0, 2.0, (1.0, 0.0))])
    def test_scalar_linear_routes_agree(self, a0, a1, weights):
        # no other eigenvalue: the gap product is the empty product 1 and
        # adj of a 1x1 matrix is [1], so every route reads w(|lam|) / |a_1|
        poly, w = MatrixPolynomial([[[a0]], [[a1]]]), WeightSet(weights)
        sp = spectrum(poly)
        lam = complex(sp.eigenvalues[0])
        want = w.eval(abs(lam)) / abs(a1)
        x, y = eig_vectors(poly, lam, values=sp.eigenvalues)
        assert cond_simple(poly, w, lam, x, y) == pytest.approx(want, rel=1e-15)
        assert cond_via_companion(poly, w, lam, x, y) == pytest.approx(want, rel=1e-15)
        assert cond_eigvector_free(poly, w, 0, sp) == pytest.approx(want, rel=1e-15)

    def test_non_simple_rejected(self, p3):
        sp = spectrum(p3.poly, cluster_tol=1e-4)
        big = next(c for c in sp.clusters if c.size == 5)
        for route in (cond_eigvector_free, min_gap_bound):
            with pytest.raises(NotAnEigenvalueError):
                route(p3.poly, p3.weights, big.indices[0], sp)

    @pytest.mark.xfail(strict=True, reason="defect 1: the computed roots of (lam - 1)^3 lie about "
                       "1e-5 apart and cluster as three simple eigenvalues; the disc count that "
                       "witnesses it is there, the resolution rule is ROADMAP item 2")
    @pytest.mark.parametrize("i", range(3))
    def test_triple_root_refused(self, i):
        # each of the three "simple" roots reads 3.255e10 today
        poly = MatrixPolynomial([[[-1.0]], [[3.0]], [[-3.0]], [[1.0]]])
        with pytest.raises(PolycondError):
            cond_eigvector_free(poly, WeightSet.from_coefficient_norms(poly), i, spectrum(poly))

    def test_index_out_of_range_rejected(self, p5):
        # 99 and -1 raised a bare IndexError, from spec.eigenvalues[i] in
        # dist_mult_bound_adj before any check, and from Spectrum.cluster_of
        sp = spectrum(p5.poly)
        x, y = eig_vectors(p5.poly, 4.0)
        for i in (99, -1, 4):
            for route in (lambda: cond_eigvector_free(p5.poly, p5.weights, i, sp),
                          lambda: min_gap_bound(p5.poly, p5.weights, i, sp),
                          lambda: dist_mult_bound_adj(p5.poly, p5.weights, i, sp, x, y),
                          lambda: sp.cluster_of(i)):
                with pytest.raises(NotAnEigenvalueError) as exc:
                    route()
                assert str(exc.value) == (f"eigenvalue index {i} is out of range for a spectrum "
                                          "of nm = 4 eigenvalues (indices 0..3)")

    @pytest.mark.parametrize("i", [1.5, True, 2.0], ids=["float", "bool", "integral-float"])
    @pytest.mark.parametrize("route", [
        lambda pf, i, sp, x, y: cond_eigvector_free(pf.poly, pf.weights, i, sp),
        lambda pf, i, sp, x, y: min_gap_bound(pf.poly, pf.weights, i, sp),
        lambda pf, i, sp, x, y: dist_mult_bound_adj(pf.poly, pf.weights, i, sp, x, y),
    ], ids=["cond_eigvector_free", "min_gap_bound", "dist_mult_bound_adj"])
    def test_non_integer_index_rejected(self, p5, route, i):
        # 1.5 raised a bare IndexError from the spectrum's array; a bool
        # passed as the index 0 or 1
        sp = spectrum(p5.poly)
        x, y = eig_vectors(p5.poly, 4.0)
        with pytest.raises(NotAnEigenvalueError) as exc:
            route(p5, i, sp, x, y)
        assert str(exc.value) == f"eigenvalue index must be an integer, got {i!r}"
        j = nearest_eigenvalue(sp.eigenvalues, 4.0)
        assert route(p5, np.int64(j), sp, x, y) == route(p5, j, sp, x, y)


class TestMinGapBound:
    def test_ill_scaled_fixture_at_2(self, p5):
        sp = spectrum(p5.poly)
        i = nearest_eigenvalue(sp.eigenvalues, 2.0)
        got = min_gap_bound(p5.poly, p5.weights, i, sp)
        assert got == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-6)
        assert got >= 1.0 - 1e-9  # true gap is 1

    def test_ill_scaled_fixture_at_4(self, p5):
        sp = spectrum(p5.poly)
        i = nearest_eigenvalue(sp.eigenvalues, 4.0)
        got = min_gap_bound(p5.poly, p5.weights, i, sp)
        assert got == pytest.approx(6.0 ** (1.0 / 3.0), rel=1e-6)

    def test_scalar_linear_rejected(self):
        p = MatrixPolynomial([[[-1.0]], [[1.0]]])
        sp = spectrum(p)
        with pytest.raises(DegenerateProblemError):
            min_gap_bound(p, WeightSet([1.0, 1.0]), 0, sp)


class TestEmpiricalWorstCaseShift:
    def test_shift_ratio_brackets_condition_number(self, p5):
        # 500 boundary perturbations at eps = 1e-6: the worst observed
        # eigenvalue shift per unit eps must land inside [0.5 k, 1.05 k]
        poly, w = p5.poly, p5.weights
        x, y = eig_vectors(poly, 4.0)
        k = cond_simple(poly, w, 4.0, x, y)
        eps = 1e-6
        shifts = eigenvalue_shift_samples(poly, w, eps, 4.0, samples=500, seed=1234)
        ratio = float(shifts.max()) / eps
        assert 0.5 * k <= ratio <= 1.05 * k
