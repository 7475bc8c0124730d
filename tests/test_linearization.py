"""Companion matrix structure and the E/F equivalence witnesses."""

import tracemalloc

import numpy as np
import pytest

import polycond.core
import polycond.linearization
from helpers import (
    FIXTURE_NAMES,
    det_poly_roots,
    load_fixture,
    pair_max_distance,
    random_polynomial,
    random_well_separated,
    reference_companion,
    spectral_problem,
)
from polycond import (HypothesisViolationError, InvalidPolynomialError, MatrixPolynomial, companion,
                      ef_factors, linearization_residual, validate_jordan_triple)


def leading_cond(poly) -> float:
    s = np.linalg.svd(np.asarray(poly.coeffs[poly.m]), compute_uv=False)
    return float(s[0] / s[-1])


class TestCompanion:
    def test_monic_linear_case(self, rng):
        A = rng.standard_normal((3, 3))
        p = MatrixPolynomial([-A, np.eye(3)])
        assert np.allclose(companion(p), A, atol=1e-14)

    def test_block_shift_structure(self, p6):
        C = companion(p6.poly)
        n, m = p6.poly.n, p6.poly.m
        assert C.shape == (n * m, n * m) and not C.flags.writeable
        top = C[: n * (m - 1), :]
        want = np.zeros_like(top)
        for i in range(m - 1):
            want[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = np.eye(n)
        assert np.array_equal(top, want)

    def test_bottom_row_solves_leading_coefficient(self, p5):
        C = companion(p5.poly)
        n, m = p5.poly.n, p5.poly.m
        bottom = C[(m - 1) * n:, :]
        Am = np.asarray(p5.poly.coeffs[m])
        lhs = Am @ bottom
        rhs = -np.hstack([np.asarray(A) for A in p5.poly.coeffs[:-1]])
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_cubic_fixture_eigenvalues(self, p6):
        vals = np.sort_complex(np.linalg.eigvals(companion(p6.poly)))
        want = np.array([-1.0, -1.0, 0.0, 0.0, 1.0, 1.0], dtype=complex)
        assert pair_max_distance(vals, want) <= 1e-7

    def test_ill_scaled_fixture_eigenvalues(self, p5):
        vals = np.linalg.eigvals(companion(p5.poly))
        assert pair_max_distance(vals, [1.0, 2.0, 3.0, 4.0]) <= 1e-6

    def test_degree_zero_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            companion(MatrixPolynomial([np.eye(2)]))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_matches_hstack_construction_on_fixtures(self, name):
        poly = load_fixture(name).poly
        assert companion(poly).tobytes() == reference_companion(poly).tobytes()

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (4, 2), (6, 3), (20, 3), (50, 4), (100, 4)])
    def test_matches_hstack_construction_on_seeded_problems(self, n, m):
        # the bottom block row solves against a reshape of the stack, not
        # an hstack of the coefficients: the same matrix, bit for bit
        for seed in (1, 2):
            poly = spectral_problem(seed, 400, n, m)
            assert companion(poly).tobytes() == reference_companion(poly).tobytes()

    def test_matches_determinant_root_oracle(self, rng):
        for _ in range(12):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            p = random_polynomial(rng, n, m)
            vals = np.linalg.eigvals(companion(p))
            roots = det_poly_roots(p)
            assert pair_max_distance(vals, roots) <= 1e-6


class TestEFFactors:
    def test_linear_case(self, rng):
        A0 = rng.standard_normal((2, 2))
        A1 = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        p = MatrixPolynomial([A0, A1])
        E, F = ef_factors(p, 0.7 + 0.1j)
        assert np.array_equal(E, A1)
        assert np.array_equal(F, np.eye(2))

    def test_first_block_row_at_zero(self, p6):
        E, _ = ef_factors(p6.poly, 0.0)
        n = p6.poly.n
        for r in (1, 2, 3):
            got = E[:n, (r - 1) * n:r * n]
            assert np.array_equal(got, np.asarray(p6.poly.coeffs[r]))

    def test_subdiagonal_blocks(self, p6):
        E, _ = ef_factors(p6.poly, 1.3 - 0.2j)
        n, m = p6.poly.n, p6.poly.m
        for i in range(1, m):
            block = E[i * n:(i + 1) * n, (i - 1) * n:i * n]
            assert np.array_equal(block, -np.eye(n))

    def test_det_E_magnitude(self, rng):
        p = random_polynomial(rng, 2, 3)
        E, _ = ef_factors(p, 1.0 + 1.0j)
        det_E = np.linalg.det(E)
        det_Am = np.linalg.det(np.asarray(p.coeffs[3]))
        assert abs(det_E) == pytest.approx(abs(det_Am), rel=1e-10)

    def test_F_unit_block_lower_triangular_by_structure(self, p6):
        z = 0.31 - 1.7j
        _, F = ef_factors(p6.poly, z)
        n, m = p6.poly.n, p6.poly.m
        for i in range(m):
            for j in range(m):
                block = F[i * n:(i + 1) * n, j * n:(j + 1) * n]
                if j > i:
                    assert np.array_equal(block, np.zeros((n, n)))
                elif j == i:
                    assert np.array_equal(block, np.eye(n))
                else:
                    assert np.array_equal(block, z ** (i - j) * np.eye(n))


class TestResidual:
    def test_linear_case_zero(self, rng):
        p = MatrixPolynomial([rng.standard_normal((2, 2)), np.eye(2)])
        assert linearization_residual(p, 2.0 - 1.0j) <= 1e-14

    def test_triple_eigenvalue_fixture_at_2(self, p3):
        assert linearization_residual(p3.poly, 2.0) <= 1e-10

    def test_ill_scaled_fixture_at_eigenvalues(self, p5):
        for z in (1.0, 2.0, 3.0, 4.0):
            assert linearization_residual(p5.poly, z) <= 1e-8

    def test_random_points_all_fixtures(self, p3, p4, p5, p6, rng):
        for pf in (p3, p4, p5, p6):
            poly = pf.poly
            c = leading_cond(poly)
            for _ in range(20):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                norm_pz = np.linalg.norm(poly.eval(z), 2)
                assert linearization_residual(poly, z) <= 1e-8 * (1 + norm_pz) * c


class TestStackedPoints:
    """ef_factors and linearization_residual at an array of points, against
    their single-point calls."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_same_bits_as_single_points(self, name, rng):
        poly = load_fixture(name).poly
        nm = poly.n * poly.m
        z = 3 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
        E, F = ef_factors(poly, z)
        r = linearization_residual(poly, z)
        assert E.shape == F.shape == (20, nm, nm) and r.shape == (20,)
        for k in range(20):
            e, f = ef_factors(poly, z[k])
            assert e.tobytes() == E[k].tobytes() and f.tobytes() == F[k].tobytes()
            one = linearization_residual(poly, z[k])
            assert type(one) is float and np.float64(one).tobytes() == r[k].tobytes()

    def test_shape_kept_and_empty(self, p6, rng):
        z = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        E, F = ef_factors(p6.poly, z)
        assert E.shape == F.shape == (4, 5, 6, 6)
        r = linearization_residual(p6.poly, z)
        assert r.shape == (4, 5)
        assert r.tobytes() == linearization_residual(p6.poly, z.ravel()).tobytes()
        E, F = ef_factors(p6.poly, np.array([], dtype=complex))
        assert E.shape == F.shape == (0, 6, 6)
        assert linearization_residual(p6.poly, []).shape == (0,)

    def test_block_size_bitwise_irrelevant(self, p3, rng, monkeypatch):
        z = 3 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        want = linearization_residual(p3.poly, z)
        # blocks of one 6 x 6 matrix: one point each
        monkeypatch.setattr(polycond.core, "_BLOCK_BYTES", 16 * 36)
        assert linearization_residual(p3.poly, z).tobytes() == want.tobytes()

    def test_memory_does_not_grow_with_points(self):
        # (n, m) = (20, 3): 400 stacked 60 x 60 products would hold 23 MiB each
        rng = np.random.default_rng(23)
        poly = MatrixPolynomial([rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
                                 for _ in range(4)])
        z = 3 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        tracemalloc.start()
        try:
            linearization_residual(poly, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_one_companion_per_call(self, p3, monkeypatch):
        calls = []
        build = polycond.linearization.companion
        monkeypatch.setattr(polycond.linearization, "companion",
                            lambda poly: calls.append(1) or build(poly))
        linearization_residual(p3.poly, np.linspace(-2, 2, 20) + 0.5j)
        assert len(calls) == 1

    def test_nonfinite_points_rejected(self, p6):
        # ef_factors at an infinite point warned "invalid value encountered";
        # a string, an int beyond the float range and a ragged list raised
        # complex()'s or NumPy's ValueError or OverflowError, and NumPy read a
        # bool inside a list as 0 or 1
        for z in (np.nan, complex(0.0, np.inf), [2.0, np.nan], np.inf):
            for call in (linearization_residual, ef_factors):
                with pytest.raises(HypothesisViolationError, match="must be finite"):
                    call(p6.poly, z)
        for z in ("a", 10 ** 400, [1, [2, 3]], [np.array(True), 2.0], [[1.0], [np.False_]]):
            for call in (linearization_residual, ef_factors):
                with pytest.raises(HypothesisViolationError) as exc:
                    call(p6.poly, z)
                assert str(exc.value) == f"points must be finite numbers, got {z!r}"
        # the samples of validate_jordan_triple pass the same check; a nested
        # list is no sequence of points
        for s in (["a"], [10 ** 400]):
            with pytest.raises(HypothesisViolationError) as exc:
                validate_jordan_triple(p6.poly, p6.triple, s)
            assert str(exc.value) == f"points must be finite numbers, got {s!r}"
        with pytest.raises(HypothesisViolationError, match=r"samples must be a sequence of points, "
                                                           r"got \[\[1, 2\]\]"):
            validate_jordan_triple(p6.poly, p6.triple, [[1, 2]])
        # no sequence at all raised list()'s TypeError
        for s in (5.0, None):
            with pytest.raises(HypothesisViolationError) as exc:
                validate_jordan_triple(p6.poly, p6.triple, s)
            assert str(exc.value) == f"samples must be a sequence of points, got {s!r}"


class TestEigenvalueUnitaryInvariance:
    def test_unitary_similarity_preserves_spectrum(self, rng):
        from helpers import random_unitary

        p = random_well_separated(rng, 3, 2)
        U = random_unitary(rng, 3)
        q = MatrixPolynomial([U.conj().T @ A @ U for A in p.coeffs])
        a = np.linalg.eigvals(companion(p))
        b = np.linalg.eigvals(companion(q))
        assert pair_max_distance(a, b) <= 1e-8
