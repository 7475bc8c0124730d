"""Eigenvalues, eigenvectors, clustering, and Jordan-triple validation."""

import tracemalloc

import numpy as np
import pytest

import polycond.core
from helpers import (
    FIXTURE_NAMES,
    diagonalizable_triple,
    load_fixture,
    pair_max_distance,
    random_well_separated,
    reference_jordan_matrix,
    reference_validate_jordan_triple,
    simple_eigenpairs,
    spectral_problem,
)
from polycond import (
    HypothesisViolationError,
    InvalidTripleError,
    JordanBlock,
    JordanTriple,
    MatrixPolynomial,
    NotAnEigenvalueError,
    WeightSet,
    cluster,
    companion_vectors,
    cond_via_companion,
    eig_vectors,
    eigenvalues,
    nearest_eigenvalue,
    spectrum,
    validate_jordan_triple,
)


class TestEigenvalues:
    def test_diagonal_linear(self):
        p = MatrixPolynomial([np.diag([-1.0, -2.0]), np.eye(2)])
        assert np.allclose(eigenvalues(p), [1.0, 2.0], atol=1e-14)

    def test_ill_scaled_fixture(self, p5):
        assert pair_max_distance(eigenvalues(p5.poly), [1, 2, 3, 4]) <= 1e-6

    def test_monic_quadratic_fixture(self, p4):
        want = [0.0, -1.0, 0.25 + 3.8971j, 0.25 - 3.8971j, 5j, -5j]
        assert pair_max_distance(eigenvalues(p4.poly), want) <= 1e-3

    def test_count_is_nm(self, p3, p4, p5, p6):
        for pf in (p3, p4, p5, p6):
            assert len(eigenvalues(pf.poly)) == pf.poly.n * pf.poly.m

    def test_canonical_order_deterministic(self, p4):
        a = eigenvalues(p4.poly)
        b = eigenvalues(p4.poly)
        assert np.array_equal(a, b)
        for u, v in zip(a, a[1:]):
            assert u.real < v.real or (u.real == v.real and u.imag <= v.imag)

    def test_result_read_only(self, p5):
        vals = eigenvalues(p5.poly)
        with pytest.raises(ValueError):
            vals[0] = 0.0


class TestCluster:
    def test_pair_plus_singleton(self):
        cs = cluster([1.0, 1.0 + 1e-9, 5.0], tol=1e-6)
        sizes = sorted(c.size for c in cs)
        assert sizes == [1, 2]

    def test_transitive_chaining(self):
        # 0 and 1.8*tol are linked through the midpoint even though their
        # direct distance exceeds tol
        tol = 1e-3
        cs = cluster([0.0, 0.9 * tol, 1.8 * tol], tol=tol)
        assert len(cs) == 1
        assert cs[0].size == 3

    def test_cluster_center_is_mean(self):
        cs = cluster([1.0, 1.0 + 2e-9], tol=1e-6)
        assert cs[0].center == pytest.approx(1.0 + 1e-9, abs=1e-15)

    def test_quintuple_fixture(self, p3):
        cs = cluster(eigenvalues(p3.poly), tol=1e-4)
        by_size = sorted((c.size, c.center) for c in cs)
        assert [s for s, _ in by_size] == [1, 5]
        assert by_size[0][1] == pytest.approx(-1.0, abs=1e-6)
        assert by_size[1][1] == pytest.approx(1.0, abs=1e-6)

    def test_double_eigenvalue_fixture(self, p6):
        cs = cluster(eigenvalues(p6.poly), tol=1e-6)
        assert sorted(c.size for c in cs) == [2, 2, 2]
        centers = sorted(c.center.real for c in cs)
        assert np.allclose(centers, [-1.0, 0.0, 1.0], atol=1e-9)

    def test_sizes_sum_to_nm(self, p3, p4, p5, p6):
        for pf in (p3, p4, p5, p6):
            sp = spectrum(pf.poly)
            assert sum(c.size for c in sp.clusters) == pf.poly.n * pf.poly.m

    def test_matches_pairwise_closure(self, rng):
        # points on a half-integer lattice: many pairs sit exactly at the
        # tolerance, and many share a real part
        for tol in (1e-9, 0.5, 0.6, 1.0):
            v = (rng.integers(-6, 7, 80) + 1j * rng.integers(-6, 7, 80)) / 2
            reach = np.array([[abs(a - b) <= tol for b in v] for a in v]).astype(int)
            while True:
                grown = (reach @ reach > 0).astype(int)
                if np.array_equal(grown, reach):
                    break
                reach = grown
            want = {tuple(np.nonzero(row)[0]) for row in reach}
            assert {c.indices for c in cluster(v, tol)} == want

    def test_empty_input(self):
        assert cluster([], tol=1e-6) == ()

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), "a"])
    def test_nonpositive_or_nan_tol_rejected(self, tol, p6):
        # a NaN tolerance would otherwise split every multiple eigenvalue;
        # polycond's own error, not a plain ValueError
        want = ("a real number" if isinstance(tol, str) else "finite" if tol != tol
                else "positive")
        with pytest.raises(HypothesisViolationError, match=f"clustering tolerance must be {want}"):
            cluster([1.0, 1.0, 2.0], tol)
        with pytest.raises(HypothesisViolationError, match=f"clustering tolerance must be {want}"):
            spectrum(p6.poly, cluster_tol=tol)

    def test_default_tol_scales_with_radius(self):
        # the spectrum keeps the tolerance it clustered with
        for root, tol in ((0.5, 1e-6), (100.0, 1e-4)):
            assert spectrum(MatrixPolynomial([[[-root]], [[1.0]]])).cluster_tol == pytest.approx(tol)

    def test_given_tol_kept_as_a_float(self, p6):
        for tol in (1e-3, 1, np.float32(0.5)):
            sp = spectrum(p6.poly, cluster_tol=tol)
            assert type(sp.cluster_tol) is float and sp.cluster_tol == float(tol)


class TestNearestEigenvalue:
    def test_snaps_within_tol(self, p5):
        vals = eigenvalues(p5.poly)
        i = nearest_eigenvalue(vals, 4.0 + 1e-9j)
        assert vals[i] == pytest.approx(4.0, abs=1e-6)

    def test_rejects_far_point(self, p5):
        with pytest.raises(NotAnEigenvalueError):
            nearest_eigenvalue(eigenvalues(p5.poly), 10.0)

    def test_explicit_tol(self, p5):
        vals = eigenvalues(p5.poly)
        with pytest.raises(NotAnEigenvalueError):
            nearest_eigenvalue(vals, 4.01, tol=1e-6)
        # a NaN tol snapped to nothing; it is refused as no tolerance
        with pytest.raises(HypothesisViolationError, match=r"^tol must be finite \(no NaN/Inf\), got nan$"):
            nearest_eigenvalue(vals, 4.01, tol=float("nan"))
        assert vals[nearest_eigenvalue(vals, 4.01, tol=0.1)] == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("snap", [
        lambda poly, tol: nearest_eigenvalue(eigenvalues(poly), 4.01, tol=tol),
        lambda poly, tol: eig_vectors(poly, 4.01, tol=tol),
    ], ids=["nearest_eigenvalue", "eig_vectors"])
    def test_tol_that_is_no_real_number_rejected(self, p5, snap):
        # a string raised NumPy's UFuncTypeError from the distance comparison
        for tol in ("a", 1e-3j, [0.1]):
            with pytest.raises(HypothesisViolationError) as exc:
                snap(p5.poly, tol)
            assert str(exc.value) == f"tol must be a real number, got {tol!r}"
        # an int beyond the float range overflowed in the distance comparison
        with pytest.raises(HypothesisViolationError) as exc:
            snap(p5.poly, 10 ** 400)
        assert str(exc.value) == f"tol must be a real number, got {10 ** 400!r}"
        for tol in (float("nan"), -1.0, float("inf")):
            with pytest.raises(HypothesisViolationError, match="^tol must be (nonnegative|finite)"):
                snap(p5.poly, tol)

    @pytest.mark.parametrize("snap", [
        lambda poly, lam: nearest_eigenvalue(eigenvalues(poly), lam),
        lambda poly, lam: eig_vectors(poly, lam),
    ], ids=["nearest_eigenvalue", "eig_vectors"])
    def test_lam_that_is_no_finite_number_rejected(self, p5, snap):
        # "a" raised complex()'s ValueError and 10**400 its OverflowError
        for lam in ("a", 10 ** 400, None, [4.0]):
            with pytest.raises(HypothesisViolationError) as exc:
                snap(p5.poly, lam)
            assert str(exc.value) == f"lam must be a finite number, got {lam!r}"
        # a NaN lam snapped to nothing (NotAnEigenvalueError)
        for lam in (complex(np.nan, 0.0), np.inf):
            with pytest.raises(HypothesisViolationError, match="lam must be finite"):
                snap(p5.poly, lam)


class TestEigVectors:
    def test_diagonal_linear(self):
        p = MatrixPolynomial([np.diag([-1.0, -2.0]), np.eye(2)])
        x, y = eig_vectors(p, 1.0)
        assert abs(x[0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(y[0]) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_and_residuals(self, p4, p5):
        for pf, lams in ((p4, [-1.0, 5j]), (p5, [1.0, 2.0, 3.0, 4.0])):
            poly = pf.poly
            scale = max(poly.coefficient_norms())
            for lam in lams:
                x, y = eig_vectors(poly, lam)
                assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
                bound = 1e-8 * scale * max(1.0, abs(lam) ** poly.m)
                assert np.linalg.norm(poly.eval(lam) @ x) <= bound
                assert np.linalg.norm(y.conj() @ poly.eval(lam)) <= bound

    def test_second_component_dominant_at_4(self, p5):
        x, _ = eig_vectors(p5.poly, 4.0)
        assert abs(x[1]) > abs(x[0])

    def test_not_an_eigenvalue(self, p5):
        with pytest.raises(NotAnEigenvalueError):
            eig_vectors(p5.poly, 2.5)
        with pytest.raises(NotAnEigenvalueError):
            eig_vectors(p5.poly, 1e6, tol=1.0)


class TestCompanionVectors:
    def test_linear_case_blocks(self, rng):
        A = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        p = MatrixPolynomial([rng.standard_normal((2, 2)), A])
        lam = complex(eigenvalues(p)[0])
        x, y = eig_vectors(p, lam)
        right, left = companion_vectors(p, lam, x, y)
        assert np.allclose(right, x)
        assert np.allclose(left, A.conj().T @ y)

    def test_right_vector_block_structure(self, p6):
        lam = 1.0
        x, y = eig_vectors(p6.poly, lam)
        right, _ = companion_vectors(p6.poly, lam, x, y)
        n = p6.poly.n
        for r in range(p6.poly.m):
            assert np.allclose(right[r * n:(r + 1) * n], lam**r * x, atol=1e-12)

    def test_coupling_identity_all_fixtures(self, p4, p5, p6, pz):
        for pf in (p4, p5, p6, pz):
            poly = pf.poly
            sp = spectrum(poly)
            for _, lam, x, y in simple_eigenpairs(poly, sp):
                right, left = companion_vectors(poly, lam, x, y)
                lhs = left.conj() @ right
                rhs = y.conj() @ poly.eval_derivative(lam, 1) @ x
                assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)

    def test_vectors_of_n_entries_required(self, p5):
        # n = 2: an x of 3 entries gave a right vector of 6, a y of 3 a left one of 6
        x, y = eig_vectors(p5.poly, 4.0)
        for args, name, size in (((np.r_[x, 1.0], y), "x", 3), ((x, np.r_[y, 1.0]), "y", 3),
                                 ((x[:1], y), "x", 1)):
            with pytest.raises(HypothesisViolationError) as exc:
                companion_vectors(p5.poly, 4.0, *args)
            assert str(exc.value) == f"{name} must be a vector of n = 2 entries, got {size}"

    def test_depends_on_values_not_layout(self):
        # y as a strided column view of U and as a contiguous copy of it: the
        # (50, 4) problem of the spectral benchmark, where E_r(lam)* @ y once
        # differed in the last bits between the two
        poly = spectral_problem(1, 401, 50, 4)
        w = WeightSet.from_coefficient_norms(poly)
        for lam in eigenvalues(poly)[::5]:
            lam = complex(lam)
            U, _, Vh = np.linalg.svd(poly.eval(lam))
            x, y = Vh[-1].conj(), U[:, -1]
            assert not y.flags.c_contiguous
            for got, want in zip(companion_vectors(poly, lam, x, y),
                                 companion_vectors(poly, lam, x, y.copy())):
                assert got.tobytes() == want.tobytes(), lam
            assert (cond_via_companion(poly, w, lam, x, y)
                    == cond_via_companion(poly, w, lam, x, y.copy())), lam


class TestJordanTriple:
    def test_block_requires_positive_size(self):
        with pytest.raises(InvalidTripleError):
            JordanBlock(eigenvalue=1.0, size=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(1.0, -float("inf"))])
    def test_block_requires_finite_eigenvalue(self, value):
        # a NaN block would otherwise reach the stacked-matrix SVD as a bare LinAlgError
        with pytest.raises(InvalidTripleError, match="finite eigenvalue"):
            JordanBlock(eigenvalue=value, size=1)
        with pytest.raises(InvalidTripleError, match="finite eigenvalue"):
            JordanTriple(np.eye(2), [(value, 1), (2.0, 1)], np.eye(2))

    def test_jordan_matrix_assembly(self):
        t = JordanTriple(
            X=np.array([[1.0, 0.0, 0.25, 0.5], [0.0, 1.0, 0.5, 1.0]]),
            blocks=[JordanBlock(2.0, 2), JordanBlock(-1.0, 1), JordanBlock(3.0, 1)],
            Y=np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, -1.0]]),
        )
        want = np.array([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, 3]],
                        dtype=complex)
        assert np.array_equal(t.J, want)
        assert t.max_block_size == 2

    def test_jordan_matrix_same_bits_as_block_loop(self, p3, p6):
        blocks = [JordanBlock(-0.0, 3), JordanBlock(1 - 2j, 1), JordanBlock(-0.5, 2)]
        t = JordanTriple(np.eye(2, 6) + np.eye(2, 6, 2) + np.eye(2, 6, 4), blocks,
                         np.eye(6, 2) + np.eye(6, 2, -3))
        for triple in (p3.triple, p6.triple, t):
            assert triple.J.tobytes() == reference_jordan_matrix(triple.blocks).tobytes()

    def test_rank_deficient_stack_rejected(self):
        X = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidTripleError):
            JordanTriple(X, [JordanBlock(1.0, 1), JordanBlock(1.0, 1)], X.T)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidTripleError):
            JordanTriple(np.eye(2), [JordanBlock(1.0, 1)], np.eye(2))

    def test_printed_triple_quintuple_fixture(self, p3):
        res = validate_jordan_triple(p3.poly, p3.triple, [2.0, -3.0, 1 + 2j])
        assert res <= 1e-8

    def test_printed_triple_cubic_fixture(self, p6):
        res = validate_jordan_triple(p6.poly, p6.triple, [2.0, 0.5j, -1 + 1j])
        assert res <= 1e-8

    def test_eigendecomposition_triple_linear(self, rng):
        A = rng.standard_normal((3, 3))
        p = MatrixPolynomial([-A, np.eye(3)])
        t = diagonalizable_triple(p)
        res = validate_jordan_triple(p, t, [5.0, 2j, -4.0 + 1j])
        assert res <= 1e-10

    def test_eigendecomposition_triple_random_quadratic(self, rng):
        p = random_well_separated(rng, 2, 2)
        t = diagonalizable_triple(p)
        samples = [30.0, 25j, -30.0 - 5j]
        assert validate_jordan_triple(p, t, samples) <= 1e-8

    def test_samples_on_spectrum_rejected(self, p5):
        with pytest.raises(HypothesisViolationError):
            validate_jordan_triple(p5.poly, diagonalizable_triple(p5.poly), [1.0, 2.0])

    def test_empty_sample_list_rejected(self, p6):
        # refused as empty, not as "all 0 samples are within tolerance"
        with pytest.raises(HypothesisViolationError, match="no sample points given"):
            validate_jordan_triple(p6.poly, p6.triple, [])
        for bad in (np.nan, complex(2.0, np.inf)):
            with pytest.raises(HypothesisViolationError, match="must be finite"):
                validate_jordan_triple(p6.poly, p6.triple, [bad, 2.0])

    def test_wrong_size_triple_rejected(self, p5, p6):
        with pytest.raises(InvalidTripleError):
            validate_jordan_triple(p5.poly, p6.triple, [10.0])

    def test_corrupted_triple_fails_validation(self, p6):
        bad = JordanTriple(p6.triple.X, p6.triple.blocks, 2.0 * p6.triple.Y)
        assert validate_jordan_triple(p6.poly, bad, [2.0, 0.5j]) > 0.1


class TestTripleValidationReference:
    """validate_jordan_triple, which takes every sample in one batch, against
    the per-sample loop in helpers.reference_validate_jordan_triple."""

    @pytest.mark.parametrize("name", ["p3", "p6"])
    def test_same_bits_and_refusals(self, name, rng):
        pf = load_fixture(name)
        vals = eigenvalues(pf.poly)
        for k in range(30):
            count = int(rng.integers(1, 25))
            z = 3 * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
            on = [0, count // 2, count][k % 3]      # none, some or all on eigenvalues
            z[:on] = vals[rng.integers(0, len(vals), on)]
            if on == count:
                with pytest.raises(HypothesisViolationError) as want:
                    reference_validate_jordan_triple(pf.poly, pf.triple, z)
                with pytest.raises(HypothesisViolationError) as got:
                    validate_jordan_triple(pf.poly, pf.triple, z)
                assert str(got.value) == str(want.value)
                continue
            got = validate_jordan_triple(pf.poly, pf.triple, z)
            want = reference_validate_jordan_triple(pf.poly, pf.triple, z)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (k, on)

    def test_sample_on_a_wrong_eigenvalue_refused(self, p6):
        # every block eigenvalue moved by 7: at 7 P is far from singular, and
        # zI - J is exactly singular; the solve leaked LinAlgError
        t = p6.triple
        moved = JordanTriple(t.X, [JordanBlock(b.eigenvalue + 7, b.size) for b in t.blocks], t.Y)
        for samples in ([7 + 0j], [2.0, 7.0, 3j]):
            with pytest.raises(InvalidTripleError) as exc:
                validate_jordan_triple(p6.poly, moved, samples)
            assert str(exc.value) == "sample (7+0j) is an eigenvalue of the triple's J but not of P"
        assert validate_jordan_triple(p6.poly, moved, [2.0, 3j]) > 1e-2

    def test_twenty_samples_take_two_svds(self, p3, monkeypatch):
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        assert validate_jordan_triple(p3.poly, p3.triple, 3 * np.exp(0.3j * np.arange(20))) <= 1e-8
        assert len(calls) == 2

    def test_second_svd_takes_one_matrix_per_sample(self, p3, monkeypatch):
        # ||P(z)^-1|| = 1/s_min(P(z)) comes from the first SVD; the second
        # took P(z)^-1 as well, 40 matrices for 20 samples
        svd, counts = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: counts.append(len(a)) or svd(a, *r, **k))
        validate_jordan_triple(p3.poly, p3.triple, 3 * np.exp(0.3j * np.arange(20)))
        assert counts == [20, 20]

    def test_block_size_bitwise_irrelevant(self, p3, rng, monkeypatch):
        vals = eigenvalues(p3.poly)
        z = 3 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        z[::7] = vals[:6]                   # skipped samples, in several blocks
        want = validate_jordan_triple(p3.poly, p3.triple, z)
        # blocks of one 6 x 6 matrix: one sample each
        monkeypatch.setattr(polycond.core, "_BLOCK_BYTES", 16 * 36)
        got = validate_jordan_triple(p3.poly, p3.triple, z)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        with pytest.raises(HypothesisViolationError, match="all 3 samples"):
            validate_jordan_triple(p3.poly, p3.triple, vals[:3])

    def test_memory_does_not_grow_with_samples(self):
        # (n, m) = (20, 3): one stack of all 400 samples held 56 MiB
        rng = np.random.default_rng(23)
        poly = MatrixPolynomial([rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
                                 for _ in range(4)])
        triple = diagonalizable_triple(poly)
        z = 3 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        tracemalloc.start()
        try:
            validate_jordan_triple(poly, triple, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestEigenproblemCond:
    def test_identity_triple(self):
        p = MatrixPolynomial([np.diag([-1.0, -2.0]), np.eye(2)])
        t = JordanTriple(np.eye(2), [JordanBlock(1.0, 1), JordanBlock(2.0, 1)], np.eye(2))
        assert validate_jordan_triple(p, t, [5.0, -3.0]) <= 1e-12
        assert t.norm_product == pytest.approx(1.0)

    def test_cubic_fixture_value(self, p6):
        assert p6.triple.norm_product == pytest.approx(6.4183, abs=1e-3)

    def test_matches_svd_oracle(self, p3):
        t = p3.triple
        want = np.linalg.svd(t.X, compute_uv=False)[0] * np.linalg.svd(t.Y, compute_uv=False)[0]
        assert t.norm_product == pytest.approx(want, rel=1e-12)


class TestSpectrumObject:
    def test_simple_flags_and_vectors(self, p5):
        sp = spectrum(p5.poly)
        assert all(sp.cluster_of(i).is_simple for i in range(4))

    def test_multiple_eigenvalue_carries_no_vectors(self, p3):
        sp = spectrum(p3.poly, cluster_tol=1e-4)
        simple = [c for c in sp.clusters if c.is_simple]
        assert len(simple) == 1

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_takes_no_svd(self, monkeypatch, name):
        # eigenvectors come from eig_vectors on demand, never from spectrum
        poly = load_fixture(name).poly
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        spectrum(poly)
        assert calls == []

    def test_double_cluster_means(self, p6):
        sp = spectrum(p6.poly)
        centers = sorted(c.center.real for c in sp.clusters)
        assert np.allclose(centers, [-1.0, 0.0, 1.0], atol=1e-9)
