"""Admissible perturbations: random boundary draws and the defect construction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycond.perturb
from helpers import (FIXTURE_NAMES, frame_defect_perturbation, load_fixture, random_polynomial,
                     random_unitary, simple_eigenpairs, snap_vectors)
from polycond import (
    DefectiveEigenvalueError,
    DegenerateProblemError,
    HypothesisViolationError,
    InvalidPolynomialError,
    MatrixPolynomial,
    PerturbedPolynomial,
    PolycondError,
    WeightSet,
    companion,
    cond_eigvector_free,
    cond_simple,
    cond_via_companion,
    defect_perturbation,
    dist_mult_bound,
    dist_mult_bound_adj,
    eig_vectors,
    eigenvalue_shift_samples,
    eigenvalues,
    is_admissible,
    min_gap_bound,
    perturbation_rng,
    random_perturbation,
    spectral_norm,
    spectrum,
)
from polycond.perturb import PAIRING_RTOL, _disc_count


def count_calls(monkeypatch, *names):
    """Count the calls of each named np.linalg function from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapped(*a, _f=getattr(np.linalg, name), _name=name, **k):
            calls[_name] += 1
            return _f(*a, **k)
        monkeypatch.setattr(np.linalg, name, wrapped)
    return calls


class TestIsAdmissible:
    def test_base_is_admissible_at_any_eps(self, p5):
        rep = is_admissible(p5.poly, p5.poly, 0.0, p5.weights)
        assert rep.admissible
        assert all(n == 0.0 for n in rep.delta_norms)

    def test_negative_eps_rejected(self, p5):
        for eps in (-1e-3, float("nan")):
            with pytest.raises(HypothesisViolationError, match="eps must be nonnegative"):
                is_admissible(p5.poly, p5.poly, eps, p5.weights)

    def test_printed_boundary_perturbation(self, p6, p6q):
        rep = is_admissible(p6.poly, p6q.poly, 0.3, p6.weights)
        assert rep.admissible
        assert any(rep.tight)

    def test_slightly_inflated_delta_rejected(self, p5):
        eps = 0.01
        w0 = p5.weights.weights[0]
        bump = np.zeros((2, 2), dtype=complex)
        bump[0, 1] = 1.1 * eps * w0
        q = MatrixPolynomial([p5.poly.coeffs[0] + bump, *p5.poly.coeffs[1:]])
        rep = is_admissible(p5.poly, q, eps, p5.weights)
        assert not rep.admissible
        assert rep.slack[0] < 0

    def test_perturbed_polynomial_candidate(self, p5):
        q = random_perturbation(p5.poly, 1e-3, p5.weights, seed=7)
        rep = is_admissible(p5.poly, q, 1e-3, p5.weights)
        assert rep.admissible
        assert all(rep.tight[j] for j in range(3))

    def test_foreign_base_rejected(self, p5, p6):
        q = random_perturbation(p6.poly, 1e-3, p6.weights, seed=7)
        with pytest.raises(InvalidPolynomialError):
            is_admissible(p5.poly, q, 1e-3, p5.weights)

    def test_shape_mismatch_rejected(self, p4, p5):
        with pytest.raises(InvalidPolynomialError):
            is_admissible(p5.poly, p4.poly, 0.1, p5.weights)

    def test_tolerance_margin(self, p5):
        eps = 0.01
        bump = np.zeros((2, 2), dtype=complex)
        bump[0, 1] = eps * p5.weights.weights[0] * (1 + 1e-13)
        q = MatrixPolynomial([p5.poly.coeffs[0] + bump, *p5.poly.coeffs[1:]])
        assert is_admissible(p5.poly, q, eps, p5.weights).admissible
        assert not is_admissible(p5.poly, q, eps, p5.weights, tol=1e-16).admissible


class TestStackedNorms:
    """delta_norms and is_admissible take the m+1 norms from one stacked SVD;
    they stay bitwise the per-coefficient spectral_norm values."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_bitwise_per_coefficient_spectral_norm(self, name):
        pf = load_fixture(name)     # p6 has a zero weight, so a zero delta
        for eps in (1e-8, 1e-3, 1e-2, 0.3):
            for stream in range(6):
                q = random_perturbation(pf.poly, eps, pf.weights, seed=5, stream=stream)
                # a plain polynomial is checked by its coefficient differences
                mat = MatrixPolynomial(q.coeffs)
                diffs = [A - B for A, B in zip(mat.coeffs, pf.poly.coeffs)]
                for got, deltas in (
                        (q.delta_norms, q.deltas),
                        (is_admissible(pf.poly, q, eps, pf.weights).delta_norms, q.deltas),
                        (is_admissible(pf.poly, mat, eps, pf.weights).delta_norms, diffs)):
                    want = tuple(spectral_norm(d) for d in deltas)
                    assert all(type(v) is float for v in got)
                    assert np.array(got).tobytes() == np.array(want).tobytes()


class TestRandomPerturbation:
    def test_boundary_norms_exact(self, p5):
        eps = 1e-3
        q = random_perturbation(p5.poly, eps, p5.weights, seed=11)
        for j, nj in enumerate(q.delta_norms):
            assert nj == pytest.approx(eps * p5.weights.weights[j], rel=1e-12)
        assert "leading-nonsingular" in q.certificates

    def test_bitwise_deterministic(self, p5):
        a = random_perturbation(p5.poly, 1e-2, p5.weights, seed=42, stream=3)
        b = random_perturbation(p5.poly, 1e-2, p5.weights, seed=42, stream=3)
        for da, db in zip(a.deltas, b.deltas):
            assert np.array_equal(da, db)

    def test_streams_differ(self, p5):
        a = random_perturbation(p5.poly, 1e-2, p5.weights, seed=42, stream=0)
        b = random_perturbation(p5.poly, 1e-2, p5.weights, seed=42, stream=1)
        assert not np.array_equal(a.deltas[0], b.deltas[0])

    def test_zero_weight_freezes_coefficient(self, p6):
        # w_3 = 0 for this fixture: the leading coefficient must not move
        q = random_perturbation(p6.poly, 0.5, p6.weights, seed=5)
        assert np.array_equal(q.deltas[3], np.zeros((2, 2)))
        assert spectral_norm(q.deltas[1]) == pytest.approx(0.5, rel=1e-12)

    def test_negative_eps_rejected(self, p5):
        for eps in (-1e-3, float("nan")):
            with pytest.raises(HypothesisViolationError, match="eps must be nonnegative"):
                random_perturbation(p5.poly, eps, p5.weights, seed=0)
            with pytest.raises(HypothesisViolationError, match="eps must be nonnegative"):
                eigenvalue_shift_samples(p5.poly, p5.weights, eps, 4.0, samples=2, seed=0)

    def test_materialized_spectrum_moves_continuously(self, p5):
        # tiny eps must keep the eigenvalues near {1, 2, 3, 4}
        q = random_perturbation(p5.poly, 1e-8, p5.weights, seed=3)
        vals = eigenvalues(q)
        for lam in (1.0, 2.0, 3.0, 4.0):
            assert np.min(np.abs(vals - lam)) < 1e-3


class TestDrawLayout:
    """Draws stay a pure function of (seed, stream, attempt): every delta is
    rebuilt here by the sequential recipe, the real and then the imaginary
    part for each coefficient with a nonzero weight, rescaled to the
    boundary."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_deltas_follow_sequential_recipe(self, name, eps):
        pf = load_fixture(name)
        n = pf.poly.n
        for seed, stream in ((0, 0), (7, 3), (42, 11), (12345, 1)):
            q = random_perturbation(pf.poly, eps, pf.weights, seed=seed, stream=stream)
            rng = perturbation_rng(seed, stream, 0)
            for j, w in enumerate(pf.weights.weights):
                want = np.zeros((n, n), dtype=complex)
                if eps * w != 0.0:
                    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    want = (eps * w / spectral_norm(g)) * g
                assert np.array_equal(q.deltas[j], want), (seed, stream, j)


class _ConstantDraws:
    """Stands in for a Generator: every standard_normal call returns `value`
    in the requested shape, however the draws are split into calls."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)


class TestRedraw:
    """A draw whose perturbed leading coefficient is singular is redrawn on
    the next attempt counter."""

    @staticmethod
    def problem():
        # n = 1, A_1 = 1 + 1j and w_1 = |-1 - 1j|: with every draw -1 the
        # delta of A_1 at eps = 1 is exactly -(1 + 1j), so A_1 + Delta_1 = 0
        poly = MatrixPolynomial([[[0.5]], [[1 + 1j]]])
        return poly, WeightSet([1.0, spectral_norm(np.array([[-1 - 1j]]))])

    def test_singular_first_attempt_redrawn(self, monkeypatch):
        attempts = []

        def rng(seed, stream=0, attempt=0):
            attempts.append(attempt)
            return _ConstantDraws(-1.0 if attempt == 0 else 1.0)

        monkeypatch.setattr(polycond.perturb, "perturbation_rng", rng)
        poly, w = self.problem()
        q = random_perturbation(poly, 1.0, w, seed=0)
        assert attempts == [0, 1]
        assert q.certificates == ("leading-nonsingular",)
        assert np.array_equal(q.deltas[1], np.array([[1 + 1j]]))
        assert np.array_equal(q.coeffs[1], np.array([[2 + 2j]]))

    def test_always_singular_raises(self, monkeypatch):
        attempts = []

        def rng(seed, stream=0, attempt=0):
            attempts.append(attempt)
            return _ConstantDraws(-1.0)

        monkeypatch.setattr(polycond.perturb, "perturbation_rng", rng)
        poly, w = self.problem()
        with pytest.raises(DegenerateProblemError):
            random_perturbation(poly, 1.0, w, seed=0, max_attempts=5)
        assert attempts == [0, 1, 2, 3, 4]


class TestPerturbedPolynomial:
    def test_wrong_delta_count_rejected(self, p5):
        with pytest.raises(InvalidPolynomialError):
            PerturbedPolynomial(base=p5.poly, deltas=(np.zeros((2, 2)),),
                                eps_used=0.0, weights=p5.weights)

    def test_wrong_delta_shape_rejected(self, p5):
        deltas = (np.zeros((3, 3)),) * 3
        with pytest.raises(InvalidPolynomialError):
            PerturbedPolynomial(base=p5.poly, deltas=deltas, eps_used=0.0,
                                weights=p5.weights)

    def test_materialize_adds_deltas(self, p5):
        # the perturbed polynomial is a MatrixPolynomial with coefficients
        # A_j + Delta_j; materialize() is the identity
        q = random_perturbation(p5.poly, 1e-3, p5.weights, seed=1)
        assert isinstance(q, MatrixPolynomial)
        assert q.materialize() is q
        for j in range(3):
            assert np.array_equal(q.coeffs[j], p5.poly.coeffs[j] + q.deltas[j])
        # dataclasses.replace rebuilds the sum from base and deltas
        r = dataclasses.replace(q, eps_used=2.0)
        assert r.eps_used == 2.0
        for a, b in zip(r.coeffs + r.deltas, q.coeffs + q.deltas):
            assert np.array_equal(a, b)

    def test_singular_leading_coefficient_refused_at_construction(self, p5):
        deltas = (np.zeros((2, 2)),) * 2 + (-np.asarray(p5.poly.coeffs[2]),)
        with pytest.raises(InvalidPolynomialError, match="leading coefficient"):
            PerturbedPolynomial(base=p5.poly, deltas=deltas, eps_used=1.0,
                                weights=p5.weights)


class TestDefectPerturbation:
    def test_monic_quadratic_at_minus_one(self, p4):
        poly, w = p4.poly, p4.weights
        x, y = eig_vectors(poly, -1.0)
        q = defect_perturbation(poly, w, -1.0, x, y)
        bound = dist_mult_bound(poly, w, -1.0, x, y).value
        assert q.eps_used <= bound * (1 + 1e-8)
        assert q.certificates
        # the perturbation sits on its own admissibility boundary
        rep = is_admissible(poly, q, q.eps_used, w)
        assert rep.admissible
        assert all(rep.tight)

    def test_monic_quadratic_at_complex_eigenvalue(self, p4):
        poly, w = p4.poly, p4.weights
        lam, x, y = snap_vectors(poly, 0.25 - 3.8971j)
        q = defect_perturbation(poly, w, lam, x, y)
        assert q.eps_used <= dist_mult_bound(poly, w, lam, x, y).value * (1 + 1e-8)
        assert q.certificates

    def test_multiplicity_certificate_is_real(self, p4):
        poly, w = p4.poly, p4.weights
        x, y = eig_vectors(poly, -1.0)
        q = defect_perturbation(poly, w, -1.0, x, y)
        vals = eigenvalues(q)
        close = np.sort(np.abs(vals + 1.0))
        assert close[1] <= 1e-5  # two perturbed eigenvalues within 1e-5 of -1

    def test_zero_eigenvalue_uses_constant_term_only(self, pz):
        poly, w = pz.poly, pz.weights
        x, y = eig_vectors(poly, 0.0)
        q = defect_perturbation(poly, w, 0.0, x, y)
        assert spectral_norm(q.deltas[0]) > 0
        assert np.array_equal(q.deltas[1], np.zeros((2, 2)))
        assert np.array_equal(q.deltas[2], np.zeros((2, 2)))
        assert q.certificates

    def test_delta_norm_ratios_follow_weights(self, p4):
        poly, w = p4.poly, p4.weights
        x, y = eig_vectors(poly, -1.0)
        q = defect_perturbation(poly, w, -1.0, x, y)
        ratios = [nj / wj for nj, wj in zip(q.delta_norms, w.weights) if wj > 0]
        assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)

    @pytest.mark.parametrize("which", ["x", "y"])
    def test_zero_vector_rejected(self, p4, which):
        x, y = eig_vectors(p4.poly, -1.0)
        vecs = {"x": x, "y": y}
        vecs[which] = np.zeros_like(vecs[which])
        with pytest.raises(HypothesisViolationError, match=f"{which} must be a nonzero vector"):
            defect_perturbation(p4.poly, p4.weights, -1, vecs["x"], vecs["y"])

    def test_preserved_eigenvector_and_jordan_chain(self, p4, pz):
        # lam stays an eigenvalue of Q with the same right eigenvector, and
        # Q'(lam) x lies in the range of Q(lam): a length-2 chain exists
        for pf, target in ((p4, -1.0), (p4, 0.25 - 3.8971j), (pz, 0.0)):
            poly, w = pf.poly, pf.weights
            lam, x, y = snap_vectors(poly, target)
            q = defect_perturbation(poly, w, lam, x, y)
            qx = q.eval(lam) @ x
            assert np.linalg.norm(qx) <= 1e-10 * max(1.0, spectral_norm(q.eval(lam)))
            rhs = -q.eval_derivative(lam, 1) @ x
            z, *_ = np.linalg.lstsq(q.eval(lam), rhs, rcond=None)
            residual = np.linalg.norm(q.eval(lam) @ z - rhs)
            assert residual <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_unitary_frame_independence(self, p4, rng):
        # right-multiplying every coefficient by a fixed unitary changes the
        # frame but not the geometry: eps_used is invariant
        poly, w = p4.poly, p4.weights
        lam = -1.0
        x, y = eig_vectors(poly, lam)
        base = defect_perturbation(poly, w, lam, x, y).eps_used
        for _ in range(3):
            U = random_unitary(rng, 3)
            rotated = MatrixPolynomial([np.asarray(A) @ U for A in poly.coeffs])
            xr, yr = eig_vectors(rotated, lam)
            got = defect_perturbation(rotated, w, lam, xr, yr).eps_used
            assert got == pytest.approx(base, rel=1e-10)

    def test_certified_polynomial_is_the_materialized_one(self, p4, pz, monkeypatch):
        builds = []
        init = MatrixPolynomial.__init__
        monkeypatch.setattr(MatrixPolynomial, "__init__",
                            lambda self, coeffs: builds.append(1) or init(self, coeffs))
        for pf, target in ((p4, -1.0), (p4, 0.25 - 3.8971j), (pz, 0.0)):
            poly, w = pf.poly, pf.weights
            lam, x, y = snap_vectors(poly, target)
            builds.clear()
            q = defect_perturbation(poly, w, lam, x, y)
            assert len(builds) == 1
            assert q.materialize() is q
            for A, B, D in zip(q.coeffs, poly.coeffs, q.deltas):
                assert np.array_equal(A, B + D)

    def test_non_eigenvector_input_rejected(self, p4):
        x, y = eig_vectors(p4.poly, -1.0)
        with pytest.raises(HypothesisViolationError):
            defect_perturbation(p4.poly, p4.weights, -1.0, np.roll(x, 1), y)

    def test_defective_input_rejected(self, p3):
        # the eigenvalue 1 is multiple, so some hypothesis gate must fire
        # (here the derivative-singularity one, which its chain trips first)
        from polycond import DefectiveEigenvalueError

        x, y = eig_vectors(p3.poly, 1.0)
        with pytest.raises((DefectiveEigenvalueError, HypothesisViolationError)):
            defect_perturbation(p3.poly, WeightSet([1, 1, 1]), 1.0, x, y)


    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_takes_no_eigensolve(self, monkeypatch, name):
        # the pairing certificate is a contour count, not a second eigensolve
        pf = load_fixture(name)
        pairs = list(simple_eigenpairs(pf.poly, spectrum(pf.poly)))
        calls = count_calls(monkeypatch, "eigvals")
        for _, lam, x, y in pairs:
            try:
                q = defect_perturbation(pf.poly, pf.weights, lam, x, y)
            except PolycondError:
                continue
            assert q.certificates
            assert calls["eigvals"] == 0, lam

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_pairing_count_is_the_eigensolve_count(self, name):
        pf = load_fixture(name)
        for _, lam, x, y in simple_eigenpairs(pf.poly, spectrum(pf.poly)):
            try:
                q = defect_perturbation(pf.poly, pf.weights, lam, x, y)
            except PolycondError:
                continue
            r = PAIRING_RTOL * max(1.0, abs(lam))
            near = int(np.sum(np.abs(eigenvalues(q) - lam) < r))
            assert ("eigenvalue-pairing" in q.certificates) == (near >= 2)
            assert _disc_count(q, lam, r) in (near, None)

    def test_refused_count_is_reported(self, monkeypatch, p4):
        # with the count refused and no rank drop, the error names the disc
        monkeypatch.setattr(polycond.perturb, "_disc_count", lambda *a: None)
        monkeypatch.setattr(polycond.perturb, "RANK_DROP_RTOL", 0.0)
        x, y = eig_vectors(p4.poly, -1.0)
        with pytest.raises(PolycondError, match="contour count of perturbed eigenvalues "
                                                "within 1.000e-05 is refused"):
            defect_perturbation(p4.poly, p4.weights, -1.0, x, y)


class TestRankOneConstruction:
    """The closed-form rank-one Dhat of defect_perturbation against the
    unitary-frame construction of helpers.frame_defect_perturbation."""

    @staticmethod
    def compare(poly, weights, mp):
        """Check every simple eigenvalue that passes the hypothesis gates;
        returns how many were checked."""
        # certification is not under test here: with a rank-drop gate of 1
        # every built perturbation is certified, so none is refused after it
        mp.setattr(polycond.perturb, "RANK_DROP_RTOL", 1.0)
        checked = 0
        for _, lam, x, y in simple_eigenpairs(poly, spectrum(poly)):
            try:
                q = defect_perturbation(poly, weights, lam, x, y)
            except (HypothesisViolationError, DefectiveEigenvalueError):
                continue
            deltas, eps_used = frame_defect_perturbation(poly, weights, lam, x, y)
            assert q.eps_used == pytest.approx(eps_used, rel=1e-12, abs=0), lam
            scale = max(np.abs(d).max() for d in deltas)
            for got, want in zip(q.deltas, deltas):
                assert np.abs(got - want).max() <= 1e-12 * scale, lam
            checked += 1
        return checked

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_matches_unitary_frame_reference(self, monkeypatch, name):
        # every simple eigenvalue is compared but p4's 0, where P'(0) is singular
        pf = load_fixture(name)
        lams = [lam for _, lam, _, _ in simple_eigenpairs(pf.poly, spectrum(pf.poly))]
        s = [np.linalg.svd(pf.poly.eval_derivative(lam), compute_uv=False) for lam in lams]
        regular = sum(1 for v in s if v[-1] > 1e-12 * v[0])
        assert self.compare(pf.poly, pf.weights, monkeypatch) == regular

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6), m=st.integers(1, 4))
    def test_matches_unitary_frame_reference_on_seeded_polynomials(self, seed, n, m):
        poly = random_polynomial(np.random.default_rng(seed), n, m)
        with pytest.MonkeyPatch.context() as mp:
            assert self.compare(poly, WeightSet.from_coefficient_norms(poly), mp) > 0

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_rank_one_without_qr(self, monkeypatch, name):
        pf = load_fixture(name)
        pairs = list(simple_eigenpairs(pf.poly, spectrum(pf.poly)))
        calls = count_calls(monkeypatch, "qr")
        for _, lam, x, y in pairs:
            try:
                q = defect_perturbation(pf.poly, pf.weights, lam, x, y)
            except PolycondError:
                continue
            for d in q.deltas:
                s = np.linalg.svd(d, compute_uv=False)
                assert s[0] == 0.0 or s[1] <= 1e-12 * s[0], lam
        assert calls["qr"] == 0


def planted(seed: int, n: int, m: int):
    """U diag(p_1(z), ..., p_n(z)) V with seeded unitary U, V and scalar
    polynomials p_i whose nm roots lie around a centre c at known distances:
    the first three (as many as nm allows) at rho [1, 1.5], 20 rho [1, 1.5]
    and 400 rho [1, 1.5], the others at 8000 rho [1, 1.5].  A disc of radius
    rho 20^(k - 1/2) 1.5^(1/2) around c then holds exactly k roots, with the
    nearest root outside or inside it at a distance ratio of at least 3.6.
    Returns the polynomial, c, rho and the generator for further draws."""
    rng = np.random.default_rng(seed)
    c = complex(rng.standard_normal(), rng.standard_normal())
    rho = rng.uniform(1e-4, 1e-3)
    level = np.minimum(np.arange(n * m), 3)
    dist = rho * 20.0 ** level * rng.uniform(1.0, 1.5, n * m)
    roots = c + dist * np.exp(2j * np.pi * rng.uniform(size=n * m))
    slots = rng.permutation(n * m).reshape(n, m)
    coeffs = np.zeros((m + 1, n, n), dtype=complex)
    for i in range(n):
        scale = rng.uniform(0.5, 2.0)
        coeffs[:, i, i] = scale * np.poly(roots[slots[i]])[::-1]
    U, V = random_unitary(rng, n), random_unitary(rng, n)
    return MatrixPolynomial([U @ C @ V for C in coeffs]), c, rho, rng


class TestDiscCount:
    """The argument-principle count behind the pairing certificate."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5), m=st.integers(1, 3))
    def test_matches_eigensolve_and_refuses_near_boundary(self, seed, n, m):
        poly, c, rho, rng = planted(seed, n, m)
        vals = np.linalg.eigvals(companion(poly))
        for k in range(min(3, n * m) + 1):
            r = rho * 20.0 ** (k - 0.5) * 1.5 ** 0.5
            assert int(np.sum(np.abs(vals - c) < r)) == k
            assert _disc_count(poly, c, r) == k
        # a circle through an eigenvalue, to within 1e-3 r, gives no count
        for v in vals:
            r = abs(v - c) * (1.0 + rng.uniform(-1e-3, 1e-3))
            assert _disc_count(poly, c, r) is None, (v, r)

    def test_aliased_integer_refused_by_sub_rule(self):
        # one root at a = 0.5^(1/16) on the unit circle's node ray: the 16-node
        # rule reads 1 / (1 - a^16) = 2 exactly, the 8-node one 3.41
        a = 0.5 ** (1 / 16)
        poly = MatrixPolynomial([[[-a]], [[1.0]]])
        assert _disc_count(poly, 0.0, 1.0) is None
        assert _disc_count(poly, 0.0, 4.0) == 1

    def test_agreeing_non_integral_rules_refused(self):
        # roots a and a e^(i pi / 8), a^16 = 0.3: both rules read 2 / 0.7
        a = 0.3 ** (1 / 16)
        b = a * np.exp(1j * np.pi / 8)
        poly = MatrixPolynomial([[[a * b]], [[-(a + b)]], [[1.0]]])
        assert _disc_count(poly, 0.0, 1.0) is None
        assert _disc_count(poly, 0.0, 4.0) == 2

    def test_singular_node_refused(self):
        # P(z) = z - 1 vanishes at the node z = c + r of the circle |z| = 1
        poly = MatrixPolynomial([[[-1.0]], [[1.0]]])
        assert _disc_count(poly, 0.0, 1.0) is None
        assert _disc_count(poly, 0.0, 0.5) == 0
        assert _disc_count(poly, 0.0, 2.0) == 1

    def test_one_batched_evaluation(self, monkeypatch):
        # P and P' at all 16 nodes in one call each
        calls = []
        for name in ("eval", "eval_derivative"):
            def logged(self, *a, _f=getattr(MatrixPolynomial, name), _name=name, **k):
                calls.append(_name)
                return _f(self, *a, **k)
            monkeypatch.setattr(MatrixPolynomial, name, logged)
        assert _disc_count(MatrixPolynomial([[[-0.5]], [[1.0]]]), 0.0, 1.0) == 1
        assert sorted(calls) == ["eval", "eval_derivative"]


class TestSpectralCallCounts:
    def test_one_eigensolve_and_at_most_26_svds(self, monkeypatch):
        # one (20, 3) op of the spectral benchmark: all routes and both
        # distance bounds at 8 eigenvalues, then one defect perturbation
        n, m = 20, 3
        rng = perturbation_rng(1, 400)
        coeffs = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                  / np.sqrt(2 * n) for _ in range(m + 1)]
        coeffs[-1] = coeffs[-1] + 3.0 * np.eye(n)
        poly = MatrixPolynomial(coeffs)
        w = WeightSet.from_coefficient_norms(poly)
        picks = perturbation_rng(1, 500).choice(n * m, 8, replace=False)
        calls = count_calls(monkeypatch, "eigvals", "svd")
        sp = spectrum(poly)
        for i in picks.tolist():
            lam = complex(sp.eigenvalues[i])
            x, y = eig_vectors(poly, lam, values=sp.eigenvalues)
            cond_simple(poly, w, lam, x, y)
            cond_via_companion(poly, w, lam, x, y)
            cond_eigvector_free(poly, w, i, sp)
            min_gap_bound(poly, w, i, sp)
            dist_mult_bound(poly, w, lam, x, y)
            dist_mult_bound_adj(poly, w, i, sp, x, y)
            if i == picks[0]:
                first = (lam, x, y)
        assert defect_perturbation(poly, w, *first).certificates
        assert calls["eigvals"] == 1
        assert calls["svd"] <= 26, calls


class TestRng:
    def test_counter_based_reproducibility(self):
        a = perturbation_rng(123, stream=4).standard_normal(5)
        b = perturbation_rng(123, stream=4).standard_normal(5)
        assert np.array_equal(a, b)

    def test_attempt_changes_sequence(self):
        a = perturbation_rng(123, stream=4, attempt=0).standard_normal(5)
        b = perturbation_rng(123, stream=4, attempt=1).standard_normal(5)
        assert not np.array_equal(a, b)


class TestShiftSamples:
    def test_shape_and_determinism(self, p5):
        a = eigenvalue_shift_samples(p5.poly, p5.weights, 1e-6, 4.0, samples=8, seed=9)
        b = eigenvalue_shift_samples(p5.poly, p5.weights, 1e-6, 4.0, samples=8, seed=9)
        assert a.shape == (8,)
        assert np.array_equal(a, b)
        assert np.all(a >= 0)

    def test_stream_base_offsets_overlap(self, p5):
        a = eigenvalue_shift_samples(p5.poly, p5.weights, 1e-6, 4.0, samples=4,
                                     seed=9, stream_base=2)
        b = eigenvalue_shift_samples(p5.poly, p5.weights, 1e-6, 4.0, samples=6, seed=9)
        assert np.allclose(a, b[2:])
