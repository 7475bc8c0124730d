"""Admissible perturbations: random boundary draws and the defect construction."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycond.core
import polycond.perturb
import polycond.spectra
from helpers import (FIXTURE_NAMES, frame_defect_perturbation, load_fixture, random_polynomial,
                     random_unitary, reference_shift_samples, simple_eigenpairs, snap_vectors,
                     spectral_problem)
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
    singular_values,
    spectral_norm,
    spectrum,
)
from polycond.perturb import PAIRING_RTOL
from polycond.spectra import _count


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
        for eps, want in ((-1e-3, "eps must be nonnegative"), (float("nan"), "eps must be finite")):
            with pytest.raises(HypothesisViolationError, match=want):
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

    def test_base_extending_the_base_rejected(self, p5):
        # a base whose first coefficients are p5's is still another base
        longer = MatrixPolynomial([*p5.poly.coeffs, np.eye(2)])
        q = random_perturbation(longer, 1e-3, WeightSet([1.0] * 4), seed=0)
        with pytest.raises(InvalidPolynomialError, match="different base polynomial"):
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
        for eps, want in ((-1e-3, "eps must be nonnegative"), (float("nan"), "eps must be finite")):
            with pytest.raises(HypothesisViolationError, match=want):
                random_perturbation(p5.poly, eps, p5.weights, seed=0)
            with pytest.raises(HypothesisViolationError, match=want):
                eigenvalue_shift_samples(p5.poly, p5.weights, eps, 4.0, samples=2, seed=0)
        # the shift samples' other arguments: a non-finite lam (which gave
        # [nan ...] or [inf ...]) and a samples that is no nonnegative integer
        for lam in (float("nan"), complex(4.0, float("inf")), float("-inf")):
            with pytest.raises(HypothesisViolationError, match="lam must be finite"):
                eigenvalue_shift_samples(p5.poly, p5.weights, 1e-3, lam, samples=2, seed=0)
        for samples in (-1, True, False, 2.0, "2"):
            with pytest.raises(HypothesisViolationError, match="samples must be a nonnegative integer"):
                eigenvalue_shift_samples(p5.poly, p5.weights, 1e-3, 4.0, samples=samples, seed=0)
        assert eigenvalue_shift_samples(p5.poly, p5.weights, 1e-3, 4.0, samples=np.int64(2),
                                        seed=0).shape == (2,)
        assert eigenvalue_shift_samples(p5.poly, p5.weights, 1e-3, 4.0, samples=0,
                                        seed=0).shape == (0,)
        # a seed, stream or stream_base that is no nonnegative integer, refused
        # before any draw (it leaked NumPy's ValueError or TypeError)
        for bad in (-1, 1.5, True, "0"):
            for name, call in (
                    ("seed", lambda: random_perturbation(p5.poly, 1e-3, p5.weights, seed=bad)),
                    ("stream", lambda: random_perturbation(p5.poly, 1e-3, p5.weights, seed=0,
                                                           stream=bad)),
                    ("seed", lambda: eigenvalue_shift_samples(p5.poly, p5.weights, 1e-3, 4.0,
                                                              samples=2, seed=bad)),
                    ("stream_base", lambda: eigenvalue_shift_samples(
                        p5.poly, p5.weights, 1e-3, 4.0, samples=2, seed=0, stream_base=bad))):
                with pytest.raises(HypothesisViolationError,
                                   match=f"{name} must be a nonnegative integer, got {bad!r}"):
                    call()
        q = random_perturbation(p5.poly, 1e-3, p5.weights, seed=np.int64(3), stream=np.uint8(1))
        r = random_perturbation(p5.poly, 1e-3, p5.weights, seed=3, stream=1)
        assert q.coeff_stack.tobytes() == r.coeff_stack.tobytes()

    def test_infinite_eps_refused_before_any_draw(self, p5, p6, monkeypatch):
        # an infinite eps, or one whose eps * w_j overflows, used to spend
        # MAX_ATTEMPTS draws and then blame the leading coefficient
        attempts = []
        rng = polycond.perturb.perturbation_rng
        monkeypatch.setattr(polycond.perturb, "perturbation_rng",
                            lambda *a: attempts.append(a) or rng(*a))
        cases = ((p5.poly, float("inf"), p5.weights, "eps must be finite (no NaN/Inf), got inf"),
                 (p6.poly, float("inf"), p6.weights, "eps must be finite (no NaN/Inf), got inf"),
                 (p5.poly, 1e308, WeightSet([1.0, 10.0, 1.0]),
                  "eps must be finite and eps * w_j must not overflow, got eps = 1e+308, w_1 = 10.0"))
        for poly, eps, w, message in cases:
            for call in (lambda: random_perturbation(poly, eps, w, seed=0),
                         lambda: eigenvalue_shift_samples(poly, w, eps, 4.0, samples=2, seed=0)):
                with pytest.raises(HypothesisViolationError) as exc:
                    call()
                assert str(exc.value) == message
        assert attempts == []

    def test_draw_is_the_checked_construction(self):
        # the accepted draw is adopted without a second conversion, check or
        # SVD; it is the polynomial PerturbedPolynomial builds from its deltas
        for name in FIXTURE_NAMES:
            pf = load_fixture(name)
            for stream in range(4):
                q = random_perturbation(pf.poly, 1e-2, pf.weights, seed=2, stream=stream)
                r = PerturbedPolynomial(base=pf.poly, deltas=q.deltas, eps_used=q.eps_used,
                                        weights=q.weights)
                assert q.coeff_stack.tobytes() == r.coeff_stack.tobytes()
                assert q.leading_singular_values.tobytes() == r.leading_singular_values.tobytes()
                assert np.array_equal(q.leading_singular_values, singular_values(q.coeffs[-1]))
                for a in (q.coeff_stack, q.leading_singular_values, *q.coeffs, *q.deltas):
                    assert not a.flags.writeable

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
            random_perturbation(poly, 1.0, w, seed=0)
        assert attempts == list(range(polycond.perturb.MAX_ATTEMPTS))


class TestPerturbedPolynomial:
    def test_wrong_delta_count_rejected(self, p5):
        with pytest.raises(InvalidPolynomialError):
            PerturbedPolynomial(base=p5.poly, deltas=(np.zeros((2, 2)),),
                                eps_used=0.0, weights=p5.weights)

    def test_non_sequence_deltas_rejected(self, p5):
        # 5 and None leaked len()'s TypeError
        for bad, got in ((5, "5, which is not a sequence"), (None, "None, which is not a sequence"),
                         ((), "0")):
            with pytest.raises(InvalidPolynomialError,
                               match=f"^expected 3 deltas for degree 2, got {got}$"):
                PerturbedPolynomial(p5.poly, bad, 0.0, p5.weights)

    def test_overflowing_sum_refused_without_warning(self):
        # A_1 + Delta_1 = 2e308 overflows; NumPy's RuntimeWarning (an error
        # under pytest's filters) came before the refusal
        base = MatrixPolynomial([[[1.0]], [[1e308]]])
        with pytest.raises(InvalidPolynomialError,
                           match=r"^coefficient A_1: entries must be finite \(no NaN/Inf\)$"):
            PerturbedPolynomial(base, [[[0.0]], [[1e308]]], 0.0, WeightSet([1.0, 1.0]))

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
        # one polynomial is built, and its record is complete when it is
        builds = []
        adopt = MatrixPolynomial._adopt
        monkeypatch.setattr(MatrixPolynomial, "_adopt",
                            lambda self, *a, **k: builds.append(k["certificates"])
                            or adopt(self, *a, **k))
        for pf, target in ((p4, -1.0), (p4, 0.25 - 3.8971j), (pz, 0.0)):
            poly, w = pf.poly, pf.weights
            lam, x, y = snap_vectors(poly, target)
            builds.clear()
            q = defect_perturbation(poly, w, lam, x, y)
            assert builds == [q.certificates] and q.certificates
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
            assert q.certificates == ("eigenvalue-pairing",) and near >= 2
            assert _count(q.coeff_stack, lam, r) in (near, None)

    def test_refused_count_is_reported(self, monkeypatch, p4):
        # with the count refused, the error names the disc and ends there
        monkeypatch.setattr(polycond.perturb, "_count", lambda *a: None)
        x, y = eig_vectors(p4.poly, -1.0)
        with pytest.raises(PolycondError, match="contour count of perturbed eigenvalues "
                                                "within 1.000e-05 is refused$"):
            defect_perturbation(p4.poly, p4.weights, -1.0, x, y)


class TestRankOneConstruction:
    """The closed-form rank-one Dhat of defect_perturbation against the
    unitary-frame construction of helpers.frame_defect_perturbation, and the
    two facts that keep rank Q(lam) = n - 1, so that the contour count is the
    only certificate: Q(lam) x = 0, and y* Q(lam) = delta q* with delta =
    y* P'(lam) x and q* = x* P'(lam)^{-1} P(lam) (I - x x*) recomputed from P."""

    @staticmethod
    def compare(poly, weights, mp):
        """Check every simple eigenvalue that passes the hypothesis gates;
        returns how many were checked."""
        # certification is not under test here: with a count of 2 every
        # built perturbation is certified, so none is refused after it
        mp.setattr(polycond.perturb, "_count", lambda *a: 2)
        checked = 0
        for _, lam, x, y in simple_eigenpairs(poly, spectrum(poly)):
            try:
                q = defect_perturbation(poly, weights, lam, x, y)
            except (HypothesisViolationError, DefectiveEigenvalueError):
                continue
            Q, P, Pp = q.eval(lam), poly.eval(lam), poly.eval_derivative(lam)
            assert np.linalg.norm(Q @ x) <= 1e-12 * spectral_norm(Q), lam
            q_row = x.conj() @ np.linalg.solve(Pp, P) @ (np.eye(poly.n) - np.outer(x, x.conj()))
            want = (y.conj() @ Pp @ x) * q_row
            assert np.linalg.norm(y.conj() @ Q - want) <= 1e-10 * np.linalg.norm(want), lam
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
            assert _count(poly.coeff_stack, c, r) == k
        # a circle through an eigenvalue, to within 1e-3 r, gives no count
        for v in vals:
            r = abs(v - c) * (1.0 + rng.uniform(-1e-3, 1e-3))
            assert _count(poly.coeff_stack, c, r) is None, (v, r)

    def test_aliased_integer_refused_by_sub_rule(self):
        # one root at a = 0.5^(1/16) on the unit circle's node ray: the 16-node
        # rule reads 1 / (1 - a^16) = 2 exactly, the 8-node one 3.41
        a = 0.5 ** (1 / 16)
        poly = MatrixPolynomial([[[-a]], [[1.0]]])
        assert _count(poly.coeff_stack, 0.0, 1.0) is None
        assert _count(poly.coeff_stack, 0.0, 4.0) == 1

    def test_agreeing_non_integral_rules_refused(self):
        # roots a and a e^(i pi / 8), a^16 = 0.3: both rules read 2 / 0.7
        a = 0.3 ** (1 / 16)
        b = a * np.exp(1j * np.pi / 8)
        poly = MatrixPolynomial([[[a * b]], [[-(a + b)]], [[1.0]]])
        assert _count(poly.coeff_stack, 0.0, 1.0) is None
        assert _count(poly.coeff_stack, 0.0, 4.0) == 2

    def test_singular_node_refused(self):
        # P(z) = z - 1 vanishes at the node z = c + r of the circle |z| = 1
        poly = MatrixPolynomial([[[-1.0]], [[1.0]]])
        assert _count(poly.coeff_stack, 0.0, 1.0) is None
        assert _count(poly.coeff_stack, 0.0, 0.5) == 0
        assert _count(poly.coeff_stack, 0.0, 2.0) == 1

    # at half the gap the 16-node rule and its 8-node sub-rule differ by 2e-2;
    # 32 nodes settle both
    @pytest.mark.parametrize("name, centre, r, size", [("p3", -1.0, 1.0, 1), ("p6", 0.0, 0.5, 2)])
    def test_honest_cluster_counted(self, name, centre, r, size):
        assert _count(load_fixture(name).poly.coeff_stack, centre, r) == size

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_fixture_cluster_counted_at_half_the_gap(self, name):
        # p3: 1 and 5; p4 and p5: 1 each; p6: 2, 2 and 2
        poly = load_fixture(name).poly
        sp = spectrum(poly)
        for c in sp.clusters:
            r = np.min(np.abs(np.delete(sp.eigenvalues, c.indices) - c.center)) / 2
            assert _count(poly.coeff_stack, c.center, r) == c.size, c

    def test_triple_root_witness(self):
        # a disc of radius 10 kappa eta around each computed root of
        # (lam - 1)^3, eta = s_min(P(lam)) / w(|lam|) the backward error,
        # holds all 3 eigenvalues: the roots are not resolved
        poly = MatrixPolynomial([[[-1.0]], [[3.0]], [[-3.0]], [[1.0]]])
        w = WeightSet.from_coefficient_norms(poly)
        sp = spectrum(poly)
        for i, lam in enumerate(sp.eigenvalues):
            eta = singular_values(poly.eval(complex(lam)))[-1] / w.eval(abs(lam))
            r = 10 * cond_eigvector_free(poly, w, i, sp) * eta
            assert 1e-6 < r < 1e-4
            assert _count(poly.coeff_stack, lam, r) == 3

    def _nodes(self, monkeypatch, *args):
        """(_count(*args), the number of nodes at which it evaluated P)."""
        sizes = []

        def logged(coeffs, z):
            if len(coeffs) == len(args[0]):
                sizes.append(np.size(z))
            return horner(coeffs, z)

        horner = polycond.spectra._horner
        monkeypatch.setattr(polycond.spectra, "_horner", logged)
        return _count(*args), sum(sizes)

    def test_nodes_doubled_only_while_rules_differ(self, monkeypatch):
        # a count the 16-node rule grants stops there; p3's -1 takes 16 more
        # nodes; the aliased root is refused after 16 + 16 + 32 + 64 = 128
        assert self._nodes(monkeypatch, MatrixPolynomial([[[-0.5]], [[1.0]]]).coeff_stack,
                           0.0, 1.0) == (1, 16)
        assert self._nodes(monkeypatch, load_fixture("p3").poly.coeff_stack, -1.0, 1.0) == (1, 32)
        aliased = MatrixPolynomial([[[-0.5 ** (1 / 16)]], [[1.0]]]).coeff_stack
        assert self._nodes(monkeypatch, aliased, 0.0, 1.0) == (None, 128)

    def test_one_batched_evaluation(self, monkeypatch):
        # P and P' at all 16 nodes in one Horner call each per block of
        # core._blocks: one block at n = 1, blocks of 6, 6 and 4 nodes at n = 50
        calls = []

        def logged(coeffs, z):
            calls.append(("P" if len(coeffs) == 2 else "P'", np.shape(z)))
            return horner(coeffs, z)

        horner = polycond.spectra._horner
        monkeypatch.setattr(polycond.spectra, "_horner", logged)
        assert _count(MatrixPolynomial([[[-0.5]], [[1.0]]]).coeff_stack, 0.0, 1.0) == 1
        assert sorted(calls) == [("P", (16,)), ("P'", (16,))]
        calls.clear()
        # one root at 0.5 inside |z| < 1, the other 49 at 4 outside it
        D = np.diag(np.r_[0.5, np.full(49, 4.0)])
        assert _count(MatrixPolynomial([-D, np.eye(50)]).coeff_stack, 0.0, 1.0) == 1
        assert sorted(calls) == sorted([("P", (6,)), ("P", (6,)), ("P", (4,)),
                                        ("P'", (6,)), ("P'", (6,)), ("P'", (4,))])

    def test_block_size_bitwise_irrelevant(self, monkeypatch):
        # one node per block counts as the single 16-node block does; a node
        # on an eigenvalue (z_14) is refused in a block of its own as well
        dz = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
        D = np.diag(np.linspace(5.0, 9.0, 4)).astype(complex)
        D[1, 1] = (0.25 + dz)[14]
        poly, c, rho, _ = planted(11, 4, 2)
        cases = [(MatrixPolynomial([-D, np.eye(4)]).coeff_stack, 0.25, r) for r in (0.2, 0.5, 2.0)]
        cases += [(poly.coeff_stack, c, rho * 20.0 ** (k - 0.5) * 1.5 ** 0.5) for k in range(4)]
        want = [_count(*case) for case in cases]
        assert want == [0, None, 1, 0, 1, 2, 3]
        monkeypatch.setattr(polycond.core, "_BLOCK_BYTES", 16 * 16)
        assert len(polycond.core._blocks(16, 4)) == 16
        assert [_count(*case) for case in cases] == want

    def test_memory_is_one_block(self):
        # n = 200: one node per block; all 16 nodes' P(z), P'(z), the solve's
        # copies and its output at once took 29 MiB
        poly = spectral_problem(3, 600, 200, 2)
        tracemalloc.start()
        try:
            _count(poly.coeff_stack, 0.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestSpectralCallCounts:
    def test_one_eigensolve_and_at_most_17_svds(self, monkeypatch):
        # one (20, 3) op of the spectral benchmark: all routes and both
        # distance bounds at 8 eigenvalues, then one defect perturbation; the
        # full SVD of each P(lam) serves eig_vectors and the adjugate route
        n, m = 20, 3
        poly = spectral_problem(1, 400, n, m)
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
        assert calls["svd"] <= 17, calls


class TestRng:
    def test_counter_based_reproducibility(self):
        a = perturbation_rng(123, stream=4).standard_normal(5)
        b = perturbation_rng(123, stream=4).standard_normal(5)
        assert np.array_equal(a, b)

    def test_attempt_changes_sequence(self):
        a = perturbation_rng(123, stream=4, attempt=0).standard_normal(5)
        b = perturbation_rng(123, stream=4, attempt=1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_bad_arguments_refused(self):
        # a negative seed leaked NumPy's ValueError, a NaN one a TypeError
        for args, name, bad in (((-1,), "seed", -1), ((float("nan"),), "seed", float("nan")),
                                ((0, -2), "stream", -2), ((0, 0, 1.5), "attempt", 1.5),
                                ((True,), "seed", True), ((0, "1"), "stream", "1")):
            with pytest.raises(HypothesisViolationError,
                               match=f"^{name} must be a nonnegative integer, got {bad!r}$"):
                perturbation_rng(*args)
        a = perturbation_rng(np.int64(3), np.uint8(1), np.int32(2)).standard_normal(3)
        assert np.array_equal(a, perturbation_rng(3, 1, 2).standard_normal(3))


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

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    @pytest.mark.parametrize("name", ["p3", "p4", "p5", "p6"])
    def test_matches_per_sample_reference(self, name, eps):
        # sample i is random_perturbation's polynomial of stream
        # stream_base + i, solved without the canonical sort: the same bits
        pf = load_fixture(name)
        for lam in (complex(eigenvalues(pf.poly)[0]), 0.5 - 0.25j):
            got = eigenvalue_shift_samples(pf.poly, pf.weights, eps, lam, samples=16, seed=4,
                                           stream_base=7)
            want = reference_shift_samples(pf.poly, pf.weights, eps, lam, 16, 4, stream_base=7)
            assert got.tobytes() == want.tobytes()

    def test_matches_per_sample_reference_on_seeded_problem(self):
        poly = spectral_problem(3, 400, 20, 3)
        w = WeightSet.from_coefficient_norms(poly)
        lam = complex(eigenvalues(poly)[11])
        for eps in (1e-8, 1e-3):
            got = eigenvalue_shift_samples(poly, w, eps, lam, samples=6, seed=5)
            want = reference_shift_samples(poly, w, eps, lam, 6, 5)
            assert got.tobytes() == want.tobytes()

    def test_singular_first_attempt_redrawn(self, monkeypatch):
        attempts = []

        def rng(seed, stream=0, attempt=0):
            attempts.append((stream, attempt))
            return _ConstantDraws(-1.0 if attempt == 0 else 1.0)

        monkeypatch.setattr(polycond.perturb, "perturbation_rng", rng)
        poly, w = TestRedraw.problem()
        got = eigenvalue_shift_samples(poly, w, 1.0, 0.0, samples=1, seed=0, stream_base=5)
        assert attempts == [(5, 0), (5, 1)]
        # attempt 1 draws 1 + 1j everywhere: Q(z) = 0.5 + (1 + 1j) / sqrt(2) + (2 + 2j) z
        want = reference_shift_samples(poly, w, 1.0, 0.0, 1, 0, stream_base=5)
        assert got.tobytes() == want.tobytes()
        root = -(0.5 + (1 + 1j) / np.sqrt(2)) / (2 + 2j)
        assert got[0] == pytest.approx(abs(root), rel=1e-15)

    def test_call_counts(self, monkeypatch, p5, p6):
        # an accepted draw takes 2 SVDs (the drawn norms, the perturbed
        # leading coefficient) and no eigensolve; a shift sample adds 1
        calls = count_calls(monkeypatch, "svd", "eigvals")
        for pf in (p5, p6):
            for stream in range(3):
                random_perturbation(pf.poly, 1e-3, pf.weights, seed=1, stream=stream)
                assert calls == {"svd": 2, "eigvals": 0}
                calls.update(svd=0)
            eigenvalue_shift_samples(pf.poly, pf.weights, 1e-3, 1.0, samples=5, seed=1)
            assert calls == {"svd": 10, "eigvals": 5}
            calls.update(svd=0, eigvals=0)
