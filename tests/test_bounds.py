"""Distance-to-multiplicity and spectral-distance perturbation bounds."""

import numpy as np
import pytest
import scipy.linalg

from helpers import load_fixture, simple_eigenpairs, unit_weights
from polycond import (
    DegenerateProblemError,
    HypothesisViolationError,
    InvalidTripleError,
    JordanBlock,
    JordanTriple,
    MatrixPolynomial,
    WeightSet,
    bauer_fike_bound,
    bound_comparator,
    cond_simple,
    cond_via_companion,
    defect_perturbation,
    dist_mult_bound,
    dist_mult_bound_adj,
    eig_vectors,
    eigenvalue_shift_samples,
    eigenvalues,
    elsner_bound,
    grid_eval,
    is_admissible,
    nearest_eigenvalue,
    random_perturbation,
    spectrum,
    validate_jordan_triple,
)

MU = 0.5691 + 0.0043j


class TestDistMultBound:
    def test_ingredient_arithmetic(self, p4):
        x, y = eig_vectors(p4.poly, -1.0)
        rep = dist_mult_bound(p4.poly, p4.weights, -1.0, x, y)
        ing = rep.ingredients
        k = ing["weight_at_lam"] / abs(ing["coupling"])
        assert ing["eig_cond"] == pytest.approx(k, rel=1e-12)
        want = ing["derivative_cond"] * ing["poly_norm_at_lam"] / (k * ing["orthogonal_component"])
        assert rep.value == pytest.approx(want, rel=1e-12)

    def test_orthogonal_component_consistent(self, p4):
        # nu^2 + |coupling|^2 should reassemble ||y* P'||^2
        x, y = eig_vectors(p4.poly, -1.0)
        ing = dist_mult_bound(p4.poly, p4.weights, -1.0, x, y).ingredients
        lhs = ing["orthogonal_component"] ** 2 + abs(ing["coupling"]) ** 2
        assert lhs == pytest.approx(ing["left_derivative_norm"] ** 2, rel=1e-10)

    def test_adjugate_route_matches_direct(self, p4, p5, pz):
        for pf in (p4, p5, pz):
            poly, w = pf.poly, pf.weights
            sp = spectrum(poly)
            for i, lam, x, y in simple_eigenpairs(poly, sp):
                try:
                    direct = dist_mult_bound(poly, w, lam, x, y)
                except HypothesisViolationError:
                    with pytest.raises(HypothesisViolationError):
                        dist_mult_bound_adj(poly, w, i, sp, x, y)
                    continue
                adj = dist_mult_bound_adj(poly, w, i, sp, x, y)
                assert adj.value == pytest.approx(direct.value, rel=1e-6)

    def test_singular_derivative_gated(self, p4):
        # P'(0) is singular for this fixture
        x, y = eig_vectors(p4.poly, 0.0)
        with pytest.raises(HypothesisViolationError):
            dist_mult_bound(p4.poly, p4.weights, 0.0, x, y)

    def test_zero_vector_rejected(self, p4):
        x, _ = eig_vectors(p4.poly, -1.0)
        with pytest.raises(HypothesisViolationError):
            dist_mult_bound(p4.poly, p4.weights, -1.0, x, np.zeros(3))

    def test_vector_scale_invariance(self, p4):
        x, y = eig_vectors(p4.poly, -1.0)
        a = dist_mult_bound(p4.poly, p4.weights, -1.0, x, y).value
        b = dist_mult_bound(p4.poly, p4.weights, -1.0, 3.7 * x, -0.2j * y).value
        assert b == pytest.approx(a, rel=1e-12)

    def test_applicability_flags(self, p4):
        x, y = eig_vectors(p4.poly, -1.0)
        rep = dist_mult_bound(p4.poly, p4.weights, -1.0, x, y)
        assert rep.applicable["derivative_nonsingular"]
        assert rep.applicable["nonparallel"]

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matrix_case_is_wilkinson_bound(self, n):
        # For P(lam) = lam I - A with w = (1, 0), the bound is Wilkinson's
        # ||A - lam I|| / sqrt(kappa^2 - 1), kappa = 1 / |y* x|; kappa comes
        # from SciPy's left and right eigenvectors, not from polycond
        rng = np.random.default_rng(7000 + n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        poly = MatrixPolynomial([-A, np.eye(n)])
        w = WeightSet([1.0, 0.0])
        ev, vl, vr = scipy.linalg.eig(A, left=True, right=True)
        sp = spectrum(poly)
        for lam in sp.eigenvalues:
            lam = complex(lam)
            x, y = eig_vectors(poly, lam, values=sp.eigenvalues)
            j = nearest_eigenvalue(ev, lam)
            yl, xr = vl[:, j], vr[:, j]
            kappa = np.linalg.norm(yl) * np.linalg.norm(xr) / abs(yl.conj() @ xr)
            want = np.linalg.norm(A - lam * np.eye(n), 2) / np.sqrt(kappa**2 - 1)
            assert dist_mult_bound(poly, w, lam, x, y).value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("alpha", [1e-3, 10.0, 1e3])
    def test_homogeneous_of_degree_one(self, p4, alpha):
        # An admissible Delta for P scales to alpha Delta for alpha P, so with
        # the weights fixed the distance, and its bound, scale by alpha
        poly, w = p4.poly, p4.weights
        scaled = MatrixPolynomial([alpha * A for A in poly.coeffs])
        sp, sp_scaled = spectrum(poly), spectrum(scaled)
        for target in (-1.0, 0.25 - 3.8971j):
            lam = complex(sp.eigenvalues[nearest_eigenvalue(sp.eigenvalues, target)])
            x, y = eig_vectors(poly, lam, values=sp.eigenvalues)
            lam_s = complex(sp_scaled.eigenvalues[nearest_eigenvalue(sp_scaled.eigenvalues, target)])
            x_s, y_s = eig_vectors(scaled, lam_s, values=sp_scaled.eigenvalues)
            base = dist_mult_bound(poly, w, lam, x, y).value
            got = dist_mult_bound(scaled, w, lam_s, x_s, y_s).value
            assert got == pytest.approx(alpha * base, rel=1e-10)


class TestElsnerBound:
    def test_boundary_perturbation_value(self, p6):
        rep = elsner_bound(p6.poly, p6.weights, 0.3, MU, hypothesis_verified=True)
        assert rep.value == pytest.approx(0.8554, abs=1e-3)
        assert rep.applicable["mu_in_perturbed_spectrum"]

    def test_ingredient_arithmetic(self, p6):
        rep = elsner_bound(p6.poly, p6.weights, 0.3, MU)
        ing = rep.ingredients
        mn = ing["root_order"]
        assert mn == 6
        want = (ing["eps"] * ing["weight_at_mu"] / ing["abs_det_leading"]) ** (1 / mn)
        want *= ing["poly_norm_at_mu"] ** (1 - 1 / mn)
        assert rep.value == pytest.approx(want, rel=1e-12)
        assert ing["weight_at_mu"] == pytest.approx(0.9930, abs=1e-4)
        assert ing["poly_norm_at_mu"] == pytest.approx(1.0562, abs=1e-3)

    def test_monotone_in_eps(self, p5):
        mu = 2.5 + 0.1j
        vals = [elsner_bound(p5.poly, p5.weights, e, mu).value
                for e in (1e-6, 1e-4, 1e-2, 1.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_doubling_eps_weakly_increases(self, p4, p6):
        for pf in (p4, p6):
            for eps in (1e-4, 1e-2):
                a = elsner_bound(pf.poly, pf.weights, eps, 0.4 + 0.2j).value
                b = elsner_bound(pf.poly, pf.weights, 2 * eps, 0.4 + 0.2j).value
                assert b >= a

    def test_zero_eps_gives_zero(self, p5):
        assert elsner_bound(p5.poly, p5.weights, 0.0, 1.5).value == 0.0

    def test_zero_norm_at_exact_eigenvalue(self, p6):
        # P(0) is the zero matrix for this fixture, so the bound collapses
        assert elsner_bound(p6.poly, p6.weights, 0.1, 0.0).value == 0.0

    def test_negative_eps_rejected(self, p5, p6):
        for eps in (-0.1, float("nan")):
            with pytest.raises(HypothesisViolationError, match="eps must be nonnegative"):
                elsner_bound(p5.poly, p5.weights, eps, 1.0)
        for mu in (complex(np.nan, 0.0), complex(0.0, np.inf), -np.inf):
            with pytest.raises(HypothesisViolationError, match="mu must be finite"):
                elsner_bound(p6.poly, p6.weights, 0.3, mu)

    def test_hypothesis_flag_defaults_false(self, p5):
        rep = elsner_bound(p5.poly, p5.weights, 0.1, 1.0)
        assert not rep.applicable["mu_in_perturbed_spectrum"]


class TestBauerFikeBound:
    def test_boundary_perturbation_value(self, p6):
        rep = bauer_fike_bound(p6.poly, p6.weights, 0.3, MU, p6.triple)
        assert rep.value == pytest.approx(3.8240, abs=1e-3)

    def test_theta_arithmetic(self, p6):
        rep = bauer_fike_bound(p6.poly, p6.weights, 0.3, MU, p6.triple)
        ing = rep.ingredients
        assert ing["max_block_size"] == 2
        assert ing["triple_cond"] == pytest.approx(6.4183, abs=1e-3)
        theta = 2 * ing["triple_cond"] * 0.3 * ing["weight_at_mu"]
        assert ing["theta"] == pytest.approx(theta, rel=1e-12)
        # theta >= 1 here, so the bound is theta itself
        assert rep.value == pytest.approx(ing["theta"], rel=1e-12)

    def test_small_theta_takes_root(self, p6):
        rep = bauer_fike_bound(p6.poly, p6.weights, 1e-6, MU, p6.triple)
        theta = rep.ingredients["theta"]
        assert theta < 1
        assert rep.value == pytest.approx(theta**0.5, rel=1e-12)

    def test_diagonalizable_monic_linear_collapse(self):
        # p = 1 and an orthonormal triple: the bound degenerates to eps w(|mu|)
        poly = MatrixPolynomial([np.diag([-1.0, -2.0]), np.eye(2)])
        w = WeightSet([1.0, 1.0])
        t = JordanTriple(np.eye(2), [JordanBlock(1.0, 1), JordanBlock(2.0, 1)], np.eye(2))
        eps, mu = 0.05, 1.6 + 0.2j
        rep = bauer_fike_bound(poly, w, eps, mu, t)
        assert rep.ingredients["max_block_size"] == 1
        assert rep.value == pytest.approx(eps * w.eval(abs(mu)), rel=1e-12)

    def test_doubling_eps_weakly_increases(self, p6):
        for eps in (1e-4, 1e-1):
            a = bauer_fike_bound(p6.poly, p6.weights, eps, MU, p6.triple).value
            b = bauer_fike_bound(p6.poly, p6.weights, 2 * eps, MU, p6.triple).value
            assert b >= a

    def test_wrong_shape_triple_rejected(self, p5, p6):
        with pytest.raises(InvalidTripleError):
            bauer_fike_bound(p5.poly, p5.weights, 0.1, 1.0, p6.triple)

    def test_negative_eps_rejected(self, p6):
        for eps in (-1.0, float("nan")):
            for bound in (bauer_fike_bound, bound_comparator):
                with pytest.raises(HypothesisViolationError, match="eps must be nonnegative"):
                    bound(p6.poly, p6.weights, eps, MU, p6.triple)
        for mu in (complex(np.nan, 0.0), complex(0.0, np.inf)):
            for bound in (bauer_fike_bound, bound_comparator):
                with pytest.raises(HypothesisViolationError, match="mu must be finite"):
                    bound(p6.poly, p6.weights, 0.3, mu, p6.triple)


@pytest.mark.parametrize("check", [
    lambda pf, triple: validate_jordan_triple(pf.poly, triple, [2.0]),
    lambda pf, triple: bauer_fike_bound(pf.poly, pf.weights, 0.1, MU, triple),
    lambda pf, triple: bound_comparator(pf.poly, pf.weights, 0.1, MU, triple),
], ids=["validate_jordan_triple", "bauer_fike_bound", "bound_comparator"])
def test_triple_shape_one_rule(p5, p6, check):
    # the cubic's 2 x 6 triple against the 2 x 2 quadratic, which needs size 4
    with pytest.raises(InvalidTripleError) as exc:
        check(p5, p6.triple)
    assert str(exc.value) == ("triple of size 6 over C^2 does not match a "
                              "polynomial with n = 2, m = 2 (needs size 4)")


@pytest.mark.parametrize("eps", ["a", 10 ** 400, [0.1], None],
                         ids=["str", "int-overflow", "list", "none"])
@pytest.mark.parametrize("call", [
    lambda pf, eps: elsner_bound(pf.poly, pf.weights, eps, MU),
    lambda pf, eps: bauer_fike_bound(pf.poly, pf.weights, eps, MU, pf.triple),
    lambda pf, eps: is_admissible(pf.poly, pf.poly, eps, pf.weights),
    lambda pf, eps: random_perturbation(pf.poly, eps, pf.weights, seed=0),
    lambda pf, eps: eigenvalue_shift_samples(pf.poly, pf.weights, eps, MU, 2, 0),
], ids=["elsner_bound", "bauer_fike_bound", "is_admissible", "random_perturbation",
        "eigenvalue_shift_samples"])
def test_eps_that_is_no_real_number_rejected(p6, call, eps):
    # each leaked the TypeError of eps >= 0 or eps * w_j, or float()'s
    # OverflowError; one check in core refuses them by name
    with pytest.raises(HypothesisViolationError) as exc:
        call(p6, eps)
    assert str(exc.value) == f"eps must be a real number, got {eps!r}"
    for bad in (-1.0, float("nan")):
        with pytest.raises(HypothesisViolationError) as exc:
            call(p6, bad)
        assert str(exc.value) == f"eps must be nonnegative, got {bad}"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(4.0, -float("inf")),
                                   "a", 10 ** 400, [1, 2, 3]],
                         ids=["nan", "inf", "inf-imag", "str", "int-overflow", "list"])
@pytest.mark.parametrize("name, call", [
    ("lam", lambda pf, v, x, y: cond_simple(pf.poly, pf.weights, v, x, y)),
    ("lam", lambda pf, v, x, y: cond_via_companion(pf.poly, pf.weights, v, x, y)),
    ("lam", lambda pf, v, x, y: dist_mult_bound(pf.poly, pf.weights, v, x, y)),
    ("lam", lambda pf, v, x, y: defect_perturbation(pf.poly, pf.weights, v, x, y)),
    ("lam", lambda pf, v, x, y: eigenvalue_shift_samples(pf.poly, pf.weights, 1e-3, v, 2, 0)),
    ("mu", lambda pf, v, x, y: elsner_bound(pf.poly, pf.weights, 0.1, v)),
], ids=["cond_simple", "cond_via_companion", "dist_mult_bound", "defect_perturbation",
        "eigenvalue_shift_samples", "elsner_bound"])
def test_non_finite_point_one_rule(p5, monkeypatch, name, call, value):
    # a NaN lam gave LinAlgError (ValueError from cond_via_companion), an
    # infinite one a RuntimeWarning, and a string, an int beyond the float
    # range or a list complex()'s ValueError, OverflowError or TypeError; each
    # is refused before P is evaluated
    x, y = eig_vectors(p5.poly, 4.0)
    for attr in ("eval", "eval_derivative", "e_blocks"):
        monkeypatch.setattr(MatrixPolynomial, attr, None)     # a call raises TypeError
    with pytest.raises(HypothesisViolationError) as exc:
        call(p5, value, x, y)
    if isinstance(value, (float, complex)):
        assert str(exc.value) == f"{name} must be finite (no NaN/Inf), got {complex(value)}"
    else:
        assert str(exc.value) == f"{name} must be a finite number, got {value!r}"


@pytest.mark.parametrize("which", ["x", "y"])
@pytest.mark.parametrize("call", [
    lambda pf, i, sp, x, y: cond_simple(pf.poly, pf.weights, sp.eigenvalues[i], x, y),
    lambda pf, i, sp, x, y: cond_via_companion(pf.poly, pf.weights, sp.eigenvalues[i], x, y),
    lambda pf, i, sp, x, y: dist_mult_bound(pf.poly, pf.weights, sp.eigenvalues[i], x, y),
    lambda pf, i, sp, x, y: dist_mult_bound_adj(pf.poly, pf.weights, i, sp, x, y),
    lambda pf, i, sp, x, y: defect_perturbation(pf.poly, pf.weights, sp.eigenvalues[i], x, y),
], ids=["cond_simple", "cond_via_companion", "dist_mult_bound", "dist_mult_bound_adj",
        "defect_perturbation"])
def test_eigenvector_length_one_rule(p5, monkeypatch, call, which):
    # a length-3 x or y on n = 2 leaked NumPy's matmul ValueError; it is
    # refused before P is evaluated
    sp = spectrum(p5.poly)
    i = int(np.argmin(np.abs(sp.eigenvalues - 4.0)))
    x, y = eig_vectors(p5.poly, sp.eigenvalues[i])
    vectors = {"x": x, "y": y, which: np.ones(3)}
    for attr in ("eval", "eval_derivative", "e_blocks"):
        monkeypatch.setattr(MatrixPolynomial, attr, None)     # a call raises TypeError
    with pytest.raises(HypothesisViolationError) as exc:
        call(p5, i, sp, vectors["x"], vectors["y"])
    assert str(exc.value) == f"{which} must be a vector of n = 2 entries, got 3"


@pytest.mark.parametrize("name, eps", [
    pytest.param("p6_perturbed", 0.3, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 16: the Elsner-type bound's ||P(mu)||^(1 - 1/(mn)) fails "
               "where ||P(mu)|| < 1 and m >= 2 (4 of 97 nodes, ratio 1.145)")),
    ("p6", 0.3), ("p3", 0.3), ("p4", 0.3), ("p5", 0.1), ("pz_zero_eig", 0.3),
])
def test_bounds_hold_on_pseudospectrum_grid(name, eps):
    # every node with g <= eps is an eigenvalue of an eps-admissible
    # perturbation, so its distance to the spectrum is within each bound; a
    # 41^2 grid on a box centred at the mean eigenvalue, of half-width 1.5
    # times the larger spread of the spectrum's real and imaginary parts
    pf = load_fixture(name)
    lam = eigenvalues(pf.poly)
    c = lam.mean()
    h = 1.5 * max(np.ptp(lam.real), np.ptp(lam.imag))
    grid = grid_eval(pf.poly, pf.weights, (c.real - h, c.real + h, c.imag - h, c.imag + h), 41)
    nodes = (grid.re_axis + 1j * grid.im_axis[:, np.newaxis])[grid.values <= eps]
    assert nodes.size > 0
    for z in nodes:
        dist = np.min(np.abs(lam - z))
        assert dist <= elsner_bound(pf.poly, pf.weights, eps, z).value * (1 + 1e-9), z
        if pf.triple is not None:
            bf = bauer_fike_bound(pf.poly, pf.weights, eps, z, pf.triple).value
            assert dist <= bf * (1 + 1e-9), z


class TestComparator:
    def test_boundary_perturbation_selects_elsner(self, p6):
        rep = bound_comparator(p6.poly, p6.weights, 0.3, MU, p6.triple)
        assert rep.elsner_tighter
        assert rep.elsner.value < rep.bauer_fike.value
        assert rep.elsner.value == pytest.approx(0.8554, abs=1e-3)
        assert rep.bauer_fike.value == pytest.approx(3.8240, abs=1e-3)

    def test_flag_matches_direct_comparison(self, p6, p3, rng):
        for pf in (p6, p3):
            draws = 0
            while draws < 50:
                eps = float(10.0 ** rng.uniform(-8, 0.5))
                mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                rep = bound_comparator(pf.poly, pf.weights, eps, mu, pf.triple)
                a, b = rep.elsner.value, rep.bauer_fike.value
                if a == 0.0 or b == 0.0 or abs(np.log(a) - np.log(b)) < 1e-10:
                    continue  # tie: the strict inequality is not decidable
                assert rep.elsner_tighter == (a < b), (pf.poly.n, eps, mu)
                draws += 1

    def test_crossover_continuity_at_theta_one(self, p6):
        # Omega's two branches agree exactly where theta = 1, where both
        # collapse to |det A_m| p k
        k = bauer_fike_bound(p6.poly, p6.weights, 1.0, MU, p6.triple).ingredients["triple_cond"]
        p = 2
        w = p6.weights.eval(abs(MU))
        eps_star = 1.0 / (p * k * w)
        det_am = abs(np.linalg.det(np.asarray(p6.poly.coeffs[-1])))
        want = det_am * p * k
        lo = bound_comparator(p6.poly, p6.weights, eps_star * (1 - 1e-9), MU, p6.triple)
        hi = bound_comparator(p6.poly, p6.weights, eps_star * (1 + 1e-9), MU, p6.triple)
        assert lo.bauer_fike.ingredients["theta"] < 1 < hi.bauer_fike.ingredients["theta"]
        assert lo.omega == pytest.approx(want, rel=1e-6)
        assert hi.omega == pytest.approx(want, rel=1e-6)

    def test_scalar_linear_rejected(self):
        poly = MatrixPolynomial([[[-1.0]], [[1.0]]])
        t = JordanTriple(np.eye(1), [JordanBlock(1.0, 1)], np.eye(1))
        with pytest.raises(DegenerateProblemError):
            bound_comparator(poly, WeightSet([1.0, 1.0]), 0.1, 0.9, t)
