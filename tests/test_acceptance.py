"""Acceptance gate.

One test per required behavior, each asserting the stated values at the
stated tolerances, so a verbose run reads as a checklist.  Everything here
is also covered in more depth by the per-module suites; this file exists to
make the required results visible in one place.
"""

import numpy as np
import pytest

from polycond.bounds import bound_comparator, dist_mult_bound, elsner_bound, bauer_fike_bound
from polycond.condition import (adjugate_norm, cond_eigvector_free, cond_multiple,
                                cond_simple, cond_via_companion)
from polycond.core import spectral_norm, singular_values
from polycond.linearization import linearization_residual
from polycond.perturb import (defect_perturbation, eigenvalue_shift_samples,
                              is_admissible, random_perturbation)
from polycond.pseudospectra import contours, fitted_radius, grid_eval
from polycond.spectra import (eig_vectors, eigenvalues, nearest_eigenvalue, spectrum,
                              validate_jordan_triple)

from helpers import (cofactor_adjugate, random_well_separated,
                     singular_with_known_adjugate, unit_weights)


def _simple_cond(poly, weights, sp, target):
    i = nearest_eigenvalue(sp.eigenvalues, target)
    lam = complex(sp.eigenvalues[i])
    x, y = eig_vectors(poly, lam, values=sp.eigenvalues)
    return i, lam, cond_simple(poly, weights, lam, x, y)


def test_criterion_1_ill_scaled_condition_numbers(p5):
    poly, w = p5.poly, p5.weights
    sp = spectrum(poly)
    det_am = abs(np.linalg.det(np.asarray(poly.coeffs[-1])))
    for target, want in ((1.0, 3000.0), (2.0, 7000.0)):
        i, lam, k = _simple_cond(poly, w, sp, target)
        assert k == pytest.approx(want, rel=0.01)
        assert cond_eigvector_free(poly, w, i, sp) == pytest.approx(want, rel=0.01)
    i, lam, k = _simple_cond(poly, w, sp, 4.0)
    assert k == pytest.approx(21.2897, abs=1e-2)
    assert cond_eigvector_free(poly, w, i, sp) == pytest.approx(21.2897, abs=1e-2)
    # numerators w(|lam|) ||adj P(lam)|| / |det A_m| before gap-product division
    for target, want in ((1.0, 18000.0), (2.0, 14000.0), (4.0, 127.738)):
        i = nearest_eigenvalue(sp.eigenvalues, target)
        num = w.eval(abs(target)) * adjugate_norm(
            poly.eval(complex(sp.eigenvalues[i]))) / det_am
        assert num == pytest.approx(want, rel=0.01)


def test_criterion_2_multiple_eigenvalue_growth(p3):
    poly, w = p3.poly, p3.weights
    mul = p3.multiple
    khat = cond_multiple(poly, w, mul.eigenvalue, mul.right_vectors,
                         mul.left_vectors)
    assert khat == pytest.approx(4.2426, abs=1e-3)
    grid = grid_eval(poly, w, (0.85, 1.15, -0.15, 0.15), 401, threads=4)
    for eps, radius in ((1e-4, 0.0206), (2e-4, 0.0291),
                        (4e-4, 0.0412), (8e-4, 0.0583)):
        cs = contours(grid, eps)
        assert cs.n_components == 1
        assert fitted_radius(cs, 1.0) == pytest.approx(radius, rel=0.05)


def test_criterion_3_distance_bound_reference_values(p4):
    # The distance to a multiple eigenvalue is homogeneous of degree one:
    # with the weights held fixed, d(alpha P) = alpha d(P), since an
    # admissible Delta for P scales to alpha Delta for alpha P. In
    # c(P'(lam0)) ||P(lam0)|| / (k nu^p), c has degree 0, ||P(lam0)|| degree 1,
    # k = w(|lam0|) / |y* P'(lam0) x| degree -1 and nu degree 1, so the
    # formula has degree 2 - p and only p = 1 can bound the distance. The
    # nu^2 values (0.4991, 0.1485) do not change under P -> alpha P.
    # TestDistMultBound checks the degree and the reduction to Wilkinson's
    # bound ||A - lam I|| / sqrt(kappa^2 - 1) for lam I - A.
    poly, w = p4.poly, p4.weights
    assert list(w.weights) == pytest.approx([25.0379, 2.2919, 1.0], rel=1e-3)
    sp = spectrum(poly)
    got = {}
    for target in (-1.0, 0.25 - 3.8971j):
        i = nearest_eigenvalue(sp.eigenvalues, target)
        lam = complex(sp.eigenvalues[i])
        x, y = eig_vectors(poly, lam, values=sp.eigenvalues)
        got[target] = dist_mult_bound(poly, w, lam, x, y).value
    assert got[-1.0] == pytest.approx(1.3606, abs=1e-3)
    assert got[0.25 - 3.8971j] == pytest.approx(0.6932, abs=1e-3)


def test_criterion_3_defect_reaches_multiple_eigenvalue(p4):
    poly, w = p4.poly, p4.weights
    sp = spectrum(poly)
    for target in (-1.0, 0.25 - 3.8971j):
        i = nearest_eigenvalue(sp.eigenvalues, target)
        lam = complex(sp.eigenvalues[i])
        x, y = eig_vectors(poly, lam, values=sp.eigenvalues)
        q = defect_perturbation(poly, w, lam, x, y)
        assert q.eps_used <= dist_mult_bound(poly, w, lam, x, y).value
        gaps = np.sort(np.abs(eigenvalues(q) - lam))
        assert gaps[1] <= 1e-5


def test_criterion_4_perturbation_bounds_example(p6, p6q):
    poly, w, triple = p6.poly, p6.weights, p6.triple
    assert triple.norm_product == pytest.approx(6.4183, abs=1e-3)
    rep = is_admissible(poly, p6q.poly, 0.3, w)
    assert rep.admissible
    assert any(rep.tight)
    mu = 0.5691 + 0.0043j
    assert np.min(np.abs(eigenvalues(p6q.poly) - mu)) <= 1e-3
    assert np.min(np.abs(eigenvalues(poly) - mu)) == pytest.approx(0.4309, abs=1e-3)
    assert spectral_norm(poly.eval(mu)) == pytest.approx(1.0562, abs=1e-3)
    cmp_ = bound_comparator(poly, w, 0.3, mu, triple, hypothesis_verified=True)
    assert cmp_.elsner.value == pytest.approx(0.8247, abs=1e-3)
    assert cmp_.bauer_fike.value == pytest.approx(3.8240, abs=1e-3)
    assert cmp_.elsner_tighter is True


def test_criterion_5_route_equivalence_property():
    rng = np.random.default_rng(50505)
    shapes = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3) if n * m >= 2]
    for t in range(50):
        n, m = shapes[t % len(shapes)]
        poly = random_well_separated(rng, n, m)
        w = unit_weights(poly)
        sp = spectrum(poly)
        for i, lam in enumerate(sp.eigenvalues):
            lam = complex(lam)
            x, y = eig_vectors(poly, lam, values=sp.eigenvalues)
            k = cond_simple(poly, w, lam, x, y)
            assert cond_via_companion(poly, w, lam, x, y) == pytest.approx(k, rel=1e-4)
            assert cond_eigvector_free(poly, w, i, sp) == pytest.approx(k, rel=1e-4)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            M, _ = singular_with_known_adjugate(rng, n)
            assert adjugate_norm(M) == pytest.approx(
                spectral_norm(cofactor_adjugate(M)), rel=1e-8)


def test_criterion_6_bound_validity_sweep(p3, p4, p5, p6):
    slack = 1.0 + 1e-9
    for pf in (p3, p4, p5, p6):
        poly, w, triple = pf.poly, pf.weights, pf.triple
        base_vals = eigenvalues(poly)
        for eps in (1e-3, 1e-2):
            for s in range(200):
                q = random_perturbation(poly, eps, w, seed=606, stream=s)
                for mu in eigenvalues(q):
                    mu = complex(mu)
                    gap = float(np.min(np.abs(base_vals - mu)))
                    el = elsner_bound(poly, w, eps, mu, hypothesis_verified=True)
                    assert gap <= el.value * slack
                    if triple is not None:
                        bf = bauer_fike_bound(poly, w, eps, mu, triple,
                                              hypothesis_verified=True)
                        assert gap <= bf.value * slack


def test_criterion_7_empirical_worst_case_shift(p5):
    poly, w = p5.poly, p5.weights
    sp = spectrum(poly)
    _, _, k = _simple_cond(poly, w, sp, 4.0)
    eps = 1e-7
    shifts = eigenvalue_shift_samples(poly, w, eps, 4.0, samples=500, seed=1234)
    ratio = float(shifts.max()) / eps
    assert 0.5 * k <= ratio <= 1.05 * k


def test_criterion_8_identity_residuals(p3, p4, p5, p6, pz, p6q):
    rng = np.random.default_rng(808)
    for pf in (p3, p4, p5, p6, pz, p6q):
        poly = pf.poly
        s = singular_values(np.asarray(poly.coeffs[-1]))
        c_lead = float(s[0] / s[-1])
        scale = 1.0 + float(np.max(np.abs(eigenvalues(poly))))
        for _ in range(20):
            z = complex(rng.standard_normal(), rng.standard_normal()) * scale
            r = linearization_residual(poly, z)
            assert r <= 1e-8 * (1.0 + spectral_norm(poly.eval(z))) * c_lead
    for pf, samples in ((p3, [2.0, -3.0, 1 + 2j]), (p6, [2.0, 0.5j, -1 + 1j])):
        assert validate_jordan_triple(pf.poly, pf.triple, samples=samples) <= 1e-8
