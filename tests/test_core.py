"""Polynomial evaluation, derivatives, norms, the weight polynomial, the
per-point SVD record, and connected components."""

import ast
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from helpers import FIXTURE_NAMES, load_fixture, naive_derivative, naive_eval, naive_weight, svd2_closed_form
import polycond
from polycond import (
    HypothesisViolationError,
    InvalidPolynomialError,
    InvalidWeightsError,
    MatrixPolynomial,
    PerturbedPolynomial,
    WeightSet,
    eig_vectors,
    eigenvalues,
    singular_values,
    spectral_norm,
)
from polycond.core import _components
from polycond.spectra import _SVD_MEMO, _svds_at


class TestEval:
    def test_scalar_affine(self):
        p = MatrixPolynomial([[[-2.0]], [[1.0]]])
        assert p.eval(3.0) == pytest.approx(np.array([[1.0]]))

    def test_ill_scaled_fixture_at_4(self, p5):
        got = p5.poly.eval(4.0)
        want = np.array([[0.006, 0.001], [0.0, 0.0]])
        assert np.allclose(got, want, atol=1e-14)

    def test_cubic_fixture_norm_near_crossover_point(self, p6):
        mu = 0.5691 + 0.0043j
        assert spectral_norm(p6.poly.eval(mu)) == pytest.approx(1.0562, abs=1e-3)

    def test_horner_matches_power_sum(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            coeffs = [
                rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
                for _ in range(m + 1)
            ]
            coeffs[-1] += 2 * np.eye(n)
            p = MatrixPolynomial(coeffs)
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            want = naive_eval(coeffs, z)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(p.eval(z) - want).max() <= 1e-12 * scale

    def test_exact_constant_term_at_zero(self, rng):
        A0 = rng.standard_normal((3, 3))
        p = MatrixPolynomial([A0, np.eye(3)])
        assert np.array_equal(p.eval(0.0), A0)


class TestDerivative:
    def test_second_derivative_of_square(self):
        p = MatrixPolynomial([[[0.0]], [[0.0]], [[1.0]]])
        assert p.eval_derivative(0.0, order=2) == pytest.approx(np.array([[2.0]]))

    def test_order_above_degree_is_zero(self, p4):
        got = p4.poly.eval_derivative(1.7 - 0.3j, order=p4.poly.m + 1)
        assert np.array_equal(got, np.zeros((3, 3)))

    def test_monic_quadratic_first_derivative(self, p4):
        got = p4.poly.eval_derivative(-1.0, order=1)
        want = -2.0 * np.eye(3) + p4.poly.coeffs[1]
        assert np.allclose(got, want, atol=1e-14)

    def test_order_zero_equals_eval(self, p6):
        z = 0.3 + 0.9j
        assert np.array_equal(p6.poly.eval_derivative(z, order=0), p6.poly.eval(z))

    def test_matches_termwise_oracle(self, rng):
        for _ in range(10):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            coeffs = [rng.standard_normal((n, n)) for _ in range(m + 1)]
            coeffs[-1] += 2 * np.eye(n)
            p = MatrixPolynomial(coeffs)
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for order in range(m + 2):
                want = naive_derivative(coeffs, z, order)
                assert np.allclose(p.eval_derivative(z, order), want, atol=1e-12)


class TestArrayArguments:
    """An array of points gives, point by point, the bits of the scalar call."""

    @staticmethod
    def points(rng):
        z = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        z[0, :4] = [0.0, 2.5, -1j, -0.75]
        return z

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_polynomial_bitwise_scalar(self, name, rng):
        poly = load_fixture(name).poly
        z = self.points(rng)
        for order in range(poly.m + 2):
            got = poly.eval(z) if order == 0 else poly.eval_derivative(z, order)
            assert got.shape == z.shape + (poly.n, poly.n)
            for idx in np.ndindex(z.shape):
                want = poly.eval_derivative(complex(z[idx]), order)
                assert got[idx].tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_weights_bitwise_scalar(self, name, rng):
        w = load_fixture(name).weights
        r = np.abs(self.points(rng))
        for order in range(w.m + 2):
            got = w.eval(r, order)
            assert got.shape == r.shape
            for idx in np.ndindex(r.shape):
                want = w.eval(float(r[idx]), order)
                assert isinstance(want, float)
                assert got[idx].tobytes() == np.float64(want).tobytes()

    def test_degree_zero_and_constant_weights(self):
        p = MatrixPolynomial([np.eye(2)])
        assert np.array_equal(p.eval(np.arange(3.0)), np.broadcast_to(np.eye(2), (3, 2, 2)))
        assert np.array_equal(WeightSet([0.5]).eval(np.arange(3.0)), [0.5, 0.5, 0.5])
        assert np.array_equal(WeightSet([0.5]).eval(np.arange(3.0), order=1), [0.0, 0.0, 0.0])

    def test_negative_radius_anywhere_rejected(self):
        with pytest.raises(HypothesisViolationError):
            WeightSet([1.0, 1.0]).eval(np.array([0.5, -1e-300]))
        # NaN too, one point or in an array, and an infinite r
        with pytest.raises(HypothesisViolationError, match="r must be finite"):
            WeightSet([1.0, 1.0]).eval(float("nan"))
        for r in (np.array([0.5, np.nan]), np.array([np.inf])):
            with pytest.raises(HypothesisViolationError, match="nonnegative"):
                WeightSet([1.0, 1.0]).eval(r)

    def test_e_blocks_are_horner_partial_sums(self, p4, rng):
        A = p4.poly.coeffs
        for z in (0.0, *(rng.standard_normal(3) + 1j * rng.standard_normal(3))):
            E = p4.poly.e_blocks(z)
            assert len(E) == p4.poly.m
            assert np.array_equal(E[-1], A[-1])
            for r in range(1, p4.poly.m):
                assert np.allclose(E[r - 1], A[r] + z * E[r], rtol=1e-14, atol=1e-14)
            assert np.allclose(A[0] + z * E[0], p4.poly.eval(z), rtol=1e-14, atol=1e-13)


class TestConstruction:
    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            MatrixPolynomial([np.eye(2), np.zeros((2, 2))])

    def test_near_singular_leading_coefficient_rejected(self):
        Am = np.diag([1.0, 1e-15])
        with pytest.raises(InvalidPolynomialError):
            MatrixPolynomial([np.eye(2), Am])

    def test_overflowing_leading_coefficient_refused_by_name(self):
        # condition number 1, but both singular values overflow to inf, which
        # the singular rule read as "numerically singular"
        Am = [[1.5e308, 1.5e308], [-1.5e308, 1.5e308]]
        with pytest.raises(InvalidPolynomialError) as exc:
            MatrixPolynomial([np.eye(2), Am])
        assert str(exc.value) == ("leading coefficient overflows: its spectral norm "
                                  "is not finite (s_max=inf)")
        # the singular rule's message is unchanged
        with pytest.raises(InvalidPolynomialError,
                           match=r"^leading coefficient is numerically singular \(s_min="):
            MatrixPolynomial([np.eye(2), np.diag([1.0, 1e-15])])

    def test_nonfinite_entries_rejected(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidPolynomialError):
            MatrixPolynomial([bad, np.eye(2)])

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            MatrixPolynomial([np.ones((2, 3))])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            MatrixPolynomial([np.eye(2), np.eye(3)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            MatrixPolynomial([])

    def test_leading_singular_values_kept(self, p5):
        s = p5.poly.leading_singular_values
        assert np.array_equal(s, singular_values(p5.poly.coeffs[-1]))
        with pytest.raises(ValueError):
            s[0] = 0.0

    def test_coefficients_frozen(self, p5):
        with pytest.raises(ValueError):
            p5.poly.coeffs[0][0, 0] = 99.0

    def test_one_stack_of_coefficients(self, p5):
        # coeffs are read-only views of the one (m+1, n, n) stack, copied
        # from the input once
        poly = p5.poly
        assert poly.coeff_stack.shape == (3, 2, 2) and poly.coeff_stack.dtype == complex
        assert not poly.coeff_stack.flags.writeable
        for j, A in enumerate(poly.coeffs):
            assert A.base is poly.coeff_stack and np.array_equal(A, poly.coeff_stack[j])
        given = np.stack([np.eye(2), 2 * np.eye(2)])
        q = MatrixPolynomial(given)
        given[0, 0, 0] = 7.0
        assert q.coeffs[0][0, 0] == 1.0

    @pytest.mark.parametrize("coeffs, message", [
        ([np.eye(2), np.full((2, 2), np.nan), np.eye(2)], "coefficient A_1: entries must be finite"),
        ([np.eye(2), np.eye(2), np.full((2, 2), np.inf)], "coefficient A_2: entries must be finite"),
        ([np.ones(2), np.ones(2)], "coefficient A_0: expected a 2-D matrix, got ndim=1"),
        ([np.ones((2, 3))], r"coefficient A_0: expected a square matrix, got shape \(2, 3\)"),
        ([np.eye(3), np.eye(2)], r"coefficient A_1 has shape \(2, 2\), expected \(3, 3\)"),
        ([np.eye(3), np.full((2, 2), np.nan)], "coefficient A_1: entries must be finite"),
        ([], "needs at least one coefficient"),
        # these leaked NumPy's ValueError
        ("x", r"coefficient A_0: expected a matrix of numbers \(complex\(\) arg is a malformed"),
        ([np.eye(2), [[1, 2], [3]]], r"coefficient A_1: expected a matrix of numbers \(setting an"),
        ([[["a", "b"], ["c", "d"]]], "coefficient A_0: expected a matrix of numbers"),
        # these leaked a TypeError from enumerate
        (5, "needs a sequence of coefficient matrices, got 5"),
        (None, "needs a sequence of coefficient matrices, got None"),
    ])
    def test_refusal_names_the_coefficient(self, coeffs, message):
        # one stacked check, with the messages of the matrix-by-matrix ones
        with pytest.raises(InvalidPolynomialError, match=message):
            MatrixPolynomial(coeffs)

    def test_string_delta_refusal_names_it(self, p5):
        zero = np.zeros((2, 2))
        with pytest.raises(InvalidPolynomialError, match=r"deltas\[1\]: expected a matrix of numbers"):
            PerturbedPolynomial(p5.poly, [zero, "x", zero], 0.0, p5.weights)

    def test_degree_zero_allowed(self):
        p = MatrixPolynomial([np.eye(2)])
        assert p.m == 0
        assert spectral_norm(p.eval(7.0)) == pytest.approx(1.0)


class TestWeights:
    def test_all_ones_at_one(self):
        assert WeightSet([1.0, 1.0, 1.0]).eval(1.0) == pytest.approx(3.0)

    def test_constant_term_at_zero(self):
        assert WeightSet([0.1, 1.0, 1.0, 0.0]).eval(0.0) == pytest.approx(0.1)

    def test_crossover_point_value(self):
        w = WeightSet([0.1, 1.0, 1.0, 0.0])
        assert w.eval(0.5691) == pytest.approx(0.9930, abs=1e-4)

    def test_strictly_positive_and_matches_oracle(self, rng):
        for _ in range(20):
            m = int(rng.integers(0, 4))
            wts = [float(rng.uniform(0.01, 2))] + [float(rng.uniform(0, 2)) for _ in range(m)]
            w = WeightSet(wts)
            r = float(rng.uniform(0, 5))
            assert w.eval(r) > 0
            assert w.eval(r) == pytest.approx(naive_weight(wts, r), rel=1e-12)

    def test_derivative_matches_difference_quotient(self):
        w = WeightSet([2.0, 0.5, 3.0])
        r, h = 1.3, 1e-7
        fd = (w.eval(r + h) - w.eval(r - h)) / (2 * h)
        assert w.eval(r, order=1) == pytest.approx(fd, rel=1e-6)

    def test_every_order_matches_termwise_oracle(self, rng):
        # the derivative rule of eval_derivative: 0 above the degree
        for m in range(4):
            wts = [float(rng.uniform(0.01, 2))] + [float(rng.uniform(0, 2)) for _ in range(m)]
            w = WeightSet(wts)
            for r in (0.0, float(rng.uniform(0, 3))):
                for order in range(m + 3):
                    want = naive_derivative([[[wj]] for wj in wts], r, order)[0, 0].real
                    assert w.eval(r, order) == pytest.approx(want, rel=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(HypothesisViolationError, match="^order must be a nonnegative integer, got -1$"):
            WeightSet([1.0, 2.0]).eval(0.5, -1)
        with pytest.raises(HypothesisViolationError, match="^order must be a nonnegative integer, got -1$"):
            MatrixPolynomial([np.eye(2), np.eye(2)]).eval_derivative(0.5, -1)

    @pytest.mark.parametrize("order", [1.5, 1.0, "1", None, True, 0.0])
    def test_non_integer_order_rejected(self, order):
        # 1.5 leaked math.perm's TypeError; an order is a count, so no bool
        with pytest.raises(HypothesisViolationError, match="order must be a nonnegative integer"):
            WeightSet([1.0, 2.0]).eval(0.5, order)
        with pytest.raises(HypothesisViolationError, match="order must be a nonnegative integer"):
            MatrixPolynomial([np.eye(2), np.eye(2)]).eval_derivative(0.5, order)

    def test_integer_like_order_accepted(self, p5):
        # a NumPy integer is an integer: bitwise the int order (a bool is refused)
        for order, same in ((np.int64(2), 2), (np.uint8(1), 1)):
            assert p5.weights.eval(0.5, order) == p5.weights.eval(0.5, same)
            assert np.array_equal(p5.poly.eval_derivative(0.5, order),
                                  p5.poly.eval_derivative(0.5, same))

    @pytest.mark.parametrize("weights", ["abc", ["a", 1.0], 1.0, [1.0, 1j], "123", ["1", "2"], [b"1"],
                                         pytest.param("12", id="str-12"),
                                         pytest.param(b"12", id="bytes-12")])
    def test_non_numbers_rejected(self, weights):
        # the first four leaked float()'s ValueError or TypeError, and float()
        # took the strings and bytes that spell numbers as weights; b"12"
        # iterates as the ints 49 and 50, so a str or bytes is refused whole
        with pytest.raises(InvalidWeightsError, match="weights must be real numbers"):
            WeightSet(weights)

    def test_negative_argument_rejected(self):
        # refused like the derivative order, by core's real-number rule
        for r in (-1, -1e-300):
            with pytest.raises(HypothesisViolationError) as exc:
                WeightSet([1.0, 1.0]).eval(r)
            assert str(exc.value) == f"r must be nonnegative, got {r}"
        with pytest.raises(HypothesisViolationError, match="^r must hold finite nonnegative numbers$"):
            WeightSet([1.0, 1.0]).eval(np.array([0.5, -1.0]))

    def test_zero_w0_rejected(self):
        with pytest.raises(InvalidWeightsError):
            WeightSet([0.0, 1.0])

    def test_negative_rejected(self):
        with pytest.raises(InvalidWeightsError):
            WeightSet([1.0, -0.5])

    def test_length_mismatch_detected(self, p5):
        w = WeightSet([1.0, 1.0])
        with pytest.raises(InvalidWeightsError):
            w.require_match(p5.poly)

    def test_default_weights_from_coefficient_norms(self, p4):
        w = WeightSet.from_coefficient_norms(p4.poly)
        assert np.allclose(w.weights, [25.0379, 2.2919, 1.0], atol=1e-3)

    def test_default_weights_floor_zero_constant_norm(self, p6):
        w = WeightSet.from_coefficient_norms(p6.poly)
        assert w.weights[0] > 0.0
        assert w.eval(0.0) > 0.0


class TestNorms:
    def test_largest_coefficient_norm_is_the_constant_term(self, p4):
        assert max(p4.poly.coefficient_norms()) == pytest.approx(25.0379, abs=1e-3)

    def test_coefficient_norms_are_spectral_norms(self, p5):
        norms = [spectral_norm(A) for A in p5.poly.coeffs]
        assert p5.poly.coefficient_norms() == pytest.approx(norms)

    def test_degree_zero_identity(self, monkeypatch):
        poly = MatrixPolynomial([np.eye(2)])
        # ||A_0|| is the kept leading singular value: no SVD
        monkeypatch.setattr(np.linalg, "svd", None)
        assert poly.coefficient_norms() == pytest.approx((1.0,))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_leading_norm_kept_and_one_stacked_svd(self, monkeypatch, name):
        # ||A_m|| is leading_singular_values[0]: only A_0..A_{m-1} go to the
        # one stacked SVD, and the weights are bitwise those of one stacked
        # SVD of all m + 1 coefficients
        poly = load_fixture(name).poly
        want = np.linalg.svd(poly.coeff_stack, compute_uv=False)[:, 0].tolist()
        want[0] = want[0] or np.finfo(float).tiny
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **k: shapes.append(np.shape(a)) or svd(a, **k))
        assert list(WeightSet.from_coefficient_norms(poly).weights) == want
        assert shapes == [(poly.m, poly.n, poly.n)]


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0])

    def test_rank_one_2x2_closed_form(self):
        M = np.array([[0.0, -0.001], [0.0, 0.006]])
        s = singular_values(M)
        hi, lo = svd2_closed_form(M)
        assert s[0] == pytest.approx(hi, rel=1e-12)
        assert s[0] == pytest.approx(0.006083, abs=1e-6)
        assert s[-1] == pytest.approx(lo, abs=1e-15)

    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([2.0, 0.0])), [2.0, 0.0])

    def test_descending_and_reconstruction(self, rng):
        for _ in range(10):
            M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s = singular_values(M)
            assert np.all(np.diff(s) <= 0)
            U, sd, Vh = np.linalg.svd(M)
            assert np.allclose(s, sd)
            assert spectral_norm(M - (U * sd) @ Vh) <= 1e-10 * spectral_norm(M)

    def test_stack_matches_each_matrix(self, rng):
        A = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        got = singular_values(A)
        assert got.shape == (5, 3)
        for k in range(5):
            assert got[k].tobytes() == singular_values(A[k]).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 5)])
    def test_zero_matrix_norm_is_positive_zero_from_one_svd(self, monkeypatch, shape):
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **k: calls.append(1) or svd(a, **k))
        got = spectral_norm(np.zeros(shape))
        assert got == 0.0 and not np.signbit(got) and calls == [1]

    def test_empty_matrix_norm_is_zero_without_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", None)
        assert spectral_norm(np.zeros((0, 0))) == 0.0
        assert spectral_norm(np.zeros((3, 0))) == 0.0


# (module.function, routine): every numpy.linalg factorization that the
# package may call, at its one owner
FACTORIZATION_OWNERS = sorted([
    ("core.singular_values", "svd"),
    ("spectra._svds_at", "svd"),
    ("spectra._eigensolve", "eigvals"),
    ("core.MatrixPolynomial.log_abs_det_leading", "slogdet"),
])
_FACTORIZATIONS = {"svd", "eig", "eigh", "eigvals", "eigvalsh", "slogdet", "det", "pinv",
                   "matrix_rank", "lstsq", "cond"}


def _factorization_references() -> list[tuple[str, str]]:
    """(enclosing module.class.function, routine) for each reference to a
    numpy.linalg factorization under src/polycond: an attribute of a `linalg`
    object, a name imported from a linalg module, and np.linalg.norm of order
    2 or -2, which takes an SVD."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Attribute) and child.attr in _FACTORIZATIONS:
                owner = child.value
                if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                    found.append((scope, child.attr))
            elif isinstance(child, ast.ImportFrom) and "linalg" in (child.module or ""):
                found.extend((scope, a.name) for a in child.names if a.name in _FACTORIZATIONS)
            elif (isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "norm"
                  and any(ast.unparse(a) in ("2", "-2")
                          for a in child.args[1:2] + [k.value for k in child.keywords if k.arg == "ord"])):
                found.append((scope, "svd"))
            visit(child, scope)

    for path in sorted(Path(polycond.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sorted(found)


class TestFactorizationOwners:
    def test_one_owner_per_factorization(self):
        # core.singular_values takes every values-only SVD, spectra._svds_at
        # the one full SVD, spectra._eigensolve the one eigensolve
        assert _factorization_references() == FACTORIZATION_OWNERS

    def test_finds_every_form_of_reference(self, tmp_path, monkeypatch):
        (tmp_path / "mod.py").write_text(
            "import numpy as np\n"
            "from numpy.linalg import eig\n"
            "class K:\n"
            "    def f(self, M):\n"
            "        return np.linalg.svd(M), np.linalg.norm(M, 2), np.linalg.norm(M, ord=-2)\n"
            "def g(M, args):\n"
            "    return np.linalg.norm(M), args.eig, np.linalg.solve(M, M)\n",
            encoding="utf-8")
        monkeypatch.setattr(polycond, "__file__", str(tmp_path / "__init__.py"))
        assert _factorization_references() == [("mod", "eig"), ("mod.K.f", "svd"),
                                                ("mod.K.f", "svd"), ("mod.K.f", "svd")]


class TestSingularValuesAt:
    """The spectra._svds_at record that eig_vectors, the condition routes, the
    distance bounds and the defect construction share: one full SVD of P(lam)
    and one values-only SVD of P'(lam) per point, kept for the latest nm points
    outside the polynomial."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_bitwise_values_read_only_and_computed_once(self, name, monkeypatch, rng):
        coeffs = load_fixture(name).poly.coeffs
        poly = MatrixPolynomial(coeffs)     # a fresh memo
        # 4 points fill no more than the smallest fixture memo (nm = 4)
        points = [0.0, -1.0] + list(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(k.get("compute_uv", True)) or svd(*a, **k))
        got = {z: _svds_at(poly, z) for _ in range(2) for z in points}
        # per point one full SVD, then one values-only SVD; the second pass is all hits
        assert calls == [True, False] * len(points)
        monkeypatch.undo()
        for z, entry in got.items():
            U, s, Vh = np.linalg.svd(poly.eval(z))
            assert np.array_equal(entry.s, s)
            assert np.array_equal(entry.x, Vh[-1].conj())
            assert np.array_equal(entry.y, U[:, -1])
            # the pair holds O(n) numbers, not a view of U or Vh
            assert entry.x.base is None and entry.y.base is None
            assert np.array_equal(entry.sp, singular_values(poly.eval_derivative(z)))
            for order, sv in ((0, entry.s), (1, entry.sp)):
                want = singular_values(naive_derivative(coeffs, z, order))
                assert np.allclose(sv, want, rtol=1e-12, atol=1e-12 * max(1.0, want[0]))
            assert not any(a.flags.writeable for a in entry)
            with pytest.raises(AttributeError):
                entry.s = s
            assert _svds_at(poly, complex(z)) is entry

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_eig_vectors_returns_copies_of_the_stored_pair(self, name, monkeypatch):
        poly = MatrixPolynomial(load_fixture(name).poly.coeffs)     # a fresh memo
        vals = eigenvalues(poly)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for lam in vals:
            x, y = eig_vectors(poly, lam, values=vals)
            entry = _svds_at(poly, lam)
            assert np.array_equal(x, entry.x) and np.array_equal(y, entry.y)
            assert x.flags.writeable and y.flags.writeable
            assert not np.shares_memory(x, entry.x) and not np.shares_memory(y, entry.y)
        # P(lam) and P'(lam) are decomposed once each per eigenvalue
        assert len(calls) == 2 * len(set(vals.tolist()))

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 1)])
    def test_holds_at_most_nm_points_oldest_dropped_first(self, n, m, rng):
        poly = MatrixPolynomial([rng.standard_normal((n, n)) + 3.0 * np.eye(n)
                                 for _ in range(m + 1)])
        cap = n * m
        keys = []
        for z in rng.standard_normal(3 * cap) + 1j * rng.standard_normal(3 * cap):
            _svds_at(poly, z)
            keys.append(complex(z))
            assert len(_SVD_MEMO[poly]) <= cap
        assert list(_SVD_MEMO[poly]) == keys[-cap:]
        # the memo does not keep its polynomial alive
        ref = weakref.ref(poly)
        del poly
        assert ref() is None

    def test_threads_share_one_memo(self, p5):
        # 4 threads over 64 points of one polynomial, switching threads as
        # often as CPython allows: an unlocked read, insert and eviction raised
        # KeyError or "dictionary changed size during iteration" here
        points = [complex(k % 8, k // 8) + 0.5j for k in range(64)]
        want = [_svds_at(MatrixPolynomial(p5.poly.coeffs), z) for z in points]
        poly = MatrixPolynomial(p5.poly.coeffs)
        got, errors = [[None] * len(points) for _ in range(4)], []

        def run(k):
            try:
                for _ in range(3):
                    for i in range(len(points)):
                        got[k][i] = _svds_at(poly, points[(i + 16 * k) % len(points)])
            except Exception as exc:        # collected: the test names it below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for k in range(4):
            for i, entry in enumerate(got[k]):
                ref = want[(i + 16 * k) % len(points)]
                assert all(a.tobytes() == b.tobytes() for a, b in zip(entry, ref))
        assert len(_SVD_MEMO[poly]) <= poly.n * poly.m

    def test_degree_zero_keeps_nothing(self):
        poly = MatrixPolynomial([2.0 * np.eye(2)])
        entry = _svds_at(poly, 0.5)
        assert np.array_equal(entry.s, [2.0, 2.0]) and np.array_equal(entry.sp, [0.0, 0.0])
        assert np.linalg.norm(entry.x) == pytest.approx(1.0)
        assert np.linalg.norm(entry.y) == pytest.approx(1.0)
        assert _SVD_MEMO[poly] == {}
        # the polynomial holds its coefficients (the stack and its views) and
        # their checks, no SVD state
        assert set(vars(poly)) == {"coeff_stack", "coeffs", "leading_singular_values"}
        assert not hasattr(poly, "_svd_at") and not hasattr(poly, "_singular_values_at")


def smallest_node_labels(a, b, n):
    """Per node, the smallest node of its component, from scipy.sparse.csgraph."""
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    smallest = np.full(comp.max() + 1, n)
    np.minimum.at(smallest, comp, np.arange(n))
    return smallest[comp]


class TestComponents:
    """_components against scipy.sparse.csgraph.connected_components."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(st.integers(1, 200).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=2 * n))))
    def test_random_edge_lists(self, graph):
        # the lists may hold self-loops, repeated edges and isolated nodes
        n, edges = graph
        a, b = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        got = _components(a, b, n)
        assert got.tolist() == smallest_node_labels(a, b, n).tolist()

    def test_shuffled_path_takes_many_rounds(self):
        n = 20_000
        order = np.random.default_rng(4).permutation(n)
        a, b = order[:-1], order[1:]
        assert np.array_equal(_components(a, b, n), np.zeros(n, dtype=np.intp))
        # every other edge: 10^4 two-node pieces
        a, b = a[::2], b[::2]
        assert np.array_equal(_components(a, b, n), smallest_node_labels(a, b, n))

    def test_no_edges(self):
        assert _components([], [], 3).tolist() == [0, 1, 2]
        assert _components([], [], 0).size == 0
