"""One intake rule for every public scalar and array parameter.

Each parameter is fed NaN, +-inf, -1, "a", "4", b"4", True, 10**400, a list
and None.  The call must raise a PolycondError or return only finite values,
a str or bytes is refused even when it spells a number, and a bool is never
taken for a number.  A count, a size the call allocates or loops over, gets
only 10**400, 2**63 and 2**62, which must be refused before anything is
allocated: NumPy refuses an array of 2**62 floats by arithmetic alone (a
count that a machine might try to allocate, such as 2**40, stays untested).
An array parameter gets a str, a bool, NaN and +-inf entry and one dimension
too many, each refused with its reader's error class: InvalidPolynomialError
for a coefficient or a delta, InvalidTripleError for X and Y, and
HypothesisViolationError for the rest.  A reader of stacks or of any shape
takes the extra dimension as input.  Every array parameter of the public API
has a row.
"""

from __future__ import annotations

import cmath
import dataclasses
import inspect

import numpy as np
import pytest

import polycond
from polycond import (HypothesisViolationError, InvalidPolynomialError, InvalidTripleError,
                      InvalidWeightsError, JordanBlock, JordanTriple, MatrixPolynomial,
                      MultipleEigenvalueData, PerturbedPolynomial, PolycondError, PseudoGrid,
                      WeightSet, adjugate_norm, bauer_fike_bound, bound_comparator,
                      boundedness_check, cluster, companion_vectors, component_vertices,
                      cond_eigvector_free, cond_multiple, cond_simple, cond_via_companion, contours,
                      defect_perturbation, disc_deviation, dist_mult_bound, dist_mult_bound_adj,
                      ef_factors, eig_vectors, eigenvalue_shift_samples, elsner_bound, fitted_radius,
                      grid_eval, is_admissible, linearization_residual, min_gap_bound,
                      nearest_eigenvalue, perturbation_rng, random_perturbation, singular_values,
                      spectral_norm, spectrum, sublevel_component_count, validate_jordan_triple)

BAD = [float("nan"), float("inf"), float("-inf"), -1, "a", "4", b"4", True, 10 ** 400, [1, 2, 3],
       None]
COUNT_BAD = [10 ** 400, 2 ** 63, 2 ** 62]


@dataclasses.dataclass
class Setup:
    """Valid arguments around p5's simple eigenvalue lam = 4 (index i) and p6's triple."""
    p5: object
    p6: object
    x: np.ndarray
    y: np.ndarray
    spec: object
    contour: object
    i: int
    lam: complex


@pytest.fixture(scope="module")
def s(p5, p6):
    x, y = eig_vectors(p5.poly, 4.0)
    spec = spectrum(p5.poly)
    re = np.linspace(-1.0, 1.0, 21)
    Z = re[np.newaxis, :] + 1j * re[:, np.newaxis]
    grid = PseudoGrid(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0, nx=21, ny=21,
                      values=np.abs(Z), weights=WeightSet([1.0]), poly_hash="circle", gfun=np.abs)
    i = int(np.argmin(np.abs(spec.eigenvalues - 4.0)))
    return Setup(p5, p6, x, y, spec, contours(grid, 0.5), i, complex(spec.eigenvalues[i]))


def _grid(s, **kw):
    args = dict(box=(3.5, 4.5, -0.5, 0.5), resolution=3, threads=1)
    return grid_eval(s.p5.poly, s.p5.weights, **dict(args, **kw))


def _multiple(s, eigenvalue=4.0, right=None, left=None):
    """MultipleEigenvalueData of p5's lam = 4 with any one field replaced."""
    return MultipleEigenvalueData(eigenvalue, s.x[:, None] if right is None else right,
                                  s.y.conj()[None] if left is None else left)


def _values(v):
    """Grid values as a caller holds them: floats as a float array, anything else
    (a str, a bool) in an object array rather than read as a number."""
    a = np.array(v, dtype=object)
    return a.astype(float) if all(type(e) is float for e in a.flat) else a


# (parameter, is a count, call with the value v in that parameter's place)
ROWS = [
    ("MatrixPolynomial.eval-z", False, lambda s, v: s.p5.poly.eval(v)),
    ("MatrixPolynomial.eval_derivative-z", False, lambda s, v: s.p5.poly.eval_derivative(v)),
    ("MatrixPolynomial.eval_derivative-order", False,
     lambda s, v: s.p5.poly.eval_derivative(0.5, v)),
    ("MatrixPolynomial.e_blocks-z", False, lambda s, v: s.p5.poly.e_blocks(v)),
    ("WeightSet.eval-r", False, lambda s, v: s.p5.weights.eval(v)),
    ("WeightSet.eval-order", False, lambda s, v: s.p5.weights.eval(0.5, v)),
    ("ef_factors-z", False, lambda s, v: ef_factors(s.p5.poly, v)),
    ("linearization_residual-z", False, lambda s, v: linearization_residual(s.p5.poly, v)),
    # a bool among numbers in a list, which NumPy would read as 0 or 1
    ("linearization_residual-z[0]", False,
     lambda s, v: linearization_residual(s.p5.poly, [v, 2.0])),
    ("cluster-tol", False, lambda s, v: cluster(s.spec.eigenvalues, v)),
    ("spectrum-cluster_tol", False, lambda s, v: spectrum(s.p5.poly, cluster_tol=v)),
    ("nearest_eigenvalue-lam", False, lambda s, v: nearest_eigenvalue(s.spec.eigenvalues, v)),
    ("nearest_eigenvalue-tol", False,
     lambda s, v: nearest_eigenvalue(s.spec.eigenvalues, 4.0, tol=v)),
    ("eig_vectors-lam", False, lambda s, v: eig_vectors(s.p5.poly, v)),
    ("eig_vectors-tol", False, lambda s, v: eig_vectors(s.p5.poly, 4.0, tol=v)),
    ("companion_vectors-lam", False, lambda s, v: companion_vectors(s.p5.poly, v, s.x, s.y)),
    ("validate_jordan_triple-samples", False,
     lambda s, v: validate_jordan_triple(s.p6.poly, s.p6.triple, v)),
    ("validate_jordan_triple-samples[0]", False,
     lambda s, v: validate_jordan_triple(s.p6.poly, s.p6.triple, [v, 2.0])),
    ("JordanBlock-eigenvalue", False, lambda s, v: JordanBlock(v, 1)),
    ("JordanBlock-size", False, lambda s, v: JordanBlock(1.0, v)),
    ("Spectrum.cluster_of-i", False, lambda s, v: s.spec.cluster_of(v)),
    ("MultipleEigenvalueData-eigenvalue", False, lambda s, v: _multiple(s, eigenvalue=v)),
    ("cond_simple-lam", False, lambda s, v: cond_simple(s.p5.poly, s.p5.weights, v, s.x, s.y)),
    ("cond_via_companion-lam", False,
     lambda s, v: cond_via_companion(s.p5.poly, s.p5.weights, v, s.x, s.y)),
    ("cond_multiple-lam", False,
     lambda s, v: cond_multiple(s.p5.poly, s.p5.weights, v, s.x[:, None], s.y.conj()[None])),
    ("cond_eigvector_free-i", False,
     lambda s, v: cond_eigvector_free(s.p5.poly, s.p5.weights, v, s.spec)),
    ("min_gap_bound-i", False, lambda s, v: min_gap_bound(s.p5.poly, s.p5.weights, v, s.spec)),
    ("dist_mult_bound-lam", False,
     lambda s, v: dist_mult_bound(s.p5.poly, s.p5.weights, v, s.x, s.y)),
    ("dist_mult_bound_adj-i", False,
     lambda s, v: dist_mult_bound_adj(s.p5.poly, s.p5.weights, v, s.spec, s.x, s.y)),
    ("elsner_bound-eps", False, lambda s, v: elsner_bound(s.p6.poly, s.p6.weights, v, 0.5)),
    ("elsner_bound-mu", False, lambda s, v: elsner_bound(s.p6.poly, s.p6.weights, 0.1, v)),
    ("bauer_fike_bound-eps", False,
     lambda s, v: bauer_fike_bound(s.p6.poly, s.p6.weights, v, 0.5, s.p6.triple)),
    ("bauer_fike_bound-mu", False,
     lambda s, v: bauer_fike_bound(s.p6.poly, s.p6.weights, 0.1, v, s.p6.triple)),
    ("bound_comparator-eps", False,
     lambda s, v: bound_comparator(s.p6.poly, s.p6.weights, v, 0.5, s.p6.triple)),
    ("bound_comparator-mu", False,
     lambda s, v: bound_comparator(s.p6.poly, s.p6.weights, 0.1, v, s.p6.triple)),
    ("is_admissible-eps", False, lambda s, v: is_admissible(s.p5.poly, s.p5.poly, v, s.p5.weights)),
    ("is_admissible-tol", False,
     lambda s, v: is_admissible(s.p5.poly, s.p5.poly, 0.1, s.p5.weights, tol=v)),
    ("perturbation_rng-seed", False, lambda s, v: perturbation_rng(v).standard_normal(2)),
    ("perturbation_rng-stream", False, lambda s, v: perturbation_rng(0, v).standard_normal(2)),
    ("perturbation_rng-attempt", False,
     lambda s, v: perturbation_rng(0, 0, v).standard_normal(2)),
    ("random_perturbation-eps", False,
     lambda s, v: random_perturbation(s.p5.poly, v, s.p5.weights, seed=0)),
    ("random_perturbation-seed", False,
     lambda s, v: random_perturbation(s.p5.poly, 1e-3, s.p5.weights, seed=v)),
    ("random_perturbation-stream", False,
     lambda s, v: random_perturbation(s.p5.poly, 1e-3, s.p5.weights, seed=0, stream=v)),
    ("defect_perturbation-lam", False,
     lambda s, v: defect_perturbation(s.p5.poly, s.p5.weights, v, s.x, s.y)),
    ("eigenvalue_shift_samples-eps", False,
     lambda s, v: eigenvalue_shift_samples(s.p5.poly, s.p5.weights, v, 4.0, 1, 0)),
    ("eigenvalue_shift_samples-lam", False,
     lambda s, v: eigenvalue_shift_samples(s.p5.poly, s.p5.weights, 1e-3, v, 1, 0)),
    ("eigenvalue_shift_samples-samples", True,
     lambda s, v: eigenvalue_shift_samples(s.p5.poly, s.p5.weights, 1e-3, 4.0, v, 0)),
    ("eigenvalue_shift_samples-seed", False,
     lambda s, v: eigenvalue_shift_samples(s.p5.poly, s.p5.weights, 1e-3, 4.0, 1, v)),
    ("eigenvalue_shift_samples-stream_base", False,
     lambda s, v: eigenvalue_shift_samples(s.p5.poly, s.p5.weights, 1e-3, 4.0, 1, 0, v)),
    ("boundedness_check-eps", False, lambda s, v: boundedness_check(s.p5.poly, s.p5.weights, v)),
    ("grid_eval-box", False, lambda s, v: _grid(s, box=v)),
    ("grid_eval-re_min", False, lambda s, v: _grid(s, box=(v, 4.5, -0.5, 0.5))),
    ("grid_eval-im_max", False, lambda s, v: _grid(s, box=(3.5, 4.5, -0.5, v))),
    ("grid_eval-resolution", True, lambda s, v: _grid(s, resolution=v)),
    ("grid_eval-nx", True, lambda s, v: _grid(s, resolution=(v, 3))),
    ("grid_eval-ny", True, lambda s, v: _grid(s, resolution=(3, v))),
    ("grid_eval-threads", True, lambda s, v: _grid(s, threads=v)),
    ("contours-eps", False, lambda s, v: contours(_grid(s), v)),
    ("sublevel_component_count-eps", False, lambda s, v: sublevel_component_count(_grid(s), v)),
    ("component_vertices-center", False, lambda s, v: component_vertices(s.contour, v)),
    ("fitted_radius-center", False, lambda s, v: fitted_radius(s.contour, v)),
    ("disc_deviation-center", False, lambda s, v: disc_deviation(s.contour, v, 0.5)),
    ("disc_deviation-radius", False, lambda s, v: disc_deviation(s.contour, 0.0, v)),
    ("PerturbedPolynomial-eps_used", False,
     lambda s, v: PerturbedPolynomial(s.p5.poly, np.zeros((3, 2, 2)), v, s.p5.weights)),
]


def _finite(obj) -> bool:
    """Every number that obj holds, through containers and record fields, is finite."""
    if isinstance(obj, (float, complex)):
        return cmath.isfinite(obj)
    if isinstance(obj, (np.ndarray, np.number)):
        return np.asarray(obj).dtype.kind not in "fc" or bool(np.isfinite(obj).all())
    if isinstance(obj, dict):
        return all(map(_finite, obj.values()))
    if isinstance(obj, (tuple, list)):
        return all(map(_finite, obj))
    if dataclasses.is_dataclass(obj):
        return all(_finite(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return True     # an int, a bool, a str, a generator, a function


@pytest.mark.parametrize("count, call", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_bad_scalar_refused_or_finite(s, count, call):
    for v in COUNT_BAD if count else BAD:
        try:
            out = call(s, v)
        except PolycondError:
            continue
        assert not isinstance(v, (str, bytes, bool)), f"{v!r} was taken for a number"
        assert _finite(out), f"{v!r} gave a value that is not finite: {out!r}"


HVE = HypothesisViolationError

# (parameter, a valid array for it, call with the array v in its place, the
# class that refuses a spoiled v)
ARRAY_ROWS = [
    ("cluster-values", lambda s: s.spec.eigenvalues.tolist(), lambda s, v: cluster(v, 1e-6), HVE),
    ("nearest_eigenvalue-values", lambda s: s.spec.eigenvalues.tolist(),
     lambda s, v: nearest_eigenvalue(v, 4.0), HVE),
    ("eig_vectors-values", lambda s: s.spec.eigenvalues.tolist(),
     lambda s, v: eig_vectors(s.p5.poly, 4.0, values=v), HVE),
    ("cond_multiple-right_vectors", lambda s: s.x[:, None].tolist(),
     lambda s, v: cond_multiple(s.p5.poly, s.p5.weights, 4.0, v, s.y.conj()[None]), HVE),
    ("cond_multiple-left_vectors", lambda s: s.y.conj()[None].tolist(),
     lambda s, v: cond_multiple(s.p5.poly, s.p5.weights, 4.0, s.x[:, None], v), HVE),
    ("adjugate_norm-M", lambda s: s.p5.poly.eval(4.0).tolist(), lambda s, v: adjugate_norm(v), HVE),
    # a NaN or infinite entry of x or y gave a NaN condition number or bound
    ("cond_simple-x", lambda s: s.x.tolist(),
     lambda s, v: cond_simple(s.p5.poly, s.p5.weights, s.lam, v, s.y), HVE),
    ("cond_simple-y", lambda s: s.y.tolist(),
     lambda s, v: cond_simple(s.p5.poly, s.p5.weights, s.lam, s.x, v), HVE),
    ("cond_via_companion-x", lambda s: s.x.tolist(),
     lambda s, v: cond_via_companion(s.p5.poly, s.p5.weights, s.lam, v, s.y), HVE),
    ("cond_via_companion-y", lambda s: s.y.tolist(),
     lambda s, v: cond_via_companion(s.p5.poly, s.p5.weights, s.lam, s.x, v), HVE),
    ("companion_vectors-x", lambda s: s.x.tolist(),
     lambda s, v: companion_vectors(s.p5.poly, s.lam, v, s.y), HVE),
    ("companion_vectors-y", lambda s: s.y.tolist(),
     lambda s, v: companion_vectors(s.p5.poly, s.lam, s.x, v), HVE),
    ("dist_mult_bound-x", lambda s: s.x.tolist(),
     lambda s, v: dist_mult_bound(s.p5.poly, s.p5.weights, s.lam, v, s.y), HVE),
    ("dist_mult_bound-y", lambda s: s.y.tolist(),
     lambda s, v: dist_mult_bound(s.p5.poly, s.p5.weights, s.lam, s.x, v), HVE),
    ("dist_mult_bound_adj-x", lambda s: s.x.tolist(),
     lambda s, v: dist_mult_bound_adj(s.p5.poly, s.p5.weights, s.i, s.spec, v, s.y), HVE),
    ("dist_mult_bound_adj-y", lambda s: s.y.tolist(),
     lambda s, v: dist_mult_bound_adj(s.p5.poly, s.p5.weights, s.i, s.spec, s.x, v), HVE),
    ("defect_perturbation-x", lambda s: s.x.tolist(),
     lambda s, v: defect_perturbation(s.p5.poly, s.p5.weights, s.lam, v, s.y), HVE),
    ("defect_perturbation-y", lambda s: s.y.tolist(),
     lambda s, v: defect_perturbation(s.p5.poly, s.p5.weights, s.lam, s.x, v), HVE),
    # LinAlgError leaked on a NaN, and an infinite entry gave NaN singular values
    ("singular_values-M", lambda s: s.p5.poly.eval(4.0).tolist(), lambda s, v: singular_values(v),
     HVE),
    ("spectral_norm-M", lambda s: s.p5.poly.eval(4.0).tolist(), lambda s, v: spectral_norm(v), HVE),
    ("MatrixPolynomial-coeffs[0]", lambda s: s.p5.poly.coeffs[0].tolist(),
     lambda s, v: MatrixPolynomial([v, *s.p5.poly.coeffs[1:]]), InvalidPolynomialError),
    ("PerturbedPolynomial-deltas[1]", lambda s: np.zeros((2, 2)).tolist(),
     lambda s, v: PerturbedPolynomial(s.p5.poly, [np.zeros((2, 2)), v, np.zeros((2, 2))], 0.0,
                                      s.p5.weights), InvalidPolynomialError),
    ("JordanTriple-X", lambda s: s.p6.triple.X.tolist(),
     lambda s, v: JordanTriple(v, s.p6.triple.blocks, s.p6.triple.Y), InvalidTripleError),
    ("JordanTriple-Y", lambda s: s.p6.triple.Y.tolist(),
     lambda s, v: JordanTriple(s.p6.triple.X, s.p6.triple.blocks, v), InvalidTripleError),
    # an object array keeps a bool a bool; a list would be read as one r
    ("WeightSet.eval-r", lambda s: [0.5, 1.0, 2.0],
     lambda s, v: s.p5.weights.eval(np.array(v, dtype=object)), HVE),
    ("PseudoGrid.gfun-z", lambda s: [3.9 + 0.1j, 4.1 - 0.2j], lambda s, v: _grid(s).gfun(v), HVE),
    # a str leaked UFuncTypeError from contours, and a NaN grid gave 0 components
    ("PseudoGrid-values", lambda s: _grid(s).values.tolist(),
     lambda s, v: dataclasses.replace(_grid(s), values=_values(v)), HVE),
    ("MultipleEigenvalueData-right_vectors", lambda s: s.x[:, None].tolist(),
     lambda s, v: _multiple(s, right=v), HVE),
    ("MultipleEigenvalueData-left_vectors", lambda s: s.y.conj()[None].tolist(),
     lambda s, v: _multiple(s, left=v), HVE),
]
# readers of a stack or of any shape, which take one more dimension as input
ANY_SHAPE = {"singular_values-M", "WeightSet.eval-r", "PseudoGrid.gfun-z"}


def _spoiled(valid) -> list:
    """valid with its first entry a str, a bool, NaN, inf and -inf in turn, and
    valid inside one more dimension."""
    out = []
    for bad in ("a", True, float("nan"), float("inf"), float("-inf")):
        a = np.array(valid, dtype=object)
        a.flat[0] = bad
        out.append(a.tolist())
    return out + [[valid]]


@pytest.mark.parametrize("name, valid, call, error", ARRAY_ROWS, ids=[row[0] for row in ARRAY_ROWS])
def test_bad_array_entry_refused(s, name, valid, call, error):
    # a str leaked ValueError, a nested list IndexError or TypeError, NaN in
    # a matrix LinAlgError, and a bool was read as 1
    call(s, valid(s))
    *entries, deeper = _spoiled(valid(s))
    for v in entries if name in ANY_SHAPE else entries + [deeper]:
        with pytest.raises(error):
            call(s, v)
    if name in ANY_SHAPE:
        call(s, deeper)


# the names of the public API's array parameters
ARRAY_PARAMETERS = {"x", "y", "right", "left", "right_vectors", "left_vectors", "values", "M",
                    "coeffs", "deltas", "X", "Y"}


def test_every_array_parameter_has_a_row():
    ids = [row[0] for row in ROWS + ARRAY_ROWS]
    missing = []
    for name in polycond.__all__:
        obj = getattr(polycond, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        targets = [(name, obj)]
        if isinstance(obj, type):
            targets += [(f"{name}.{a}", getattr(obj, a)) for a in vars(obj) if not a.startswith("_")]
        for qual, f in targets:
            if not callable(f):
                continue
            for p in inspect.signature(f).parameters:
                key = f"{qual}-{p}"
                if p in ARRAY_PARAMETERS and not any(i == key or i.startswith(key + "[") for i in ids):
                    missing.append(key)
    assert missing == []


def test_multiple_eigenvalue_data_refuses_mismatched_shapes(s):
    # cond_multiple met the mismatch only when it ran
    with pytest.raises(HypothesisViolationError, match="must be n x kappa and kappa x n matrices"):
        _multiple(s, left=np.ones((1, 3)))


def test_perturbed_polynomial_refuses_weights_it_cannot_use(p5, p6):
    # each was stored as given
    zero = np.zeros((3, 2, 2))
    for weights in ("w", [1.0, 1.0, 1.0], p6.weights):
        with pytest.raises(InvalidWeightsError):
            PerturbedPolynomial(p5.poly, zero, 0.0, weights)


def test_count_numpy_cannot_allocate_refused_by_name(s):
    # each leaked NumPy's "array is too big" ValueError
    with pytest.raises(HypothesisViolationError) as exc:
        eigenvalue_shift_samples(s.p5.poly, s.p5.weights, 1e-3, 4.0, 2 ** 62, 0)
    assert str(exc.value) == f"samples is too large to allocate, got {2 ** 62}"
    for resolution in ((2 ** 62, 3), (3, 2 ** 62), 2 ** 62):
        with pytest.raises(HypothesisViolationError) as exc:
            _grid(s, resolution=resolution)
        assert str(exc.value) == f"resolution is too large to allocate, got {resolution!r}"


def test_eig_vectors_refuses_lam_before_the_eigensolve(p5, monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
    for lam in ("a", "4", float("nan"), 10 ** 400):
        with pytest.raises(PolycondError, match="^lam must be (a )?finite"):
            eig_vectors(p5.poly, lam)
    assert calls == []
