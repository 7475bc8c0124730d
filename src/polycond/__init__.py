"""Eigenvalue condition numbers, pseudospectra, and perturbation bounds for
matrix polynomials with nonsingular leading coefficient.

Every public name is imported from its home module on first access (PEP 562),
so ``import polycond`` loads no submodule and a caller pays only for the
layers it uses.
"""

__version__ = "0.1.0"

# home module -> the public names it provides, in the order of __all__
_HOMES = {
    "core": ("MatrixPolynomial", "WeightSet", "singular_values", "spectral_norm"),
    "linearization": ("companion", "ef_factors", "linearization_residual"),
    "spectra": ("EigenvalueCluster", "JordanBlock", "JordanTriple", "Spectrum", "cluster",
                "companion_vectors", "eig_vectors", "eigenvalues", "nearest_eigenvalue",
                "spectrum", "validate_jordan_triple"),
    "condition": ("adjugate_norm", "cond_eigvector_free", "cond_multiple", "cond_simple",
                  "cond_via_companion", "min_gap_bound"),
    "bounds": ("BoundReport", "ComparatorReport", "bauer_fike_bound", "bound_comparator",
               "dist_mult_bound", "dist_mult_bound_adj", "elsner_bound"),
    "perturb": ("AdmissibilityReport", "PerturbedPolynomial", "defect_perturbation",
                "eigenvalue_shift_samples", "is_admissible", "perturbation_rng",
                "random_perturbation"),
    "pseudospectra": ("ContourSet", "PseudoGrid", "boundedness_check", "component_vertices",
                      "contours", "disc_deviation", "fitted_radius", "grid_eval",
                      "sublevel_component_count"),
    "io": ("MultipleEigenvalueData", "ProblemFile", "load_problem", "parse_problem",
           "serialize_problem"),
    "errors": ("PolycondError", "InvalidPolynomialError", "InvalidWeightsError",
               "ProblemFormatError", "InvalidTripleError", "NotAnEigenvalueError",
               "DefectiveEigenvalueError", "HypothesisViolationError",
               "DegenerateProblemError", "EigensolverError", "ContainmentError"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """A public name, imported from its home module and kept here; a home
    module itself, imported."""
    from importlib import import_module

    if name in _HOMES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOMES, *__all__})
