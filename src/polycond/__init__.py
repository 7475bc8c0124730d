"""Eigenvalue condition numbers, pseudospectra, and perturbation bounds for
matrix polynomials with nonsingular leading coefficient."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    ComparatorReport,
    bauer_fike_bound,
    bound_comparator,
    dist_mult_bound,
    dist_mult_bound_adj,
    elsner_bound,
)
from .condition import (
    adjugate_norm,
    cond_companion,
    cond_eigvector_free,
    cond_multiple,
    cond_simple,
    cond_via_companion,
    min_gap_bound,
)
from .core import MatrixPolynomial, WeightSet, singular_values, spectral_norm
from .errors import (
    ContainmentError,
    DefectiveEigenvalueError,
    DegenerateProblemError,
    EigensolverError,
    HypothesisViolationError,
    InvalidPolynomialError,
    InvalidTripleError,
    InvalidWeightsError,
    NotAnEigenvalueError,
    PolycondError,
    ProblemFormatError,
)
from .io import MultipleEigenvalueData, ProblemFile, load_problem, parse_problem, serialize_problem
from .linearization import companion, ef_factors, linearization_residual
from .perturb import (
    AdmissibilityReport,
    PerturbedPolynomial,
    defect_perturbation,
    eigenvalue_shift_samples,
    is_admissible,
    perturbation_rng,
    random_perturbation,
)
from .pseudospectra import (
    ContourSet,
    PseudoGrid,
    boundedness_check,
    component_vertices,
    contours,
    disc_deviation,
    fitted_radius,
    grid_eval,
    problem_hash,
    sublevel_component_count,
)
from .spectra import (
    EigenvalueCluster,
    JordanBlock,
    JordanTriple,
    Spectrum,
    cluster,
    companion_vectors,
    default_cluster_tol,
    eig_vectors,
    eigenproblem_cond,
    eigenvalues,
    nearest_eigenvalue,
    spectrum,
    validate_jordan_triple,
)

__all__ = [
    "__version__",
    # core
    "MatrixPolynomial", "WeightSet", "singular_values", "spectral_norm",
    # linearization
    "companion", "ef_factors", "linearization_residual",
    # spectra
    "EigenvalueCluster", "JordanBlock", "JordanTriple", "Spectrum", "cluster",
    "companion_vectors", "default_cluster_tol", "eig_vectors", "eigenproblem_cond",
    "eigenvalues", "nearest_eigenvalue", "spectrum", "validate_jordan_triple",
    # condition
    "adjugate_norm", "cond_companion", "cond_eigvector_free", "cond_multiple",
    "cond_simple", "cond_via_companion", "min_gap_bound",
    # bounds
    "BoundReport", "ComparatorReport", "bauer_fike_bound", "bound_comparator",
    "dist_mult_bound", "dist_mult_bound_adj", "elsner_bound",
    # perturb
    "AdmissibilityReport", "PerturbedPolynomial", "defect_perturbation",
    "eigenvalue_shift_samples", "is_admissible", "perturbation_rng",
    "random_perturbation",
    # pseudospectra
    "ContourSet", "PseudoGrid", "boundedness_check", "component_vertices",
    "contours", "disc_deviation", "fitted_radius", "grid_eval", "problem_hash",
    "sublevel_component_count",
    # io
    "MultipleEigenvalueData", "ProblemFile", "load_problem", "parse_problem",
    "serialize_problem",
    # errors
    "PolycondError", "InvalidPolynomialError", "InvalidWeightsError",
    "ProblemFormatError", "InvalidTripleError", "NotAnEigenvalueError",
    "DefectiveEigenvalueError", "HypothesisViolationError",
    "DegenerateProblemError", "EigensolverError", "ContainmentError",
]
