"""Constructive spectral analysis of cascaded dynamical systems.

The library builds and validates layered (block lower triangular) linear
cascades, computes the closed-form initial-condition perturbation map that
makes the decoupled system shadow the coupled one, simulates both orbits
with exact error bounds, constructs the inherited Koopman eigenfunctions
(principal coordinate functionals composed with the perturbation map), and
transports all of it to nonlinear cascades given a topological conjugacy.

A seeded CLI (``koopcascade``) regenerates the reference experiment: a
7-layer chained cascade with layer norms 0.9^(8-i) and unit initial
conditions, exported as CSV error series plus machine-readable check
reports.
"""

from .cascade import (
    CascadeSystem,
    ConditionReport,
    StateVector,
    cascade_from_json,
    cascade_to_json,
    load_cascade,
    random_chained_cascade,
    save_cascade,
    state_from_json,
    state_to_json,
    validate_conditions,
)
from .conjugacy import (
    Conjugacy,
    NonlinearCascade,
    check_nonlinear_eigenfunction_decay,
    check_nonlinear_equivalence,
    conjugacy_from_json,
    conjugated_orbit,
    identity_conjugacy,
    polynomial_conjugacy,
)
from .errors import (
    CascadeError,
    ConditionsNotMetError,
    DeflationIncompleteError,
    DegenerateDrawError,
    DimensionMismatchError,
    GenerationFailedError,
    NewtonDivergenceError,
    NotDiagonalizableError,
    NotPeripheralError,
    OrbitOverflowError,
    ResonantPairError,
    SingularMatrixError,
)
from .linalg import (
    EigDecomposition,
    composite_norm,
    eig_decompose,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    random_matrix_with_norm,
    random_unit_vector,
)
from .observables import (
    check_eigenfunction_bounds,
    eigenfunction_residuals,
    inherited_eigenfunctions,
    laplace_average,
    laplace_table,
    peripheral_modes,
)
from .orbits import (
    ErrorSeries,
    OrbitTrace,
    check_asymptotic_equivalence,
    check_error_bounds,
    compute_error_series,
    error_series_to_csv,
    iterate_lin,
    iterate_nom,
    lin_step,
)
from .perturbation import (
    ClosedFormSolution,
    PerturbationData,
    apply_perturbation,
    compute_perturbation,
    geometric_sum_solve,
    perturbation_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "CascadeSystem",
    "ConditionReport",
    "StateVector",
    "cascade_from_json",
    "cascade_to_json",
    "load_cascade",
    "random_chained_cascade",
    "save_cascade",
    "state_from_json",
    "state_to_json",
    "validate_conditions",
    "Conjugacy",
    "NonlinearCascade",
    "check_nonlinear_eigenfunction_decay",
    "check_nonlinear_equivalence",
    "conjugacy_from_json",
    "conjugated_orbit",
    "identity_conjugacy",
    "polynomial_conjugacy",
    "CascadeError",
    "ConditionsNotMetError",
    "DeflationIncompleteError",
    "DegenerateDrawError",
    "DimensionMismatchError",
    "GenerationFailedError",
    "NewtonDivergenceError",
    "NotDiagonalizableError",
    "NotPeripheralError",
    "OrbitOverflowError",
    "ResonantPairError",
    "SingularMatrixError",
    "EigDecomposition",
    "composite_norm",
    "eig_decompose",
    "matrix_from_json",
    "matrix_to_json",
    "operator_norm",
    "random_matrix_with_norm",
    "random_unit_vector",
    "check_eigenfunction_bounds",
    "eigenfunction_residuals",
    "inherited_eigenfunctions",
    "laplace_average",
    "laplace_table",
    "peripheral_modes",
    "ErrorSeries",
    "OrbitTrace",
    "check_asymptotic_equivalence",
    "check_error_bounds",
    "compute_error_series",
    "error_series_to_csv",
    "iterate_lin",
    "iterate_nom",
    "lin_step",
    "ClosedFormSolution",
    "PerturbationData",
    "apply_perturbation",
    "compute_perturbation",
    "geometric_sum_solve",
    "perturbation_to_json",
    "__version__",
]
