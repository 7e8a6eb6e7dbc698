"""Fuchsian systems on the Riemann sphere.

Differential Galois group generators exp(2 pi i B_j), monodromy by analytic
continuation with a verification report comparing the two, exact conversions
among scalar equations / matrix systems / differential modules, and a
near-identity inverse problem solver.
"""

from .equivalence import (
    DifferentialModule,
    RationalMatrix,
    ScalarEquation,
    companion_of_scalar,
    gauge_transform,
    matrix_from_module,
    module_from_matrix,
    scalar_solution_transfer,
)
from .errors import (
    ClusterAmbiguityError,
    EigenConvergenceError,
    FuchsiaError,
    GeometryError,
    MatrixExpOverflowError,
    NonFiniteError,
    NumericsError,
    ParseError,
    SimilaritySearchError,
    ValidationError,
)
from .inverse import (
    InverseProblemInstance,
    InverseSolution,
    first_order_seed,
    second_order_seed,
    solve as solve_inverse,
    validate_instance,
)
from .linalg import (
    JordanStructure,
    SimilarityResult,
    eigen_decompose,
    jordan_structure,
    matrix_exp,
    similarity_transform,
)
from .monodromy import (
    MonodromyRepresentation,
    TheoremReport,
    continue_solution,
    monodromy,
    verify_theorem,
)
from .paths import (
    Arc,
    ContinuationPath,
    Line,
    build_loops,
    composition_order,
    default_base_point,
    path_clearance_audit,
)
from .rational import (
    ComplexRational,
    Polynomial,
    RationalFunction,
    parse_rational_function,
)
from .system import (
    FuchsianSystem,
    LeveltData,
    LeveltExponent,
    PoleResonance,
    ResonanceWarning,
    galois_generators,
    is_non_resonant,
    levelt_data,
    validate_system,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ClusterAmbiguityError",
    "ComplexRational",
    "ContinuationPath",
    "DifferentialModule",
    "EigenConvergenceError",
    "FuchsiaError",
    "FuchsianSystem",
    "GeometryError",
    "InverseProblemInstance",
    "InverseSolution",
    "JordanStructure",
    "LeveltData",
    "LeveltExponent",
    "Line",
    "MatrixExpOverflowError",
    "MonodromyRepresentation",
    "NonFiniteError",
    "NumericsError",
    "ParseError",
    "PoleResonance",
    "Polynomial",
    "RationalFunction",
    "RationalMatrix",
    "ResonanceWarning",
    "ScalarEquation",
    "SimilarityResult",
    "SimilaritySearchError",
    "TheoremReport",
    "ValidationError",
    "build_loops",
    "companion_of_scalar",
    "composition_order",
    "continue_solution",
    "default_base_point",
    "eigen_decompose",
    "first_order_seed",
    "galois_generators",
    "gauge_transform",
    "is_non_resonant",
    "jordan_structure",
    "levelt_data",
    "matrix_exp",
    "matrix_from_module",
    "module_from_matrix",
    "monodromy",
    "parse_rational_function",
    "path_clearance_audit",
    "scalar_solution_transfer",
    "second_order_seed",
    "similarity_transform",
    "solve_inverse",
    "validate_instance",
    "validate_system",
    "verify_theorem",
]
