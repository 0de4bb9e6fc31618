"""Left-invariant Riemannian geometry on matrix and reductive Lie groups.

The metric is the Frobenius inner product transported by left translations
(generalized to B_theta for a Cartan structure). The library provides the
closed-form Levi-Civita connection and curvature, sectional curvature with
special-case theorems, closed-form geodesics with totally-geodesic subgroup
checks, and an independent metric-identity oracle that certifies the closed
forms numerically.
"""

from .algebra import (COMPLEX, REAL, MatrixElement, bracket, frobenius_inner,
                      matrix_exp, matrix_from_json, matrix_to_json,
                      random_element, random_matrix)
from .cartan import (AxiomCheck, CartanStructure, ThetaSplit, ValidationReport,
                     from_selector, gl_complex, gl_real, pure_class,
                     standard_basis, theta_split, validate)
from .curvature import (SectionReport, bracket_norm_identity_gap,
                        curvature_tensor, nabla, nabla_case, quartic,
                        quartic_commuting, quartic_special, quartic_terms,
                        sectional)
from .errors import (DegenerateSection, DimensionMismatch, IncompleteBasis,
                     LieCurvError, NotCommuting, NotPureType, Overflow,
                     TangentNotInAlgebra, UnknownGroup)
from .geodesics import (GeodesicSample, SubgroupSpec, TotallyGeodesicReport,
                        builtin_subgroup, geodesic_body_velocity,
                        geodesic_point, geodesic_residual, geodesic_trace,
                        subgroup_from_selector, totally_geodesic_check)
from .oracles import commuting_pair, nabla_from_metric, quartic_from_definition
from .verify import SuiteResult, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "COMPLEX", "REAL", "MatrixElement", "bracket", "frobenius_inner",
    "matrix_exp", "matrix_from_json", "matrix_to_json", "random_element",
    "random_matrix",
    "AxiomCheck", "CartanStructure", "ThetaSplit", "ValidationReport",
    "from_selector", "gl_complex", "gl_real", "pure_class", "standard_basis",
    "theta_split", "validate",
    "SectionReport", "bracket_norm_identity_gap", "curvature_tensor", "nabla",
    "nabla_case", "quartic", "quartic_commuting", "quartic_special",
    "quartic_terms", "sectional",
    "DegenerateSection", "DimensionMismatch", "IncompleteBasis", "LieCurvError",
    "NotCommuting", "NotPureType", "Overflow", "TangentNotInAlgebra",
    "UnknownGroup",
    "GeodesicSample", "SubgroupSpec", "TotallyGeodesicReport",
    "builtin_subgroup", "geodesic_body_velocity", "geodesic_point",
    "geodesic_residual", "geodesic_trace", "subgroup_from_selector",
    "totally_geodesic_check",
    "commuting_pair", "nabla_from_metric", "quartic_from_definition",
    "SuiteResult", "VerifyReport", "run_verify",
    "__version__",
]
