"""Left-invariant Riemannian geometry on matrix and reductive Lie groups.

The metric is the Frobenius inner product transported by left translations
(generalized to B_theta for a Cartan structure). The library provides the
closed-form Levi-Civita connection and curvature, sectional curvature with
special-case theorems, closed-form geodesics with totally-geodesic subgroup
checks, and an independent oracle built from the structure constants of the
algebra that certifies the closed forms numerically.
"""

from .algebra import (COMPLEX, REAL, MatrixElement, bracket, matrix_exp,
                      matrix_from_json, matrix_to_json, random_matrix)
from .cartan import (CartanStructure, ThetaSplit, from_selector, gl_complex,
                     gl_real, pure_class, random_part, standard_basis,
                     theta_part, theta_split, validate)
from .curvature import (SectionReport, bracket_norm_identity_gap, nabla,
                        quartic, quartic_commuting, quartic_special,
                        sectional, sections)
from .errors import (DegenerateSection, DimensionMismatch, IncompleteBasis,
                     LieCurvError, NotCommuting, NotPureType, Overflow,
                     TangentNotInAlgebra, UnknownGroup)
from .geodesics import (GeodesicSample, SubgroupSpec, TotallyGeodesicReport,
                        geodesic_body_velocity, geodesic_point,
                        geodesic_residual, geodesic_trace,
                        subgroup_from_selector, totally_geodesic_check)
from .oracles import (commuting_pair, nabla_from_metric,
                      quartic_from_definition, riemann_from_metric)
from .verify import SuiteResult, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "COMPLEX", "REAL", "MatrixElement", "bracket", "matrix_exp",
    "matrix_from_json", "matrix_to_json", "random_matrix",
    "CartanStructure", "ThetaSplit", "from_selector", "gl_complex", "gl_real",
    "pure_class", "random_part", "standard_basis", "theta_part", "theta_split",
    "validate",
    "SectionReport", "bracket_norm_identity_gap", "nabla", "quartic",
    "quartic_commuting", "quartic_special", "sectional", "sections",
    "DegenerateSection", "DimensionMismatch", "IncompleteBasis", "LieCurvError",
    "NotCommuting", "NotPureType", "Overflow", "TangentNotInAlgebra",
    "UnknownGroup",
    "GeodesicSample", "SubgroupSpec", "TotallyGeodesicReport",
    "geodesic_body_velocity", "geodesic_point",
    "geodesic_residual", "geodesic_trace", "subgroup_from_selector",
    "totally_geodesic_check",
    "commuting_pair", "nabla_from_metric", "quartic_from_definition",
    "riemann_from_metric",
    "SuiteResult", "VerifyReport", "run_verify",
    "__version__",
]
