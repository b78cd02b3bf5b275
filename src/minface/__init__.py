"""Timelike minimal surfaces in Lorentz-Minkowski 3-space.

Surfaces are built from real Weierstrass-type data (two data functions and
two densities, one per null coordinate) or directly from a pair of null
curves. The library evaluates them with third-order jets, computes Gaussian
curvature by three independent routes, classifies flat and singular points,
and ships a numerical property battery plus a small CLI.
"""

from .errors import (DataConversionDegenerate, DegenerateAtPoint,
                     DegenerateSingular, DivisionByZero, DomainError,
                     ExpressionSyntaxError, FlatPoint,
                     InvalidCurveData, InvalidWeierstrassData, MinfaceError,
                     ModeUnsupported, MultipleVariables, NonFiniteResult,
                     NonIntegerExponent, NotCuspidalEdge, NotSingular,
                     OutsideDomain, QuadratureError, RootNotConverged,
                     SingularNeighborhood, SingularPoint, SpecFileError)
from .jets import Jet3, constant, lift_variable, shift_derivative
from .expr import (Expression, eval_array, eval_jet, eval_value, parse,
                   to_string)
from .lorentz import det3, enorm, mcross, mdot, vec3
from .quadrature import PrefixIntegral, adaptive_quad
from .surface import (NullCurvePair, RealWeierstrassData, RecoveredData,
                      Rect, Surface, SurfaceJet, as_pair, conjugate_data,
                      curves_from_data, data_from_curves, evaluate, get_data,
                      jets_at, load_spec, mean_curvature_residual,
                      pair_from_position_expressions, require_data,
                      save_spec, surface_from_dict, surface_to_dict)
from .curvature import (FlatClassification, FlatTag, OrientationSign,
                        WindingSigns, axis_curve, curve_orientation,
                        energy_gauge, flat_classify, gaussian_curvature,
                        gaussian_curvature_extrinsic,
                        gaussian_curvature_intrinsic_fd, milnor_sign_check,
                        orientation, sign_prediction, winding_signs)
from .singular import (MainTheoremReport, SingularClassification,
                       SingularCurve, SingularData, SingularDirections,
                       SingularPointReport, all_reports, classify_singular,
                       directions_at, is_front, is_nondegenerate,
                       lambda_gradient_on_singular, normal_twist_identity,
                       signed_area_density, singular_curvature, singular_data,
                       trace_singular_set, verify_main_theorem,
                       write_singular_csv)
from .mesh import (MESH_SINGULAR_TOL, SurfaceMesh, export_fields_csv,
                   export_obj, sample_grid)
from .verify import (CheckResult, format_results, make_accumulation_data,
                     make_random_poly_data, run_battery,
                     sample_regular_points)
from . import gallery

__version__ = "0.1.0"

__all__ = [
    # errors
    "MinfaceError", "DomainError", "DivisionByZero", "NonFiniteResult",
    "ExpressionSyntaxError", "NonIntegerExponent", "MultipleVariables",
    "SpecFileError", "InvalidWeierstrassData", "InvalidCurveData",
    "DataConversionDegenerate", "ModeUnsupported", "QuadratureError",
    "SingularPoint", "SingularNeighborhood", "NotSingular",
    "NotCuspidalEdge", "FlatPoint", "DegenerateAtPoint",
    "DegenerateSingular", "RootNotConverged", "OutsideDomain",
    # jets and expressions
    "Jet3", "constant", "lift_variable", "shift_derivative",
    "Expression", "parse", "eval_jet", "eval_value", "eval_array",
    "to_string",
    # geometry helpers
    "vec3", "mdot", "mcross", "enorm", "det3", "adaptive_quad",
    "PrefixIntegral",
    # surfaces
    "Rect", "RealWeierstrassData", "NullCurvePair", "Surface", "SurfaceJet",
    "RecoveredData", "as_pair", "get_data", "require_data",
    "curves_from_data", "pair_from_position_expressions", "data_from_curves",
    "evaluate", "jets_at", "mean_curvature_residual", "conjugate_data",
    "surface_from_dict", "surface_to_dict", "load_spec", "save_spec",
    # curvature, flatness, gauges
    "gaussian_curvature", "gaussian_curvature_extrinsic",
    "gaussian_curvature_intrinsic_fd", "FlatTag", "FlatClassification",
    "flat_classify", "OrientationSign", "orientation", "curve_orientation",
    "sign_prediction", "WindingSigns", "winding_signs", "milnor_sign_check",
    "energy_gauge", "axis_curve",
    # singular set
    "SingularData", "singular_data", "signed_area_density",
    "lambda_gradient_on_singular", "SingularClassification",
    "SingularPointReport", "is_front", "is_nondegenerate",
    "classify_singular", "singular_curvature", "SingularDirections",
    "directions_at", "normal_twist_identity", "SingularCurve",
    "trace_singular_set", "all_reports", "write_singular_csv",
    "MainTheoremReport", "verify_main_theorem",
    # meshing and verification
    "SurfaceMesh", "MESH_SINGULAR_TOL", "sample_grid", "export_obj",
    "export_fields_csv", "CheckResult", "run_battery", "format_results",
    "sample_regular_points", "make_random_poly_data",
    "make_accumulation_data", "gallery",
]
