"""Coordinate-chart tensor calculus with exact second-order jets, and
verification of gradient Yamabe-type soliton structures on explicit
metric families."""

from .autodiff import Jet2, eval_jet2
from .curvature import (
    CurvatureAtPoint,
    covariant_hessian,
    curvature_at,
    curvature_from,
)
from .errors import (
    ConfigError,
    DomainError,
    ExpressionSyntaxError,
    NonPositiveEtaPrimeError,
    NonPositiveWarpingError,
    QuadratureFailureError,
    SignatureMismatchError,
    SingularMetricError,
    SolitonLabError,
    UnknownVariableError,
)
from .expressions import (
    ScalarField,
    constant_field,
    parse_expression,
)
from .families import (
    GRWSpec,
    StaticSpec,
    Walker3Construction,
    Walker3Spec,
    Walker4Spec,
    WarpedConditions,
    WarpedProductSpec,
    assemble_warped_metric,
    grw_potential_field,
    walker3_construct,
    walker3_metric,
    walker4_construct,
    walker4_metric,
    warped_conditions_check,
)
from .grids import grid_points
from .metrics import (
    MetricAtPoint,
    MetricField,
    flat_metric,
    metric_at,
    sphere_metric,
)
from .quadrature import adaptive_simpson
from .soliton import (
    LambdaEstimate,
    ResidualReport,
    SolitonData,
    classify,
    gqy_residual,
    infer_lambda,
    point_geometry,
    residual_report,
    theta_substitution,
)

__version__ = "0.1.0"

__all__ = [
    "Jet2",
    "eval_jet2",
    "CurvatureAtPoint",
    "covariant_hessian",
    "curvature_at",
    "curvature_from",
    "ConfigError",
    "DomainError",
    "ExpressionSyntaxError",
    "NonPositiveEtaPrimeError",
    "NonPositiveWarpingError",
    "QuadratureFailureError",
    "SignatureMismatchError",
    "SingularMetricError",
    "SolitonLabError",
    "UnknownVariableError",
    "ScalarField",
    "constant_field",
    "parse_expression",
    "GRWSpec",
    "StaticSpec",
    "Walker3Construction",
    "Walker3Spec",
    "Walker4Spec",
    "WarpedProductSpec",
    "assemble_warped_metric",
    "grw_potential_field",
    "walker3_construct",
    "walker3_metric",
    "walker4_construct",
    "walker4_metric",
    "grid_points",
    "MetricAtPoint",
    "MetricField",
    "flat_metric",
    "metric_at",
    "sphere_metric",
    "adaptive_simpson",
    "LambdaEstimate",
    "ResidualReport",
    "SolitonData",
    "WarpedConditions",
    "classify",
    "gqy_residual",
    "infer_lambda",
    "point_geometry",
    "residual_report",
    "theta_substitution",
    "warped_conditions_check",
    "__version__",
]
