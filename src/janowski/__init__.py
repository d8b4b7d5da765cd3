"""Geometry of tilted bilinear disk maps, their fractional powers, and the
subordination, radius, and operator results built on them.

The package splits into six layers:

* :mod:`janowski.moebius` -- the bilinear map itself and its disk images.
* :mod:`janowski.envelope` -- powered boundary curves and sharp range reports.
* :mod:`janowski.sectors` -- sector-transfer parameter calculus.
* :mod:`janowski.radii` -- radius constants and class-inclusion tests.
* :mod:`janowski.special` -- series, kernels, and explicit dominants.
* :mod:`janowski.oracle` -- randomized sampling cross-checks for all of it.
"""

from .envelope import (
    BoundReport,
    CriticalPoints,
    EnvelopeCurve,
    SectorImage,
    ShiftedView,
    alpha_nesting,
    critical_points,
    envelope_bounds,
    eval_powered,
    invert_powered,
    sample_curve,
    sector_image,
    tilt_angle,
)
from .errors import (
    BranchUndefinedError,
    ConditionFailedError,
    DegenerateMapError,
    InvalidTheoremIdError,
    JanowskiError,
    NegativeRealPartError,
    NoConvergenceError,
    NonCaratheodoryLambdaError,
    NoRootError,
    NumericalError,
    OutOfRangeError,
    ParameterError,
    PoleOnBoundaryError,
    QuadratureFailureError,
)
from .moebius import (
    CanonicalParams,
    DiskGeometry,
    JanowskiParams,
    canonicalize,
    contains,
    eval_map,
    image_disk,
    origin_position,
)
from .oracle import (
    THEOREM_IDS,
    SchwarzPoly,
    TrialReport,
    empirical_bounds,
    implication_trial,
    random_schwarz,
    subordination_pullback,
    verify_subordination,
)
from .radii import (
    INCLUSION_ORIENTATION_NOTE,
    RadiusProblem,
    StarlikeRadius,
    alpha_star,
    class_inclusion,
    reciprocal_radius,
    starlike_radius,
    subordination_radius,
    uralegaddi_radius,
)
from .sectors import (
    SectorParams,
    TiltReport,
    derivative_sector_params,
    double_subordination_tilt,
    eta_infimum,
    ratio_sector_params,
    reciprocal_order_sector,
    weighted_sector_params,
)
from .special import (
    DominantSpec,
    best_dominant,
    hyper_3f2,
    kernel_integral,
    macgregor_gamma,
    operator_dominant,
    silverman_inclusion,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # moebius
    "JanowskiParams",
    "DiskGeometry",
    "CanonicalParams",
    "eval_map",
    "image_disk",
    "origin_position",
    "canonicalize",
    "contains",
    # envelope
    "eval_powered",
    "invert_powered",
    "EnvelopeCurve",
    "sample_curve",
    "CriticalPoints",
    "critical_points",
    "ShiftedView",
    "BoundReport",
    "envelope_bounds",
    "SectorImage",
    "sector_image",
    "tilt_angle",
    "alpha_nesting",
    # sectors
    "SectorParams",
    "ratio_sector_params",
    "derivative_sector_params",
    "weighted_sector_params",
    "eta_infimum",
    "reciprocal_order_sector",
    "TiltReport",
    "double_subordination_tilt",
    # radii
    "INCLUSION_ORIENTATION_NOTE",
    "RadiusProblem",
    "subordination_radius",
    "class_inclusion",
    "uralegaddi_radius",
    "reciprocal_radius",
    "alpha_star",
    "StarlikeRadius",
    "starlike_radius",
    # special
    "hyper_3f2",
    "kernel_integral",
    "macgregor_gamma",
    "DominantSpec",
    "operator_dominant",
    "best_dominant",
    "silverman_inclusion",
    # oracle
    "SchwarzPoly",
    "TrialReport",
    "random_schwarz",
    "subordination_pullback",
    "verify_subordination",
    "empirical_bounds",
    "implication_trial",
    "THEOREM_IDS",
    # errors
    "JanowskiError",
    "ParameterError",
    "DegenerateMapError",
    "PoleOnBoundaryError",
    "BranchUndefinedError",
    "OutOfRangeError",
    "NegativeRealPartError",
    "ConditionFailedError",
    "InvalidTheoremIdError",
    "NonCaratheodoryLambdaError",
    "NumericalError",
    "NoRootError",
    "NoConvergenceError",
    "QuadratureFailureError",
]
