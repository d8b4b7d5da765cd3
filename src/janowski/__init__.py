"""Geometry of tilted bilinear disk maps, their fractional powers, and the
subordination, radius, and operator results built on them.

The package splits into six layers:

* :mod:`janowski.moebius` -- the bilinear map itself and its disk images.
* :mod:`janowski.envelope` -- powered boundary curves and sharp range reports.
* :mod:`janowski.sectors` -- sector images, tilts and sector-transfer calculus.
* :mod:`janowski.radii` -- radius constants, orders and class-inclusion tests.
* :mod:`janowski.special` -- series, kernels, and explicit dominants.
* :mod:`janowski.oracle` -- randomized sampling cross-checks for all of it.

Importing the package loads none of them, nor numpy: a submodule loads on
first access to one of its names (PEP 562), so `janowski.image_disk` loads
only :mod:`janowski.moebius`. Of them only `envelope` and `oracle` load
numpy; `moebius` and `special` import it for an array or a long 3F2 sum.
"""

from importlib import import_module

__version__ = "0.1.0"

# The exported names of each submodule, the one source of `__all__`.
_EXPORTS = {
    "moebius": (
        "JanowskiParams",
        "DiskGeometry",
        "CanonicalParams",
        "eval_map",
        "image_disk",
        "origin_position",
        "canonicalize",
        "contains",
    ),
    "envelope": (
        "eval_powered",
        "invert_powered",
        "EnvelopeCurve",
        "sample_curve",
        "CriticalPoints",
        "critical_points",
        "ShiftedView",
        "BoundReport",
        "envelope_bounds",
    ),
    "sectors": (
        "SectorImage",
        "sector_image",
        "tilt_angle",
        "alpha_nesting",
        "SectorParams",
        "ratio_sector_params",
        "derivative_sector_params",
        "weighted_sector_params",
        "eta_infimum",
        "reciprocal_order_sector",
        "TiltReport",
        "double_subordination_tilt",
    ),
    "radii": (
        "INCLUSION_ORIENTATION_NOTE",
        "RadiusProblem",
        "subordination_radius",
        "class_inclusion",
        "silverman_inclusion",
        "uralegaddi_radius",
        "reciprocal_radius",
        "alpha_star",
        "macgregor_gamma",
        "StarlikeRadius",
        "starlike_radius",
    ),
    "special": (
        "hyper_3f2",
        "kernel_integral",
        "DominantSpec",
        "operator_dominant",
        "best_dominant",
    ),
    "oracle": (
        "SchwarzPoly",
        "TrialReport",
        "random_schwarz",
        "subordination_pullback",
        "verify_subordination",
        "empirical_bounds",
        "implication_trial",
        "THEOREM_IDS",
    ),
    "errors": (
        "JanowskiError",
        "ParameterError",
        "DegenerateMapError",
        "PoleOnBoundaryError",
        "BranchUndefinedError",
        "OutOfRangeError",
        "NegativeRealPartError",
        "InvalidTheoremIdError",
        "NonCaratheodoryLambdaError",
        "NumericalError",
        "NoRootError",
        "NoConvergenceError",
        "QuadratureFailureError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Load the submodule `name`, or the one defining `name`, and keep the
    value in the package namespace so that later lookups bypass this."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
