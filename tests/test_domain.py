"""Inputs outside the domain: every public scalar argument rejects NaN and
infinities, and seeds and sample counts reject anything but an integer in
range, each with a JanowskiError rather than a returned value or a bare
numpy or Python exception.

Point evaluators that map non-finite points on purpose (`invert_powered`,
`subordination_pullback`) are left out.
"""

import functools
import math

import numpy as np
import pytest

from janowski import (
    DominantSpec,
    JanowskiError,
    JanowskiParams,
    OutOfRangeError,
    ParameterError,
    RadiusProblem,
    SchwarzPoly,
    alpha_nesting,
    best_dominant,
    class_inclusion,
    contains,
    critical_points,
    derivative_sector_params,
    double_subordination_tilt,
    empirical_bounds,
    envelope_bounds,
    eta_infimum,
    eval_map,
    eval_powered,
    hyper_3f2,
    image_disk,
    implication_trial,
    kernel_integral,
    macgregor_gamma,
    operator_dominant,
    random_schwarz,
    ratio_sector_params,
    reciprocal_order_sector,
    reciprocal_radius,
    sample_curve,
    sector_image,
    silverman_inclusion,
    starlike_radius,
    tilt_angle,
    uralegaddi_radius,
    verify_subordination,
    weighted_sector_params,
)

P = JanowskiParams(0.8, -0.3, 0.6)
DISK = image_disk(JanowskiParams(1.0, -0.5), 0.8)
SPEC = DominantSpec(A=1.0, b=0.5, alpha=0.5, gamma=0.5, mu=1.0, eta=0.5, delta=1.0, rho=0.0)
SAMPLES = np.array([1.0 + 0.1j, 1.2 - 0.2j])


def _const(value):
    return lambda z: np.full_like(np.asarray(z, dtype=complex), value)


# name -> (callable, fixed leading arguments, valid scalar keyword arguments);
# each valid call returns a value, and each scalar is replaced in turn
SCALAR_CALLS = {
    "JanowskiParams": (JanowskiParams, (), dict(A=0.8, B=-0.3, alpha=0.6, gamma=0.1j)),
    "image_disk": (image_disk, (P,), dict(r=0.7)),
    "eval_map": (eval_map, (P,), dict(z=0.3 + 0.2j)),
    "eval_powered": (eval_powered, (P,), dict(z=0.3 + 0.2j)),
    "contains": (contains, (DISK, DISK), dict(tol=1e-12)),
    "sample_curve": (sample_curve, (P,), dict(r=0.9, n=64)),
    "critical_points": (critical_points, (P,), dict(r=0.9)),
    "envelope_bounds": (envelope_bounds, (P,), dict(r=0.9)),
    "sector_image": (sector_image, (), dict(alpha=0.5, m=0.3)),
    "tilt_angle": (tilt_angle, (), dict(b=0.4, m=0.3)),
    "alpha_nesting": (alpha_nesting, (), dict(A=1.0, B=-1.0, a1=0.3, a2=0.6)),
    "ratio_sector_params": (ratio_sector_params, (), dict(alpha=0.5, m=0.0, beta=1.0, arg_ratio=0.3)),
    "derivative_sector_params": (derivative_sector_params, (), dict(alpha=0.5, m=0.2)),
    "weighted_sector_params": (weighted_sector_params, (), dict(alpha=0.5, beta=0.4, gamma=0.6, m=0.2, eta=0.5)),
    "eta_infimum": (eta_infimum, (_const(1.0 + 0.5j),), dict(beta=0.3)),
    "reciprocal_order_sector": (reciprocal_order_sector, (), dict(alpha=0.5, beta=0.3)),
    "double_subordination_tilt": (
        functools.partial(double_subordination_tilt, strict=False), (), dict(a=0.5, b=0.3, c=0.4, d=0.2, l=0.5, m=0.3, alpha=0.7),
    ),
    "RadiusProblem": (
        RadiusProblem, (), dict(A=1.0, B=-1.0, alpha=0.8, gamma=0.1j, C=0.5, D=-0.5, beta=0.6, delta=0.2),
    ),
    "class_inclusion": (class_inclusion, (), dict(A=1.0, B=-1.0, alpha=0.5, C=1.0, D=-1.0, beta=0.25)),
    "uralegaddi_radius": (uralegaddi_radius, (), dict(A=1.0, B=-1.0, alpha=1.0, beta2=1.5)),
    "reciprocal_radius": (reciprocal_radius, (), dict(A=1.0, B=-1.0, alpha=1.0, beta2=0.5)),
    "starlike_radius": (starlike_radius, (), dict(A=0.8, B=-0.6, beta=1.2)),
    "hyper_3f2": (hyper_3f2, (), dict(a1=1.0, a2=1.0, a3=1.0, b1=2.0, b2=2.0, x=0.5, tol=1e-12)),
    "kernel_integral": (kernel_integral, (), dict(A=1.0, b=0.5, alpha=0.5, z=0.5, tol=1e-10)),
    "macgregor_gamma": (macgregor_gamma, (), dict(beta=0.5)),
    "DominantSpec": (
        DominantSpec, (), dict(A=1.0, b=0.5, alpha=0.5, gamma=0.5, mu=1.0, eta=0.5, delta=1.0, rho=0.0),
    ),
    "operator_dominant": (operator_dominant, (SPEC,), dict(z=0.3)),
    "best_dominant": (best_dominant, (lambda t: 1.0 + t, lambda t: 1.0), dict(z=0.5, tol=1e-10)),
    "silverman_inclusion": (silverman_inclusion, (), dict(A=0.5, b=0.5, alpha=0.5, beta=0.1)),
    "SchwarzPoly.scaled_identity": (SchwarzPoly.scaled_identity, (), dict(c=0.3 + 0.2j)),
    "SchwarzPoly.dilated": (SchwarzPoly.scaled_identity(0.5).dilated, (), dict(rho=0.5)),
    "random_schwarz": (random_schwarz, (), dict(seed=3, degree=4)),
    "verify_subordination": (verify_subordination, (SAMPLES, JanowskiParams(1.0, 0.0, 0.5)), dict(r=1.0, tol=1e-9)),
    "empirical_bounds": (empirical_bounds, (P,), dict(r=0.9, n=64)),
    "implication_trial": (implication_trial, ("T5.5",), dict(seed=3)),
    "DiskGeometry.boundary_points": (DISK.boundary_points, (), dict(n=16)),
}

NON_FINITE = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}


def _cases():
    for name, (fn, fixed, scalars) in SCALAR_CALLS.items():
        for arg in scalars:
            for label, bad in NON_FINITE.items():
                yield pytest.param(fn, fixed, {**scalars, arg: bad}, id=f"{name}-{arg}-{label}")


@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_valid_base_calls_return(name):
    fn, fixed, scalars = SCALAR_CALLS[name]
    fn(*fixed, **scalars)


@pytest.mark.parametrize("fn, fixed, kwargs", _cases())
def test_non_finite_scalars_raise(fn, fixed, kwargs):
    with pytest.raises(JanowskiError):
        fn(*fixed, **kwargs)


# point evaluators take a scalar or a non-empty array of finite points
POINT_CASES = {
    f"{fn.__name__}-{label}": (fn, fixed, dict(z=z))
    for fn, fixed in ((eval_map, (P,)), (eval_powered, (P,)), (operator_dominant, (SPEC,)))
    for label, z in (("nan", math.nan), ("inf-in-array", [0.1, math.inf]), ("empty", []))
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, fixed, kwargs", POINT_CASES.values(), ids=POINT_CASES.keys())
def test_points_must_be_finite_and_non_empty(fn, fixed, kwargs):
    with pytest.raises(ParameterError, match="finite points"):
        fn(*fixed, **kwargs)


# seeds are integers in [0, 2^64); sample counts are integers from a floor up
INDEX_CASES = {
    "implication_trial-seed-fraction": (implication_trial, ("T5.5",), dict(seed=1.5)),
    "implication_trial-seed-2^64": (implication_trial, ("T5.5",), dict(seed=2**64)),
    "implication_trial-seed-negative": (implication_trial, ("T5.5",), dict(seed=-3)),
    "random_schwarz-seed-fraction": (random_schwarz, (), dict(seed=0.5, degree=3)),
    "random_schwarz-seed-2^64": (random_schwarz, (), dict(seed=2**64, degree=3)),
    "random_schwarz-degree-fraction": (random_schwarz, (), dict(seed=0, degree=2.5)),
    "random_schwarz-degree-17": (random_schwarz, (), dict(seed=0, degree=17)),
    "sample_curve-n-negative": (sample_curve, (P,), dict(r=0.9, n=-5)),
    "sample_curve-n-0": (sample_curve, (P,), dict(r=0.9, n=0)),
    "sample_curve-n-fraction": (sample_curve, (P,), dict(r=0.9, n=1.5)),
    "empirical_bounds-n-15": (empirical_bounds, (P,), dict(r=0.9, n=15)),
    "empirical_bounds-n-fraction": (empirical_bounds, (P,), dict(r=0.9, n=20.5)),
    "boundary_points-n-0": (DISK.boundary_points, (), dict(n=0)),
    "boundary_points-n-fraction": (DISK.boundary_points, (), dict(n=2.5)),
}


@pytest.mark.parametrize("fn, fixed, kwargs", INDEX_CASES.values(), ids=INDEX_CASES.keys())
def test_seeds_and_counts_must_be_integers_in_range(fn, fixed, kwargs):
    with pytest.raises(OutOfRangeError):
        fn(*fixed, **kwargs)


def test_largest_seeds_get_distinct_streams():
    # keys above 2^53 would merge if they passed through float64
    top = random_schwarz(2**64 - 1, 4).coefficients
    assert random_schwarz(2**64 - 2, 4).coefficients != top
    assert random_schwarz(2**63, 4).coefficients != random_schwarz(2**63 + 1, 4).coefficients
    assert implication_trial("T5.5", seed=2**64 - 1).seed == 2**64 - 1


def test_empty_samples_raise():
    with pytest.raises(JanowskiError):
        verify_subordination(np.array([], dtype=complex), JanowskiParams(1.0, 0.0, 0.5))


def test_non_finite_weight_raises():
    with pytest.raises(JanowskiError):
        eta_infimum(_const(complex(math.nan, 0.0)), 0.3)
