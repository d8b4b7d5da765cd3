"""Inputs outside the domain: every public scalar argument rejects NaN and
infinities, and seeds and sample counts reject anything but an integer in
range, each with a JanowskiError rather than a returned value or a bare
numpy or Python exception.

`subordination_pullback`, which maps non-finite points to inf on purpose,
is left out of the finite-point cases; it still rejects an empty array.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from janowski import (
    BranchUndefinedError,
    DegenerateMapError,
    DominantSpec,
    InvalidTheoremIdError,
    JanowskiError,
    JanowskiParams,
    NumericalError,
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
    invert_powered,
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
    subordination_pullback,
    subordination_radius,
    tilt_angle,
    uralegaddi_radius,
    verify_subordination,
    weighted_sector_params,
)

P = JanowskiParams(0.8, -0.3, 0.6)
DISK = image_disk(JanowskiParams(1.0, -0.5), 0.8)
SPEC = DominantSpec(A=1.0, b=0.5, alpha=0.5, gamma=0.5, mu=1.0, eta=0.5, delta=1.0, rho=0.0)
SAMPLES = np.array([1.0 + 0.1j, 1.2 - 0.2j])


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
    "eta_infimum": (eta_infimum, (), dict(a=1.0 + 0.5j, c=0.3 - 0.2j, beta=0.3)),
    "reciprocal_order_sector": (reciprocal_order_sector, (), dict(alpha=0.5, beta=0.3)),
    "double_subordination_tilt": (
        double_subordination_tilt, (), dict(a=0.5, b=0.3, c=0.4, d=0.2, l=0.5, m=0.3, alpha=0.7),
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
    "verify_subordination": (verify_subordination, (SAMPLES, JanowskiParams(1.0, 0.0, 0.5)), dict(r=1.0)),
    "empirical_bounds": (empirical_bounds, (P,), dict(r=0.9, n=64)),
    "implication_trial": (implication_trial, ("T5.5",), dict(seed=3)),
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
    f"{fn.__name__}-{label}": (fn, fixed, {arg: z})
    for fn, fixed, arg in (
        (eval_map, (P,), "z"), (eval_powered, (P,), "z"), (operator_dominant, (SPEC,), "z"), (invert_powered, (P,), "w"),
    )
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
}


@pytest.mark.parametrize("fn, fixed, kwargs", INDEX_CASES.values(), ids=INDEX_CASES.keys())
def test_seeds_and_counts_must_be_integers_in_range(fn, fixed, kwargs):
    with pytest.raises(OutOfRangeError):
        fn(*fixed, **kwargs)


# poles stay off the open unit disk: |B| <= 1 and |D| <= 1, as in JanowskiParams,
# for the subordination radius and for the inclusion verdict alike
RADIUS_FIELDS = dict(A=1.0, B=-1.0, alpha=0.8, gamma=0.1j, C=0.5, D=-0.5, beta=0.6, delta=0.2)
POLE_CASES = {
    # poles at |z| = 1/3 and 0.4, where subordination_radius once returned 0.847
    "B-3-D-2.5": dict(A=0.5, B=3, alpha=1, gamma=0, C=0.2, D=2.5, beta=1, delta=0),
    "B-just-outside": dict(B=-(1.0 + 1e-9)),
    "B-huge-complex": dict(B=1.7e308 + 1.7e308j),
    "D-2.5": dict(D=2.5),
    "D-just-outside": dict(D=(1.0 + 1e-9) * 1j),
}


@pytest.mark.parametrize("fields", POLE_CASES.values(), ids=POLE_CASES.keys())
def test_radius_problem_rejects_a_pole_inside_the_disk(fields):
    f = {**RADIUS_FIELDS, **fields}
    with pytest.raises(OutOfRangeError, match=r"\|[BD]\| must be <= 1"):
        RadiusProblem(**f)
    with pytest.raises(OutOfRangeError, match=r"\|[BD]\| must be <= 1"):
        class_inclusion(f["A"], f["B"], f["alpha"], f["C"], f["D"], f["beta"])


# one out-of-range input per range or map guard, with the exact error it
# raises: (entry of SCALAR_CALLS, replaced arguments, class, message)
MESSAGE_CASES = [
    ("JanowskiParams", dict(A=-0.3), DegenerateMapError, "A and B must differ"),
    ("JanowskiParams", dict(A=1e-13, B=0.0), DegenerateMapError, "A and B must differ"),  # |A - B| <= 1e-12, absolute
    ("JanowskiParams", dict(B=2.0), OutOfRangeError, "|B| must be <= 1, got 2.0"),
    ("JanowskiParams", dict(alpha=1.5), OutOfRangeError, "alpha must lie in (0, 1], got 1.5"),
    ("JanowskiParams", dict(gamma=1.0), OutOfRangeError, "gamma = 1 collapses the shifted map to a constant"),
    ("image_disk", dict(r=1.5), OutOfRangeError, "r must lie in (0, 1], got 1.5"),
    ("sample_curve", dict(r=0.0), OutOfRangeError, "r must lie in (0, 1], got 0.0"),
    ("envelope_bounds", dict(r=1.5), OutOfRangeError, "r must lie in (0, 1], got 1.5"),
    ("empirical_bounds", dict(r=-0.5), OutOfRangeError, "r must lie in (0, 1], got -0.5"),
    ("sector_image", dict(alpha=0.0), OutOfRangeError, "alpha must lie in (0, 1], got 0.0"),
    ("sector_image", dict(m=1.0), OutOfRangeError, "m must lie in (-1, 1), got 1.0"),
    ("tilt_angle", dict(b=1.5), OutOfRangeError, "b must lie in [0, 1], got 1.5"),
    ("tilt_angle", dict(m=1e308), OutOfRangeError, "m must lie in [-1, 1], got 1e+308"),  # pi m overflowed
    ("alpha_nesting", dict(a2=1.2), OutOfRangeError, "powers must lie in (0, 1], got 1.2"),
    ("SchwarzPoly.scaled_identity", dict(c=1.0), OutOfRangeError, "|c| must lie in (0, 1), got 1.0"),
    ("SchwarzPoly.dilated", dict(rho=1.5), OutOfRangeError, "rho must lie in (0, 1], got 1.5"),
    ("verify_subordination", dict(r=0.0), OutOfRangeError, "r must lie in (0, 1], got 0.0"),
    ("kernel_integral", dict(b=1.5), OutOfRangeError, "b must lie in [0, 1], got 1.5"),
    ("kernel_integral", dict(alpha=0.0), OutOfRangeError, "alpha must lie in (0, 1], got 0.0"),
    ("macgregor_gamma", dict(beta=1.0), OutOfRangeError, "beta must lie in [0, 1), got 1.0"),
    ("DominantSpec", dict(b=-0.5), OutOfRangeError, "b must lie in [0, 1], got -0.5"),
    ("DominantSpec", dict(alpha=1.5), OutOfRangeError, "alpha must lie in [0, 1], got 1.5"),
    ("DominantSpec", dict(gamma=-0.5), OutOfRangeError, "gamma must lie in [0, 1], got -0.5"),
    ("silverman_inclusion", dict(b=1.5), OutOfRangeError, "b must lie in [0, 1], got 1.5"),
    ("silverman_inclusion", dict(alpha=1.5), OutOfRangeError, "alpha must lie in (0, 1], got 1.5"),
    ("RadiusProblem", dict(B=1.0), DegenerateMapError, "A and B must differ"),
    ("RadiusProblem", dict(D=0.5), DegenerateMapError, "C and D must differ"),
    ("RadiusProblem", dict(B=2.0), OutOfRangeError, "|B| must be <= 1, got 2.0"),
    ("RadiusProblem", dict(D=2.0), OutOfRangeError, "|D| must be <= 1, got 2.0"),
    ("RadiusProblem", dict(alpha=1.5), OutOfRangeError, "alpha must lie in (0, 1], got 1.5"),
    ("RadiusProblem", dict(beta=0.0), OutOfRangeError, "beta must lie in (0, 1], got 0.0"),
    ("RadiusProblem", dict(gamma=1.0), OutOfRangeError, "gamma = 1 collapses the shifted map to a constant"),
    ("RadiusProblem", dict(delta=1.0), OutOfRangeError, "delta = 1 collapses the shifted map to a constant"),
    ("class_inclusion", dict(B=1.0), DegenerateMapError, "A and B must differ"),
    ("class_inclusion", dict(D=1.0), DegenerateMapError, "C and D must differ"),
    ("class_inclusion", dict(B=3.0), OutOfRangeError, "|B| must be <= 1, got 3.0"),
    ("class_inclusion", dict(D=3.0), OutOfRangeError, "|D| must be <= 1, got 3.0"),
    ("class_inclusion", dict(alpha=1.5), OutOfRangeError, "alpha must lie in (0, 1], got 1.5"),
    ("class_inclusion", dict(beta=0.0), OutOfRangeError, "beta must lie in (0, 1], got 0.0"),
    ("uralegaddi_radius", dict(alpha=-1.0), OutOfRangeError, "alpha must lie in (0, 1], got -1.0"),
    ("uralegaddi_radius", dict(alpha=5.0), OutOfRangeError, "alpha must lie in (0, 1], got 5.0"),
    ("reciprocal_radius", dict(alpha=-1.0), OutOfRangeError, "alpha must lie in (0, 1], got -1.0"),
    ("reciprocal_radius", dict(beta2=1.0), OutOfRangeError, "beta2 must lie in [0, 1), got 1.0"),
    ("starlike_radius", dict(A=1.5), OutOfRangeError, "A must lie in (0, 1], got 1.5"),
    ("starlike_radius", dict(B=0.0), OutOfRangeError, "B must lie in [-1, 0), got 0.0"),
    ("ratio_sector_params", dict(alpha=1.5), OutOfRangeError, "alpha must lie in (0, 1], got 1.5"),
    ("ratio_sector_params", dict(m=1.0), OutOfRangeError, "m must lie in [-1, 1), got 1.0"),
    ("ratio_sector_params", dict(beta=0.0), OutOfRangeError, "beta must lie in (0, 1], got 0.0"),
    ("weighted_sector_params", dict(gamma=1.5), OutOfRangeError, "gamma must lie in [0, 1], got 1.5"),
    ("weighted_sector_params", dict(m=-1.5), OutOfRangeError, "m must lie in [-1, 1), got -1.5"),
    ("reciprocal_order_sector", dict(alpha=1.0), OutOfRangeError, "alpha must lie in [0, 1), got 1.0"),
    ("reciprocal_order_sector", dict(beta=0.75), OutOfRangeError, "beta must lie in (0, 1 - alpha], got 0.75"),
    ("double_subordination_tilt", dict(c=1.5), OutOfRangeError, "c must lie in [0, 1], got 1.5"),
    ("double_subordination_tilt", dict(l=-1.5), OutOfRangeError, "l must lie in [-1, 1], got -1.5"),
    ("double_subordination_tilt", dict(alpha=0.0), OutOfRangeError, "alpha must be positive, got 0.0"),
    ("eval_powered", dict(z=1.5), BranchUndefinedError, "origin interior to the image at radius 1.5: |A| r = 1.2 > 1"),
    ("operator_dominant", dict(z=1.5), BranchUndefinedError,
     "principal powers of the base map need max(|A|, b) |z| <= 1, got 1.5"),
    ("tilt_angle", dict(b=1.0, m=1.0), DegenerateMapError, "b + e^{i m pi} = 0 leaves no half-plane"),
    ("alpha_nesting", dict(A=1.5), OutOfRangeError, "nesting requires |A| <= 1 and |B| <= 1"),
    ("starlike_radius", dict(beta=0.3), OutOfRangeError, "beta must be at least 0.616551, got 0.3"),
    ("starlike_radius", dict(method="nope"), OutOfRangeError, "unknown method 'nope'"),
    ("kernel_integral", dict(A=1.5), OutOfRangeError, "|A| must not exceed 1, got 1.5"),
    ("kernel_integral", dict(A=-1.0, b=0.0, z=2.0), BranchUndefinedError, "the segment to z crosses the zero of 1 + A t"),
    ("kernel_integral", dict(method="closed"), OutOfRangeError, "closed form requires alpha = 1"),
    ("kernel_integral", dict(method="nope"), OutOfRangeError, "unknown method 'nope'"),
    ("best_dominant", dict(z=1.0), OutOfRangeError, "z must lie in the open unit disk"),
    ("silverman_inclusion", dict(beta=0.0), OutOfRangeError, "beta must be positive, got 0.0"),
    ("weighted_sector_params", dict(alpha=0.0), OutOfRangeError, "alpha must be positive, got 0.0"),
    ("weighted_sector_params", dict(eta=-0.1), OutOfRangeError, "eta must be nonnegative, got -0.1"),
    ("weighted_sector_params", dict(beta=0.0), OutOfRangeError, "beta must exceed beta0 = 0.0"),
    ("uralegaddi_radius", dict(A=-1.0), DegenerateMapError, "A and B must differ"),
    ("reciprocal_radius", dict(A=-1.0), DegenerateMapError, "A and B must differ"),
]


@pytest.mark.parametrize("name, bad, cls, message", MESSAGE_CASES,
                         ids=[f"{name}-{','.join(f'{k}={v}' for k, v in bad.items())}" for name, bad, *_ in MESSAGE_CASES])
def test_guard_messages(name, bad, cls, message):
    fn, fixed, scalars = SCALAR_CALLS[name]
    with pytest.raises(ParameterError) as info:
        fn(*fixed, **{**scalars, **bad})
    assert (type(info.value), str(info.value)) == (cls, message)


def test_radius_problem_accepts_poles_on_the_circle():
    for B, D in ((-1.0, 1j), (-1.0 - 1e-13, -1.0), (cmath.exp(0.3j), cmath.exp(2j))):
        RadiusProblem(**{**RADIUS_FIELDS, "B": B, "D": D})


@pytest.mark.parametrize("A, B", [
    (1.7e308 + 1.7e308j, -1.0),
    (0.5, 1.7e308 + 1.7e308j),
    (1.7e308, -1.7e308),
], ids=["A-huge-complex", "B-huge-complex", "A-minus-B-overflows"])
def test_janowski_params_reject_an_overflowing_gap(A, B):
    # |A - B| is inf although every part is finite
    with pytest.raises(OutOfRangeError, match=r"\|A - B\| overflows"):
        JanowskiParams(A, B)


def test_janowski_params_keep_a_huge_finite_gap():
    # R = |A - B| r / (1 - |B|^2 r^2) stays below the largest double
    disk = image_disk(JanowskiParams(1.2e308 + 1.2e308j, -1.0), 0.5)
    assert disk.radius == pytest.approx(math.hypot(1.2e308, 1.2e308) * 0.5 / 0.75)


@pytest.mark.parametrize("A", [1e300 + 1e300j, 1e160, -3e200j])
def test_half_plane_offset_of_a_huge_a_stays_finite(A):
    # (1 - |A|^2 r^2) / (2 |q|): the square overflows a double, once with a bare OverflowError
    p = JanowskiParams(A, -1.0, 0.5)
    geo = image_disk(p, 1.0)
    q = 1.0 + p.A  # 1 - A conj(B) r^2
    assert geo.kind == "half-plane" and geo.normal == q / abs(q)
    a = mp.mpf(abs(p.A))
    assert geo.offset == pytest.approx(float((1 - a * a) / (2 * abs(mp.mpc(q)))), rel=1e-14)
    assert geo.zeta is None  # the origin is interior


def test_overflowing_image_disk_raises():
    # 1 - |B|^2 r^2 ~ 2e-11 clears the half-plane test, and q / (1 - |B|^2 r^2)
    # overflows: the disk was returned with center and radius inf
    with pytest.raises(NumericalError, match="overflows a double"):
        image_disk(JanowskiParams(1e300, -(1 - 1e-11)), 1.0)


@pytest.mark.parametrize("B", [
    1 + 5e-13, -(1 + 1e-12), 1j * (1 + 8e-13), cmath.exp(0.3j), cmath.exp(2.5j), cmath.exp(-1j * math.pi / 3),
], ids=["1+5e-13", "-(1+1e-12)", "i(1+8e-13)", "exp(0.3i)", "exp(2.5i)", "exp(-i pi/3)"])
def test_admitted_b_band_maps_the_unit_circle_to_a_half_plane(B):
    # |B| up to the 1 + 1e-12 that require_map admits; past |B| = 1,
    # 1 - |B|^2 went below -1e-12 and gave a negative radius (a bare math domain error)
    p = JanowskiParams(0.5, B)
    geo = image_disk(p, 1.0)
    q = 1.0 - 0.5 * p.B.conjugate()
    assert geo.kind == "half-plane" and geo.normal == q / abs(q)
    assert geo.offset == pytest.approx(0.375 / abs(q), rel=1e-12)
    with pytest.raises(OutOfRangeError, match="the image is a half-plane"):
        envelope_bounds(p, 1.0)


def _printed_radius(prob: RadiusProblem) -> float:
    """min(num / den, 1) of the printed terms, |1 - gamma|^(1/alpha) and
    |1 - gamma|^(1/alpha - 1) included, at 50 digits, where no power overflows."""
    with mp.workdps(50):
        A, B, C, D, g, d = (mp.mpc(getattr(prob, f)) for f in "A B C D gamma delta".split())
        inv_a = 1 / mp.mpf(prob.alpha)
        cross = A * D * (g - 1) + B * (C * (1 - d) + D * (d - g))
        num = prob.alpha * abs(A - B) * abs(1 - g) ** inv_a
        den = prob.beta * abs(1 - g) ** (inv_a - 1) * (abs(C - D) * abs(d - 1) + abs(cross))
        return float(min(num / den, 1))


@pytest.mark.parametrize("gamma", [5.0, 1e300, 1 - 1e-9, 0.2 - 3j], ids=["5", "1e300", "1-1e-9", "0.2-3i"])
def test_subordination_radius_at_a_small_power(gamma):
    # |1 - gamma|^(1/alpha) at alpha = 1e-3 overflowed with a bare OverflowError
    # (|1 - gamma| > 1), or its partner |1 - gamma|^(1/alpha - 1) in den underflowed
    # to 0 and the radius came back as 1 (1 - 1e-9); the factor cancels exactly
    prob = RadiusProblem(0.5, 0.2, 1e-3, gamma, 0.3, 0.1, 0.5, 0.0)
    assert subordination_radius(prob) == pytest.approx(_printed_radius(prob), rel=1e-14)
    assert subordination_radius(prob) < 0.05


@pytest.mark.parametrize("prob", [
    RadiusProblem(0.5, 0.2, 0.5, -1.7e308 - 1.7e308j, 0.3, 0.1, 0.5, 0.0),
    RadiusProblem(0.5, 0.2, 1.0, -1.7e308 - 1.7e308j, 0.3, 0.1, 1.0, 0.0),
    RadiusProblem(0.5, 0.2, 1.0, 1.7e308, 0.3, -1.0, 1.0, -1.7e308),
    RadiusProblem(0.9, -0.8, 0.4, 1.7e308j, 0.3 + 0.2j, -0.9, 1.0, -1.7e308),
], ids=["shift-1.7e308(1+i)", "shift-1.7e308(1+i)-alpha=beta=1", "delta-gamma=-3.4e308-alpha=beta=1", "delta-gamma-oblique"])
def test_subordination_radius_at_a_huge_shift(prob):
    # |1 - gamma|, delta - gamma and the cross term overflowed a double and raised
    # NumericalError, although num and den both grow like |gamma|; at alpha = beta = 1
    # the printed formula holds no power
    assert subordination_radius(prob) == pytest.approx(_printed_radius(prob), rel=1e-14)


def test_largest_seeds_get_distinct_streams():
    # keys above 2^53 would merge if they passed through float64
    top = random_schwarz(2**64 - 1, 4).coefficients
    assert random_schwarz(2**64 - 2, 4).coefficients != top
    assert random_schwarz(2**63, 4).coefficients != random_schwarz(2**63 + 1, 4).coefficients
    assert implication_trial("T5.5", seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("theorem_id", [["T3.3"], {"a": 1}, 3.3], ids=["list", "dict", "float"])
def test_theorem_id_that_is_not_a_string_raises(theorem_id):
    # an unhashable id once raised a bare TypeError from the registry lookup
    with pytest.raises(InvalidTheoremIdError, match=r"^unknown theorem id .*; known ids: T3\.3, T3\.6, "):
        implication_trial(theorem_id)


def test_empty_samples_raise():
    with pytest.raises(JanowskiError):
        verify_subordination(np.array([], dtype=complex), JanowskiParams(1.0, 0.0, 0.5))


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_empty_pullback_raises(alpha):
    # at alpha != 1 a zero-size reduction once raised a bare numpy ValueError,
    # and at alpha = 1 an empty array came back
    with pytest.raises(ParameterError, match="w must not be empty"):
        subordination_pullback(np.array([]), JanowskiParams(0.5, -0.5, alpha))


def test_non_finite_weight_raises():
    with pytest.raises(JanowskiError):
        eta_infimum(complex(math.nan, 0.0), 0.0, 0.3)
    with pytest.raises(JanowskiError):
        eta_infimum(1.0, complex(0.0, math.inf), 0.3)
