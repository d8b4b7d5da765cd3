"""First-order map geometry: image disks, canonical rotation, inversion."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from janowski import (
    DegenerateMapError,
    JanowskiParams,
    NumericalError,
    OutOfRangeError,
    ParameterError,
    PoleOnBoundaryError,
    canonicalize,
    contains,
    eval_map,
    eval_powered,
    image_disk,
    invert_powered,
    origin_position,
)
from tests.conftest import safe_params


def test_map_fixes_one_at_origin():
    p = JanowskiParams(0.7 + 0.2j, -0.3)
    assert eval_map(p, 0.0) == 1.0


def test_image_disk_frozen_case():
    """w = 1 + z sends |z| = 0.5 to the circle of center 1, radius 0.5."""
    g = image_disk(JanowskiParams(1.0, 0.0), 0.5)
    assert g.is_disk
    assert g.center == 1.0 + 0.0j
    assert g.radius == 0.5


def test_image_disk_center_radius_formula():
    # C(r) = (1 - A conj(B) r^2)/(1 - |B|^2 r^2), R(r) = |A - B| r/(1 - |B|^2 r^2)
    A, B, r = 0.8 + 0.3j, -0.4 + 0.1j, 0.7
    g = image_disk(JanowskiParams(A, B), r)
    den = 1.0 - abs(B) ** 2 * r**2
    assert g.center == pytest.approx((1.0 - A * B.conjugate() * r**2) / den)
    assert g.radius == pytest.approx(abs(A - B) * r / den)


@given(safe_params(powered=False), st.floats(0.05, 0.95))
def test_boundary_lands_on_reported_circle(p, r):
    t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    w = eval_map(p, r * np.exp(1j * t))
    g = image_disk(p, r)
    assert np.abs(np.abs(w - g.center) - g.radius).max() < 1e-12


def test_image_is_half_plane_when_circle_hits_pole():
    g = image_disk(JanowskiParams(0.5, -1.0), 1.0)
    assert g.kind == "half-plane"
    t = np.linspace(0.1, 2.0 * np.pi - 0.1, 128)  # unit-circle points away from the pole z = 1
    pts = eval_map(JanowskiParams(0.5, -1.0), np.exp(1j * t))
    line = (np.conj(g.normal) * pts).real - g.offset
    assert np.abs(line).max() < 1e-12
    # interior points of the image satisfy Re(conj(normal) w) > offset
    w = eval_map(JanowskiParams(0.5, -1.0), 0.5)
    assert (g.normal.conjugate() * w).real > g.offset


def test_origin_position_three_ways():
    assert origin_position(JanowskiParams(0.5, -0.5)) == "exterior"
    assert origin_position(JanowskiParams(1.0, -1.0)) == "boundary"
    assert origin_position(JanowskiParams(2.0, 0.0)) == "interior"


def test_canonicalize_quarter_turn():
    c = canonicalize(JanowskiParams(1.0, 1j))
    assert c.b == pytest.approx(1.0)
    assert abs(c.a_prime - 1j) < 1e-12


@given(safe_params(powered=False), st.floats(0.1, 0.9))
def test_canonicalize_preserves_disk_shape(p, r):
    """The rotation A -> A', B -> -|B| keeps the image radius and the
    center distance from the origin."""
    c = canonicalize(p)
    q = JanowskiParams(c.a_prime, -c.b) if c.b or abs(c.a_prime) else p
    g0 = image_disk(p, r)
    g1 = image_disk(q, r)
    assert g1.radius == pytest.approx(g0.radius, abs=1e-12)
    assert abs(g1.center) == pytest.approx(abs(g0.center), abs=1e-12)


def test_contains_is_ordered():
    outer = image_disk(JanowskiParams(1.0, 0.0), 0.8)
    inner = image_disk(JanowskiParams(1.0, 0.0), 0.5)
    assert contains(outer, inner)
    assert not contains(inner, outer)


def test_contains_respects_tolerance():
    g = image_disk(JanowskiParams(1.0, 0.0), 0.5)
    assert contains(g, g)  # equality counts as containment


def test_contains_half_planes():
    # Re w > (1 - A) / 2 for real A and B = -1: the larger A holds the smaller
    outer, inner = (image_disk(JanowskiParams(A, -1.0), 1.0) for A in (0.5, 0.3))
    turned = image_disk(JanowskiParams(0.5, 1j), 1.0)  # another normal
    disk = image_disk(JanowskiParams(0.5, -1.0), 0.5)
    assert contains(outer, inner)
    assert not contains(inner, outer)
    assert not contains(outer, turned)
    assert not contains(disk, outer)  # a half-plane never fits in a disk


@given(safe_params(), st.complex_numbers(max_magnitude=0.85))
def test_invert_powered_round_trip(p, z):
    w = eval_powered(p, z)
    assert abs(complex(invert_powered(p, w)) - z) < 1e-9


def test_powered_mobius_is_unshifted_eval():
    A, B, a = 0.8, -0.5, 0.7
    z = 0.3 + 0.4j
    p = JanowskiParams(A, B, a)
    w = eval_powered(p, z)
    assert abs(w - ((1.0 + A * z) / (1.0 + B * z)) ** a) < 1e-15
    assert abs(complex(invert_powered(p, w)) - z) < 1e-12


def test_parameter_validation():
    with pytest.raises(DegenerateMapError):
        JanowskiParams(0.5, 0.5)
    with pytest.raises(OutOfRangeError):
        JanowskiParams(1.0, 1.5)
    with pytest.raises(OutOfRangeError):
        JanowskiParams(1.0, 0.0, alpha=1.5)
    with pytest.raises(ParameterError):
        JanowskiParams(1.0, 0.0, gamma=1.0)


@pytest.mark.parametrize("z", [[], np.array([0.1, np.nan]), complex(0.0, np.inf)])
def test_eval_map_rejects_empty_and_non_finite_points(z):
    with pytest.raises(ParameterError):
        eval_map(JanowskiParams(0.8, -0.5), z)


@pytest.mark.parametrize(
    "kwargs",
    [dict(A=np.nan, B=0.0), dict(A=1.0, B=complex(0.0, np.inf)), dict(A=1.0, B=0.0, gamma=complex(np.nan, 0.0))],
)
def test_params_reject_non_finite_fields(kwargs):
    with pytest.raises(ParameterError, match="finite"):
        JanowskiParams(**kwargs)


def test_pole_on_circle_rejected_pointwise():
    with pytest.raises(PoleOnBoundaryError):
        eval_map(JanowskiParams(0.5, -1.0), 1.0)


@pytest.mark.filterwarnings("error")
def test_powered_pole_on_circle_rejected_pointwise():
    # at z = -1/B the powered map once returned nan+nanj with a RuntimeWarning
    p = JanowskiParams(0.5, -1.0, 0.5)
    for z in (1.0, [0.5j, 1.0]):
        with pytest.raises(PoleOnBoundaryError):
            eval_powered(p, z)
    assert np.isfinite(eval_powered(p, 1.0 - 1e-12))


EPS = np.finfo(float).eps


def _powered_points(rng, p: JanowskiParams) -> list[complex]:
    """Points for one map: inside its working radius (one of them real),
    |A| |z| -> 1 (and just past it), near and at the pole -1/B and near the
    zero -1/A of the numerator, and one non-finite point."""
    turn = np.exp(2j * np.pi * rng.uniform(size=4))
    turn[0] = 1.0
    zs = list(rng.uniform(-1.0, 1.0, 4) * turn / max(abs(p.A), abs(p.B), 0.5))
    if p.A:
        zs += list(turn / abs(p.A) * (1.0 - 1e-12)) + [turn[0] / abs(p.A) * 1.01]
        zs += [-1.0 / p.A * (1.0 - 10.0 ** -k) * cmath.exp(1j * 10.0 ** -k * rng.normal()) for k in (2, 6, 10)]
    if p.B:
        zs += [-1.0 / p.B * (1.0 - 10.0 ** -k) * cmath.exp(1j * 10.0 ** -k * rng.normal()) for k in (1, 3, 6, 9, 12)]
        zs += [-1.0 / p.B]
    return [complex(z) for z in zs] + [complex(math.nan, 0.0)]


def test_scalar_eval_powered_agrees_with_the_array_path():
    """A Python or numpy scalar z is evaluated in Python complex arithmetic,
    by `eval_powered` and by `eval_map`, the first-order map (alpha = 1,
    gamma = 0), which also takes argument-unsafe maps and points past the
    branch guard. On seeded maps (gamma != 0 in most, alpha down to 1e-3 and
    alpha = 1, |B| up to 1, argument-unsafe ones among them) and the points
    of `_powered_points`, each scalar call returns a Python complex within
    16 eps (max(1, |h|) + kappa |h - gamma|) of the one-element array call,
    kappa = alpha (|Az|/|1 + Az| + |Bz|/|1 + Bz|), or raises the same error
    class. kappa is the condition of the quotient: numpy may round the
    products A z and B z with a fused multiply-add where CPython does not,
    so next to the pole or the zero the two paths part by that much."""
    rng = np.random.default_rng(20261020)
    compared = {eval_powered: 0, eval_map: 0}
    raised = {eval_powered: 0, eval_map: 0}
    for k in range(300):
        alpha = (1e-3, 1.0, float(rng.uniform(1e-3, 1.0)))[k % 3]
        gamma = complex(rng.uniform(0.0, 2.0) * cmath.exp(2j * math.pi * rng.uniform())) if k % 4 else 0j
        A, B = (complex(rng.uniform(0.0, hi) * cmath.exp(2j * math.pi * rng.uniform())) for hi in (1.2, 1.0))
        if k % 5 == 0:
            B = B / abs(B)  # the pole on the unit circle
        p = JanowskiParams(A, B, alpha, gamma)
        for z in _powered_points(rng, p):
            for f, power, shift in ((eval_powered, alpha, gamma), (eval_map, 1.0, 0j)):
                try:
                    want = f(p, np.array([z]))[0]
                except ParameterError as err:
                    for scalar in (z, np.complex128(z)):
                        with pytest.raises(type(err)):
                            f(p, scalar)
                    raised[f] += 1
                    continue
                kappa = power * (abs(A * z) / abs(1.0 + A * z) + abs(B * z) / abs(1.0 + B * z))
                bound = 16 * EPS * (max(1.0, abs(want)) + kappa * abs(want - shift))
                scalars = [z, np.complex128(z)] + ([z.real, np.float64(z.real)] if z.imag == 0.0 else [])
                for scalar in scalars:
                    got = f(p, scalar)
                    assert type(got) is complex and abs(got - want) <= bound, (f, p, z, got, want)
                compared[f] += 1
    assert compared[eval_powered] > 3000 and raised[eval_powered] > 300
    # eval_map raises only at the pole and the non-finite point, so it compares where the branch guard raises
    assert compared[eval_map] > compared[eval_powered] + 1000 and 0 < raised[eval_map] < raised[eval_powered]


@pytest.mark.filterwarnings("error")
def test_invert_powered_at_a_over_b_is_inf():
    # w = A/B is the image of z = infinity: once -inf+nanj with two RuntimeWarnings
    p = JanowskiParams(0.5, -1.0)
    assert complex(invert_powered(p, -0.5)) == math.inf
    got = invert_powered(p, [-0.5, 1.2])
    assert got[0] == math.inf and got[1] == pytest.approx(0.2 / 1.7, abs=1e-15)
    q = JanowskiParams(0.8, 0.5, 1.0, 0.2 + 0.1j)  # the shift leaves w~ an ulp from A/B = 1.6
    assert 1e14 < abs(complex(invert_powered(q, q.gamma + (1.0 - q.gamma) * 1.6))) < math.inf


def test_invert_powered_gives_a_complex_for_a_scalar():
    # a scalar w once gave a 0-d array, where eval_map and eval_powered give a complex
    p = JanowskiParams(0.5, -0.3)
    for w in (1.2, np.float64(1.2), 1.2 + 0j):
        got = invert_powered(p, w)
        assert type(got) is complex and got == pytest.approx(0.2 / 0.86, abs=1e-15)
    assert invert_powered(p, np.array([1.2])).shape == (1,)


@pytest.mark.parametrize("z", [10.0, np.array([0.1, 10.0])], ids=["scalar", "array"])
def test_overflowing_quotient_raises(z):
    # 1 + A z overflows a double for finite A and z: once inf+nanj, from the array path with a RuntimeWarning
    with pytest.raises(NumericalError, match="overflows a double"):
        eval_map(JanowskiParams(1e308, 0.0), z)


@given(
    st.complex_numbers(max_magnitude=2.0),
    st.complex_numbers(max_magnitude=0.99),
)
def test_argument_safe_matches_sign_product(A, B):
    # |A - B| <= |1 - A conj(B)|  <=>  (1 - |A|^2)(1 - |B|^2) >= 0
    if abs(A - B) <= 1e-9:
        return
    p = JanowskiParams(A, B)
    sign = (1.0 - abs(A) ** 2) * (1.0 - abs(B) ** 2)
    if abs(sign) > 1e-9:
        assert p.argument_safe == (sign > 0.0)
