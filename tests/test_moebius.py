"""First-order map geometry: image disks, canonical rotation, inversion."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from janowski import (
    DegenerateMapError,
    JanowskiParams,
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


def test_eval_map_vectorized_matches_scalar():
    p = JanowskiParams(0.8, -0.5)
    zs = np.array([0.1, 0.3 + 0.2j, -0.4j, 0.9])
    vec = eval_map(p, zs)
    for z, w in zip(zs, vec):
        assert w == eval_map(p, complex(z))


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
    pts = g.boundary_points(128)
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
