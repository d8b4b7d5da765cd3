"""Boundary envelopes of the powered, shifted map: curve sampling, critical
angles, extreme Re/Im/modulus/argument, and the sector picture."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import janowski
from janowski import (
    BranchUndefinedError,
    JanowskiParams,
    alpha_nesting,
    critical_points,
    empirical_bounds,
    envelope_bounds,
    image_disk,
    sample_curve,
    sector_image,
    tilt_angle,
)
from tests.conftest import safe_params

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def square_root_case():
    """(1+z)^(1/2) on the full boundary r = 1, a cusp at z = -1."""
    return JanowskiParams(1.0, 0.0, 0.5), 1.0


def test_critical_angles_of_square_root(square_root_case):
    p, r = square_root_case
    c = critical_points(p, r)
    assert c.t1 == pytest.approx(0.0, abs=1e-9)
    assert c.t2 == pytest.approx(2.0 * math.pi / 3.0, abs=1e-9)
    assert c.tau == pytest.approx(0.0, abs=1e-12)


def test_square_root_envelope_endpoints(square_root_case):
    p, r = square_root_case
    b = envelope_bounds(p, r)
    assert b.re[0] == pytest.approx(0.0, abs=1e-6)
    assert b.re[1] == pytest.approx(SQRT2, abs=1e-6)
    assert b.im[0] == pytest.approx(-0.5, abs=1e-6)
    assert b.im[1] == pytest.approx(0.5, abs=1e-6)
    assert abs(b.arg[0]) <= math.pi / 4.0 + 1e-9
    assert abs(b.arg[1]) <= math.pi / 4.0 + 1e-9


def test_im_derivative_vanishes_at_interior_critical_angle(square_root_case):
    # Im w(t)^alpha is stationary at t2, with w(t) = C + R e^{it} the image circle
    p, r = square_root_case
    t2 = critical_points(p, r).t2
    geo = image_disk(p, r)

    def im_power(t: float) -> float:
        return ((geo.center + geo.radius * cmath.exp(1j * t)) ** p.alpha).imag

    h = 1e-6
    assert abs(im_power(t2 + h) - im_power(t2 - h)) / (2.0 * h) < 1e-8


def test_sample_curve_polar_fields():
    p = JanowskiParams(0.8, -0.3, 0.6)
    curve = sample_curve(p, 0.7, n=512)
    assert curve.t.shape == (512,)
    w = curve.u + 1j * curve.v
    # u, v are the first-order components; M = |w|^alpha, N = alpha arg w
    assert np.abs(curve.M - np.abs(w) ** 0.6).max() < 1e-12
    assert np.abs(np.exp(1j * curve.N / 0.6) - w / np.abs(w)).max() < 1e-12
    # N is unwrapped, no 2 pi jumps between neighbors
    assert np.abs(np.diff(curve.N)).max() < 1.0


@pytest.mark.parametrize(
    "A,B,alpha,gamma,r",
    [
        (1.0, 0.0, 0.5, 0.0, 0.9),
        (0.8 + 0.1j, -0.4 + 0.2j, 0.6, 0.0, 0.7),
        (0.9, -0.9, 1.0, 0.0, 0.5),
        # a Newton iteration guarded only by its bracket cycles here between
        # t ~ 2.44 and t ~ 3.10 and misses the maximum of Im h; h also has a
        # zero inside the disk
        pytest.param(0.4607964580479008 - 0.7886225574234497j, -0.7383561241086682 - 0.20567868197475034j,
                     0.6942909438417129, 0.8271889156340405 + 0.8784631602084269j, 0.8702285120764757,
                     id="oblique-shift"),
    ],
)
def test_closed_bounds_match_dense_sampling(A, B, alpha, gamma, r):
    p = JanowskiParams(A, B, alpha, gamma)
    closed = envelope_bounds(p, r)
    sampled = empirical_bounds(p, r, n=60000)
    pairs = [(getattr(closed, name), getattr(sampled, name)) for name in ("re", "im", "mod", "arg")]
    pairs += [(getattr(closed.shifted, name), getattr(sampled.shifted, name))
              for name in ("re", "im", "mod", "arg")]
    for iv, siv in pairs:
        if iv is None or siv is None:  # no argument range: h has a zero
            assert iv is None and siv is None
            continue
        assert iv[0] == pytest.approx(siv[0], abs=2e-5)
        assert iv[1] == pytest.approx(siv[1], abs=2e-5)


def test_origin_touch_keeps_the_minimum_beside_the_cusp():
    """|A| r = 1: Re(w^a) dips to about -6.3e-5 right next to the touch,
    and the argument range is a (tau -/+ pi/2) exactly."""
    A = (0.8006 - 0.5992j) / abs(0.8006 - 0.5992j)
    p = JanowskiParams(A, -0.564 + 0.497j, 0.982)
    closed = envelope_bounds(p, 1.0)
    sampled = empirical_bounds(p, 1.0, n=200_000)
    assert closed.re[0] == pytest.approx(-6.3194e-5, rel=1e-4)
    assert closed.mod[0] == 0.0
    assert closed.mod[1] == pytest.approx(sampled.mod[1], abs=2e-5)
    for name in ("re", "im", "arg"):
        lo, hi = getattr(closed, name)
        slo, shi = getattr(sampled, name)
        assert lo <= slo + 1e-12 and shi <= hi + 1e-12
        assert lo == pytest.approx(slo, abs=2e-5)
        assert hi == pytest.approx(shi, abs=2e-5)
    tau = critical_points(p, 1.0).tau
    assert closed.arg == pytest.approx((0.982 * (tau - math.pi / 2), 0.982 * (tau + math.pi / 2)), abs=1e-14)


def test_zero_inside_the_disk_has_no_argument_range():
    """gamma puts the zero of h at z = -0.6, inside |z| < 0.8."""
    A, B, alpha, r = 0.9, 0.3j, 0.7, 0.8
    wa = ((1.0 + A * -0.6) / (1.0 + B * -0.6)) ** alpha
    p = JanowskiParams(A, B, alpha, wa / (wa - 1.0))
    for report in (envelope_bounds(p, r), empirical_bounds(p, r)):
        assert report.shifted.mod[0] == 0.0
        assert report.shifted.mod[1] == pytest.approx(2.2533020596, abs=1e-8)
        assert report.shifted.arg is None


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(janowski.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, janowski; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@given(safe_params(), st.floats(0.1, 0.9))
@settings(max_examples=25)
def test_curve_stays_inside_reported_box(p, r):
    b = envelope_bounds(p, r)
    curve = sample_curve(p, r, n=2048)
    h = (1.0 - p.gamma) * curve.M * np.exp(1j * curve.N) + p.gamma
    assert h.real.min() >= b.re[0] - 1e-9
    assert h.real.max() <= b.re[1] + 1e-9
    assert h.imag.min() >= b.im[0] - 1e-9
    assert h.imag.max() <= b.im[1] + 1e-9


def test_bounds_reject_enclosed_origin():
    p = JanowskiParams(1.6, 0.0, 0.5)
    assert not p.argument_safe
    with pytest.raises(BranchUndefinedError):
        envelope_bounds(p, 0.9)


def test_sector_image_edges():
    s = sector_image(0.5, 0.25)
    assert s.lo == pytest.approx(-0.5 * 0.75 * math.pi / 2.0)
    assert s.hi == pytest.approx(0.5 * 1.25 * math.pi / 2.0)
    assert s.half_plane_tilt == pytest.approx(0.25 * math.pi / 2.0)


def test_tilt_angle_values():
    assert tilt_angle(1.0, 0.5) == pytest.approx(math.pi / 4.0)
    assert tilt_angle(0.6, 0.25) == pytest.approx(
        math.atan2(0.6 * math.sin(math.pi / 4.0), 1.0 + 0.6 * math.cos(math.pi / 4.0))
    )
    assert tilt_angle(0.0, 0.7) == 0.0


def test_alpha_nesting_orders_powers():
    assert alpha_nesting(1.0, -1.0, 0.3, 0.7)
    assert not alpha_nesting(1.0, -1.0, 0.7, 0.3)
    assert alpha_nesting(1.0, -1.0, 0.5, 0.5)


@given(st.floats(0.1, 1.0), st.floats(0.1, 1.0))
def test_alpha_nesting_matches_order(a1, a2):
    assert alpha_nesting(1.0, -1.0, a1, a2) == (a1 <= a2 + 1e-12)
