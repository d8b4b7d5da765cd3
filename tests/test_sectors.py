"""Sector parameter calculus for quotient, derivative and weighted claims."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from janowski import (
    DegenerateMapError,
    NegativeRealPartError,
    OutOfRangeError,
    derivative_sector_params,
    double_subordination_tilt,
    eta_infimum,
    ratio_sector_params,
    reciprocal_order_sector,
    weighted_sector_params,
)


def _mu_hand(alpha, m, beta, a_mag, phi, sign):
    """Direct transcription of the one-sided opening exponent."""
    num = alpha * beta * (1.0 - a_mag) * math.cos(phi)
    den = 1.0 + a_mag - sign * alpha * beta * (1.0 - a_mag) * math.sin(phi)
    return 1.0 + sign * m + (2.0 / (alpha * math.pi)) * math.atan(num / den)


def test_ratio_sector_symmetric_case():
    s = ratio_sector_params(0.5, 0.0, 1.0, 0.0)
    want = 1.0 + (2.0 / (0.5 * math.pi)) * math.atan(0.5)
    assert s.mu1 == pytest.approx(want)
    assert s.mu2 == pytest.approx(want)
    assert s.mu == pytest.approx(0.0)
    assert s.delta == pytest.approx(want)
    assert s.a_mag == 0.0


@given(
    st.floats(0.3, 1.0),
    st.floats(-0.5, 0.5),
    st.floats(0.2, 1.0),
    st.floats(-1.2, 1.2),
)
def test_ratio_sector_matches_hand_formula(alpha, m, beta, phi):
    s = ratio_sector_params(alpha, m, beta, phi)
    assert s.mu1 == pytest.approx(_mu_hand(alpha, m, beta, s.a_mag, phi, -1.0), abs=1e-12)
    assert s.mu2 == pytest.approx(_mu_hand(alpha, m, beta, s.a_mag, phi, +1.0), abs=1e-12)


def test_ratio_sector_edges_are_least_at_an_end_of_a_phi_range():
    # each edge atan2(c cos phi, d +- c sin phi), d > c >= 0, rises then falls
    # on (-pi/2, pi/2), so the T3.3 trial evaluates only the two ends
    rng = np.random.default_rng(7)
    for _ in range(400):
        alpha, beta = rng.uniform(0.05, 1.0, 2)
        m = rng.uniform(-0.99, 0.99)
        lo, hi = np.sort(rng.uniform(-1.5, 1.5, 2))
        grid = [ratio_sector_params(alpha, m, beta, float(phi)) for phi in np.linspace(lo, hi, 257)]
        ends = (grid[0], grid[-1])
        assert min(s.mu1 for s in grid) == min(s.mu1 for s in ends)
        assert min(s.mu2 for s in grid) == min(s.mu2 for s in ends)


def test_derivative_sector_frozen():
    s, arg_bound = derivative_sector_params(0.5, 0.25)
    assert s.a_mag == pytest.approx(math.tan(math.pi / 16.0))
    want = 0.5 * math.pi + math.atan2(0.5 * (1.0 - s.a_mag), 1.0 + s.a_mag)
    assert arg_bound == pytest.approx(want)


def test_weighted_sector_frozen():
    s = weighted_sector_params(0.5, 0.7, 0.3, 0.0, 1.0)
    assert s.mu1 == pytest.approx(0.5 * 0.7 + (2.0 * 0.3 / math.pi) * math.atan(1.0))
    assert s.mu1 == s.mu2
    assert s.eta == 1.0


def test_weighted_sector_tilt_shifts_edges():
    sym = weighted_sector_params(0.5, 0.7, 0.3, 0.0, 1.0)
    tilted = weighted_sector_params(0.5, 0.7, 0.3, 0.3, 1.0)
    assert tilted.mu2 - tilted.mu1 == pytest.approx(2.0 * 0.5 * 0.7 * 0.3)
    assert tilted.mu1 + tilted.mu2 == pytest.approx(sym.mu1 + sym.mu2)


ULP = 2.0 ** -52


def _eta_reference(a: complex, c: complex, beta: float) -> float:
    """30-digit minimum of beta Re(lam) / (1 + beta |Im lam|) on the circle
    lam = a + |c| e^{it}, where the disk's minimum lies: the least of 2048 points,
    then 160 golden-section steps on its two neighbouring cells."""
    with mp.workdps(30):
        a, rho, beta = mp.mpc(a.real, a.imag), abs(mp.mpc(c.real, c.imag)), mp.mpf(beta)

        def g(t):
            lam = a + rho * mp.expj(t)
            return beta * lam.real / (1 + beta * abs(lam.imag))

        n = 2048
        k = min(range(n), key=lambda j: g(2 * mp.pi * j / n))
        lo, hi, ratio = 2 * mp.pi * (k - 1) / n, 2 * mp.pi * (k + 1) / n, (mp.sqrt(5) - 1) / 2
        for _ in range(160):
            t1, t2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            lo, hi = (lo, t2) if g(t1) < g(t2) else (t1, hi)
        return float(g((lo + hi) / 2))


ETA_CASES = {
    # the tangent point from the pole -i/beta lies above the axis and is least
    "upper-tangent": (1.0 + 0.5j, 0.4, 1.0),
    # the mirror image: the tangent point of the lower half is least
    "lower-tangent": (1.0 - 0.5j, 0.4j, 2.0),
    # the upper tangent point falls below the axis, where the chord end 0.6 is
    # least on the upper half; the lower tangent point (about 0.36) is least
    "chord-end": (1.0 - 0.3j, -0.5, 1.0),
    "constant": (1.2 + 0.45j, 0.0, 0.7),
    # Re a = |c|: the disk touches the imaginary axis at 0.2i, where eta is 0
    "re-a-equals-c": (0.5 + 0.2j, 0.5, 1.5),
    # ... and at 0, an end of the chord and both tangent points
    "re-a-equals-c-on-axis": (0.5, -0.5j, 1.5),
}


@pytest.mark.parametrize("name", ETA_CASES)
def test_eta_infimum_matches_30_digit_minimum(name):
    a, c, beta = ETA_CASES[name]
    eta = eta_infimum(a, c, beta)
    assert abs(eta - _eta_reference(complex(a), complex(c), beta)) <= 4 * ULP * max(1.0, abs(eta))


def test_eta_infimum_at_the_edge_of_the_right_half_plane():
    """Re a = |c|, or up to 1e-6 relative above it: on 1200 seeded draws eta is
    never negative and never above the least of 4096 boundary values."""
    rng = np.random.default_rng(20261104)
    t = 2.0 * np.pi * np.arange(4096) / 4096
    for k in range(1200):
        c = float(rng.uniform(0.0, 1.9))
        c = cmath.rect(c, rng.uniform(-math.pi, math.pi)) if k % 16 else c
        re = abs(c) * (1.0 if k % 2 == 0 else 1.0 + float(rng.choice([1e-15, 1e-12, 1e-9, 1e-6])))
        a = complex(re, rng.uniform(-2.5, 2.5) if k % 8 else 0.0)
        beta = float(rng.uniform(0.1, 4.0))
        lam = a + c * np.exp(1j * t)
        eta = eta_infimum(a, c, beta)
        assert 0.0 <= eta <= np.min(beta * lam.real / (1.0 + beta * np.abs(lam.imag))), (a, c, beta)


def test_eta_infimum_constant_weight_is_beta():
    for beta in (0.25, 0.7, 1.0):
        assert eta_infimum(1.0, 0.0, beta) == beta


def test_eta_infimum_penalizes_imaginary_part():
    # inf of beta Re(w) / (1 + beta |Im w|): constant weights factor out
    assert eta_infimum(2.0, 0.0, 0.8) == pytest.approx(1.6)
    assert eta_infimum(1.0 + 1.0j, 0.0, 0.8) == pytest.approx(0.8 / 1.8)
    varying = eta_infimum(1.0, 0.4, 0.8)
    assert abs(varying - _eta_reference(1.0, 0.4, 0.8)) <= 4 * ULP


def test_eta_infimum_rejects_left_half_plane_weight():
    with pytest.raises(NegativeRealPartError):
        eta_infimum(1.0, 2.0, 0.5)
    with pytest.raises(NegativeRealPartError):
        eta_infimum(0.5 + 3.0j, 0.5 + 1e-6j, 0.5)
    with pytest.raises(OutOfRangeError):
        eta_infimum(1.0, 0.0, 0.0)


def test_reciprocal_order_sector_values():
    assert reciprocal_order_sector(0.0, 1.0) == pytest.approx(1.0)
    assert reciprocal_order_sector(0.25, 0.5) == pytest.approx(
        (2.0 / math.pi) * math.asin(0.5 / 0.75)
    )


def test_reciprocal_order_sector_domain():
    with pytest.raises(OutOfRangeError):
        reciprocal_order_sector(1.0, 0.5)
    with pytest.raises(OutOfRangeError):
        reciprocal_order_sector(0.5, 0.75)  # beta may not exceed 1 - alpha


def test_double_tilt_equal_weights():
    # each factor opens asin(4/5) when all four moduli are 1/2 and no tilt
    r = double_subordination_tilt(0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 1.2)
    assert r.mu == pytest.approx(2.0 * math.asin(0.8))
    assert r.gamma == 0.0
    assert r.holds


def test_double_tilt_failure_modes():
    report = double_subordination_tilt(0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 1.0)
    assert not report.holds
    assert report.excess == pytest.approx(2.0 * math.asin(0.8) - math.pi / 2.0)
    with pytest.raises(DegenerateMapError):
        double_subordination_tilt(1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(OutOfRangeError):
        double_subordination_tilt(1.5, 0.5, 0.5, 0.5, 0.0, 0.0, 1.0)


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_double_tilt_monotone_in_moduli(x, y):
    lo, hi = sorted((x, y))
    a = double_subordination_tilt(lo, lo, lo, lo, 0.0, 0.0, 2.0)
    b = double_subordination_tilt(hi, hi, hi, hi, 0.0, 0.0, 2.0)
    assert a.mu <= b.mu + 1e-12
