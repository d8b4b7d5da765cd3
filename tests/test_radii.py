"""Radius formulas and class inclusions."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from janowski import (
    INCLUSION_ORIENTATION_NOTE,
    NoRootError,
    OutOfRangeError,
    ParameterError,
    RadiusProblem,
    alpha_star,
    class_inclusion,
    reciprocal_radius,
    starlike_radius,
    subordination_radius,
    uralegaddi_radius,
)


def test_subordination_radius_frozen():
    """num = alpha |A-B| |1-gamma|^(1/alpha) = 1 against den = beta (|C-D||delta-1|
    + |AD(gamma-1) + B(C(1-delta) + D(delta-gamma))|) = 2 + 1."""
    prob = RadiusProblem(A=1.0, B=0.0, alpha=1.0, gamma=0.0, C=1.0, D=-1.0, beta=1.0, delta=0.0)
    assert subordination_radius(prob) == pytest.approx(1.0 / 3.0)


def test_subordination_radius_caps_at_one():
    prob = RadiusProblem(A=1.0, B=0.0, alpha=1.0, gamma=0.0, C=1.0, D=-1.0, beta=0.1, delta=0.0)
    assert subordination_radius(prob) == 1.0


def test_uralegaddi_frozen():
    # 2 / (2 * 3 + |1 + 3|) = 1/5
    assert uralegaddi_radius(1.0, -1.0, 1.0, 2.0) == pytest.approx(0.2)


def test_uralegaddi_domain():
    with pytest.raises(OutOfRangeError):
        uralegaddi_radius(1.0, -1.0, 1.0, 0.5)  # needs beta2 > 1


def test_reciprocal_frozen():
    # 2 / (1.5 + |1 + 0.5|) = 2/3
    assert reciprocal_radius(1.0, -1.0, 1.0, 0.75) == pytest.approx(2.0 / 3.0)


def test_huge_parameters_give_finite_radii():
    # |A - B| overflows unless the quotient is scaled first
    assert uralegaddi_radius(1e308, -1e308, 1.0, 2.0) == 0.5  # 2e308 / 4e308
    assert reciprocal_radius(1.5e308, -1.5e308, 1.0, 0.999) == 1.0
    assert uralegaddi_radius(1.7e308 + 1.7e308j, -1.0, 1.0, 2.0) == 1.0
    # the cross term vanishes and |A - B| = |C - D|, which overflows unscaled;
    # the poles stay on the unit circle (|B|, |D| > 1 are out of range)
    A = 1.7e308 + 1.7e308j
    assert subordination_radius(RadiusProblem(A, -1.0, 1.0, 0, A, -1.0, 1.0, 0)) == 1.0
    # the inclusion verdict shares those scaled terms: |A - B| and |A D - B C|
    # overflow unscaled, and 1 + |A D - B C| <= |A - B| after scaling
    assert class_inclusion(A, -1.0, 1.0, 0.5, -0.5, 1.0)
    with pytest.raises(OutOfRangeError):
        RadiusProblem(1e308, -1e308, 1.0, 0, 1e308, -1e308, 1.0, 0)


@pytest.mark.parametrize("scale", [3.0, 1e5, 2.0**600])
def test_scaled_radii_match_the_unscaled_formula(scale):
    # the scale is a power of two, so finite quotients keep every bit
    A, B = 0.8 * scale + 0.3j * scale, -0.6 * scale
    for beta2 in (1.5, 2.0, 3.25):
        den = 2.0 * (beta2 + 1.0) + abs(A - B * (2.0 * beta2 - 1.0))
        assert uralegaddi_radius(A, B, 0.7, beta2) == min(0.7 * abs(A - B) / den, 1.0)
    for beta2 in (0.0, 0.4, 0.9):
        den = 2.0 * beta2 + abs(A - B * (2.0 * beta2 - 1.0))
        assert reciprocal_radius(A, B, 0.7, beta2) == min(0.7 * abs(A - B) / den, 1.0)
    # the scaled A with B = -0.6 (|B| <= 1), as target, then as source
    for prob in (RadiusProblem(A, -0.6, 0.7, 0.2j, 0.5, -0.5 + 0.1j, 0.6, 0.3),
                 RadiusProblem(0.5, -0.5 + 0.1j, 0.6, 0.3, A, -0.6, 0.7, 0.2j)):
        a, b, al, g, c, d, be, de = (getattr(prob, f) for f in "A B alpha gamma C D beta delta".split())
        cross = a * d * (g - 1.0) + b * (c * (1.0 - de) + d * (de - g))
        num = al * abs(a - b) * abs(1.0 - g)  # the printed terms over their common |1 - g|^(1/al - 1)
        den = be * (abs(c - d) * abs(de - 1.0) + abs(cross))
        assert subordination_radius(prob) == min(num / den, 1.0)
        printed = (al * abs(a - b) * abs(1.0 - g) ** (1.0 / al)) / (
            be * abs(1.0 - g) ** (1.0 / al - 1.0) * (abs(c - d) * abs(de - 1.0) + abs(cross)))
        assert subordination_radius(prob) == pytest.approx(min(printed, 1.0), rel=1e-14)


def test_reciprocal_domain():
    with pytest.raises(OutOfRangeError):
        reciprocal_radius(1.0, -1.0, 1.0, 1.0)  # needs beta2 < 1


def test_alpha_star_solves_its_equation():
    a = alpha_star()
    assert abs(2.0 * a + (2.0 / math.pi) * math.atan(a) - 1.0) < 1e-12
    assert f"{a:.8f}".startswith("0.38344860")


def test_alpha_star_matches_a_30_digit_root():
    with mp.workdps(30):
        root = mp.findroot(lambda a: 2 * a + (2 / mp.pi) * mp.atan(a) - 1, 0.38)
        assert abs(mp.mpf(alpha_star()) - root) < 1e-16


@pytest.mark.parametrize("field", ["A", "alpha", "gamma", "D", "beta", "delta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_radius_problem_rejects_non_finite_fields(field, bad):
    fields = dict(A=1.0, B=0.0, alpha=1.0, gamma=0.0, C=1.0, D=-1.0, beta=1.0, delta=0.0)
    with pytest.raises(ParameterError, match=f": {field} must be finite"):
        RadiusProblem(**{**fields, field: bad})


def test_starlike_radius_methods_agree():
    closed = starlike_radius(1.0, -1.0, 1.0)
    bisect = starlike_radius(1.0, -1.0, 1.0, method="bisect")
    assert closed.method == "closed"
    assert bisect.method == "bisect"
    assert closed.value == pytest.approx(bisect.value, abs=1e-9)
    # symmetric case collapses to tan(theta/2)
    assert closed.value == pytest.approx(math.tan(closed.theta / 2.0), abs=1e-12)
    assert f"{closed.value:.5f}".startswith("0.52601")


def test_starlike_theta_uses_alpha_star():
    r = starlike_radius(1.0, -1.0, 2.0)
    assert r.theta == pytest.approx((1.0 - alpha_star()) * math.pi / 4.0)


def _starlike_mp(A: float, B: float, beta: float) -> tuple[mp.mpf, mp.mpf]:
    """(theta, root) at 40 digits: theta = (1 - alpha*) pi / (2 beta), alpha* by
    mpmath's own findroot, and the smallest positive root x of beta asin((A - B) x /
    (1 - A B x^2)) = (1 - alpha*) pi / 2, from the conjugate form of the quadratic."""
    with mp.workdps(40):
        astar = mp.findroot(lambda a: 2 * a + 2 / mp.pi * mp.atan(a) - 1, 0.38)
        theta = (1 - astar) * mp.pi / (2 * mp.mpf(beta))
        s, A, B = mp.sin(theta), mp.mpf(A), mp.mpf(B)
        return theta, 2 * s / ((A - B) + mp.sqrt((A - B) ** 2 + 4 * A * B * s * s))


@pytest.mark.parametrize("method", ["closed", "bisect"])
@pytest.mark.parametrize("beta", [1.0, 1.2, 1.5, 1e3, 1e6, 1e9, 1e200, 1e308, 1.7e308, 1.7976931348623157e308])
def test_starlike_radius_matches_40_digits_at_every_beta(beta, method):
    # the quadratic form lost digits to cancellation as beta grew (-0.0 from 1e9), 2 beta
    # overflowed at 1e308, and the bisection stopped at an absolute width of 1e-14
    for A, B in ((0.9, -0.9), (1.0, -1.0), (0.6, -0.7), (0.8, -0.6), (1.0, -0.05), (0.05, -1.0)):
        got = starlike_radius(A, B, beta, method=method)
        theta, root = _starlike_mp(A, B, beta)
        assert abs(got.theta - theta) <= 1e-15 * theta and abs(got.value - root) <= 1e-15 * root, (A, B)


@given(
    st.floats(0.3, 1.0),
    st.floats(-1.0, -0.2),
    st.floats(0.62, 2.0),  # the turning angle needs beta >= 1 - alpha_star
)
def test_starlike_closed_matches_bisect(A, B, beta):
    # some draws cannot reach the turning angle at any radius; the two
    # methods must then agree on refusing
    try:
        c = starlike_radius(A, B, beta)
    except NoRootError:
        with pytest.raises(NoRootError):
            starlike_radius(A, B, beta, method="bisect")
        return
    b = starlike_radius(A, B, beta, method="bisect")
    assert c.value == pytest.approx(b.value, abs=1e-9)


def test_class_inclusion_is_reflexive():
    assert class_inclusion(0.7, -0.4, 0.8, 0.7, -0.4, 0.8)


def test_class_inclusion_on_the_order_chain():
    """With A = 1 - 2a, B = -1 the inequality reduces to |a1 - a2| <= a2 - a1,
    so the order-a2 class nests inside the order-a1 class exactly when a1 <= a2."""
    for a1 in np.arange(0.0, 1.0, 0.1):
        for a2 in np.arange(0.0, 1.0, 0.1):
            got = class_inclusion(1.0 - 2.0 * a1, -1.0, 1.0, 1.0 - 2.0 * a2, -1.0, 1.0)
            assert got == (a1 <= a2 + 1e-12)


def test_class_inclusion_power_chain():
    assert class_inclusion(1.0, -1.0, 0.5, 1.0, -1.0, 0.25)
    assert not class_inclusion(1.0, -1.0, 0.25, 1.0, -1.0, 0.5)


def test_metamorphic_relations_of_the_radius():
    """Exact relations between the radius and the inclusion verdict, checked
    without sampling on 400 seeded draws (A, B, C, D uniform in |.| < 0.95,
    alpha and beta in [0.2, 1], half of them with beta = alpha):

    - rotating all four parameters by one u, |u| = 1, keeps the radius and
      the inclusion verdict;
    - at gamma = delta = 0 the verdict is `subordination_radius` >= 1.

    The radius bound is in ulps of max(1, radius); the largest move over
    35000 probe draws was 3.0 ulps, and no verdict flipped or disagreed."""
    ulp = np.finfo(float).eps
    rng = np.random.default_rng(20261020)
    for k in range(400):
        A, B, C, D = (complex(rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.uniform())) for _ in range(4))
        alpha = float(rng.uniform(0.2, 1.0))
        beta = alpha if k % 2 else float(rng.uniform(0.2, 1.0))
        u = complex(np.exp(2j * np.pi * rng.uniform()))
        radius = subordination_radius(RadiusProblem(A, B, alpha, 0.0, C, D, beta, 0.0))
        included = class_inclusion(A, B, alpha, C, D, beta)
        assert included == (radius >= 1.0), ("inclusion", k)
        rotated = subordination_radius(RadiusProblem(u * A, u * B, alpha, 0.0, u * C, u * D, beta, 0.0))
        assert abs(rotated - radius) <= 8 * ulp * max(1.0, radius), ("rotation", k)
        assert class_inclusion(u * A, u * B, alpha, u * C, u * D, beta) == included, ("rotation", k)


def test_orientation_note_is_documented():
    assert "order" in INCLUSION_ORIENTATION_NOTE
    assert "reversed" in INCLUSION_ORIENTATION_NOTE


@given(st.floats(0.0, 0.95))
def test_reciprocal_dominates_uralegaddi_denominator(beta2):
    """Same numerator, the uralegaddi denominator carries an extra +2, so its
    radius can only be smaller; compare through the common beta2 window."""
    if beta2 <= 1.0:
        r = reciprocal_radius(1.0, -0.5, 0.8, beta2)
        assert 0.0 < r <= 1.0


@given(
    st.floats(0.2, 1.0),
    st.floats(1.05, 4.0),
)
def test_uralegaddi_monotone(alpha, beta2):
    small = uralegaddi_radius(1.0, -1.0, alpha, beta2)
    bigger = uralegaddi_radius(1.0, -1.0, alpha, beta2 + 0.5)
    assert 0.0 < small <= 1.0
    assert bigger <= small + 1e-12
