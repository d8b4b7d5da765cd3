"""Series, integral kernels and explicit dominants."""

import cmath
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from janowski import (
    BranchUndefinedError,
    DominantSpec,
    JanowskiParams,
    NoConvergenceError,
    NonCaratheodoryLambdaError,
    OutOfRangeError,
    ParameterError,
    PoleOnBoundaryError,
    best_dominant,
    class_inclusion,
    eval_powered,
    hyper_3f2,
    kernel_integral,
    macgregor_gamma,
    operator_dominant,
    reciprocal_radius,
    silverman_inclusion,
    starlike_radius,
    tilt_angle,
    uralegaddi_radius,
)
from janowski.oracle import _OPERATOR_TABLE_A, _OPERATOR_TABLE_B

LN2 = math.log(2.0)


def dilog(x: float) -> float:
    return float(mp.polylog(2, x))


class TestHyper3F2:
    def test_dilog_point(self):
        got = hyper_3f2(1.0, 1.0, 1.0, 2.0, 2.0, 0.5)
        assert got.real == pytest.approx(math.pi**2 / 6.0 - LN2**2, abs=1e-13)
        assert got.imag == 0.0

    @pytest.mark.parametrize("x", [0.1 * k for k in range(1, 10)])
    def test_dilog_identity(self, x):
        assert (hyper_3f2(1.0, 1.0, 1.0, 2.0, 2.0, x) * x).real == pytest.approx(
            dilog(x), abs=1e-12
        )

    @pytest.mark.parametrize("x", [0.15, 0.5, 0.85])
    def test_log_collapse(self, x):
        # one numerator unit above the denominators leaves a pure log
        got = hyper_3f2(1.0, 1.0, 2.0, 2.0, 2.0, x)
        assert got.real == pytest.approx(-math.log1p(-x) / x, abs=1e-12)

    def test_terminating_series(self):
        # a1 = -2 terminates after three terms
        got = hyper_3f2(-2.0, 1.0, 1.0, 2.0, 2.0, 0.7)
        want = 1.0 - 2.0 * 0.7 / 4.0 + (2.0 * 2.0 * 2.0 / (6.0 * 6.0 * 2.0)) * 0.49
        assert got.real == pytest.approx(want, abs=1e-14)

    def test_divergent_series_raises(self):
        with pytest.raises(NoConvergenceError):
            hyper_3f2(2.0, 2.0, 2.0, 2.0, 2.0, 1.0)

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(ParameterError):
            hyper_3f2(1.0, 1.0, 1.0, -1.0, 2.0, 0.5)

    @given(st.floats(0.05, 0.9), st.floats(0.5, 2.5), st.floats(0.5, 2.5))
    @settings(max_examples=40)
    def test_numerator_symmetry(self, x, a, b):
        left = hyper_3f2(a, b, 1.0, 2.0, 2.0, x)
        right = hyper_3f2(b, a, 1.0, 2.0, 2.0, x)
        assert abs(left - right) < 1e-12


def _hyper_3f2_loop(a1, a2, a3, b1, b2, x, tol=1e-15):
    """The scalar term loop that `hyper_3f2` sums in blocks, kept as its
    reference: (value, terms summed, W = sum (n+1)|t_n| over those terms).
    All-real input must give its value bit for bit, other input within
    4 eps W."""
    total = complex(1.0)
    term = complex(1.0)
    weight = 1.0
    small_run = 0
    for n in range(100_000):
        term *= (a1 + n) * (a2 + n) * (a3 + n) * x / ((b1 + n) * (b2 + n) * (1 + n))
        total += term
        weight += (n + 2) * abs(term)
        if abs(term) < tol * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                return total, n + 1, weight
        else:
            small_run = 0
    raise NoConvergenceError(f"3F2 series did not settle within 100000 terms at x={x}")


_EPS = np.finfo(float).eps


def _bits(v: complex) -> tuple[str, str]:
    return v.real.hex(), v.imag.hex()


def _hyper_3f2_table(kind: str, count: int = 60) -> list[tuple]:
    """Seeded draws of (a1, a2, a3, b1, b2, x, tol): parameters with parts in
    [-2.5, 3] (real b kept 0.05 from the nonpositive integers), |x| in
    [0, 0.99]. `kind` makes every parameter and x real, complex, complex
    with a zero imaginary part, or each one of those at random ("mixed")."""
    rng = np.random.default_rng(["real", "complex", "zero_imag", "mixed"].index(kind))
    kinds = ["real", "complex", "zero_imag"]

    def value(re: float, im: float):
        k = kinds[rng.integers(3)] if kind == "mixed" else kind
        return float(re) if k == "real" else complex(re, im if k == "complex" else 0.0)

    table = []
    while len(table) < count:
        a = [value(*rng.uniform(-2.5, 3.0, 2)) for _ in range(3)]
        b = [value(*rng.uniform(-2.5, 3.0, 2)) for _ in range(2)]
        if any(complex(v).imag == 0.0 and complex(v).real < 0.5
               and abs(complex(v).real - round(complex(v).real)) < 0.05 for v in b):
            continue
        x = 0.99 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
        table.append((*a, *b, value(x.real, x.imag), float(rng.choice([1e-15, 1e-12, 1e-9]))))
    return table


def _first_block(x: complex, tol: float) -> int:
    """Terms in the first block `hyper_3f2` sums, as its docstring sets it."""
    return max(32, math.ceil(math.log(tol) / math.log(abs(x))))


# (args, first term of the stopping run's block): runs of three small terms
# that start one or two terms before a block ends, at the first and at the
# second block boundary (blocks of B and 2B terms)
_STRADDLES = {
    "two-carried": ((1.0, 1.5, 1.2, 1.5, 1.2, 0.5, 1e-15), 51),
    "one-carried": ((1.0, 1.5, 1.2, 1.0, 1.5, 0.5, 1e-15), 51),
    "second-boundary": ((4.0, 4.0, 4.0, 1.0, 1.5, -0.6, 1e-8), 112),
}


class TestHyper3F2Blocks:
    @pytest.mark.parametrize("kind", ["real"])
    def test_blocks_match_the_term_loop_bit_for_bit(self, kind):
        for args in _hyper_3f2_table(kind):
            want, _, _ = _hyper_3f2_loop(*args)
            assert _bits(hyper_3f2(*args)) == _bits(want), args

    @pytest.mark.parametrize("kind", ["complex", "zero_imag", "mixed"])
    def test_complex_blocks_near_the_term_loop(self, kind):
        for args in _hyper_3f2_table(kind):
            want, _, weight = _hyper_3f2_loop(*args)
            assert abs(hyper_3f2(*args) - want) <= 4.0 * _EPS * weight, args

    @pytest.mark.parametrize("kind", ["complex", "zero_imag", "mixed"])
    def test_complex_blocks_no_further_from_mpmath(self, kind):
        with mp.workdps(30):
            for args in _hyper_3f2_table(kind):
                want, _, weight = _hyper_3f2_loop(*args)
                exact = mp.hyp3f2(*args[:6])
                old = abs(mp.mpc(want) - exact)
                assert abs(mp.mpc(hyper_3f2(*args)) - exact) <= old + 4.0 * _EPS * weight, args

    @pytest.mark.parametrize("args, block_start", _STRADDLES.values(), ids=_STRADDLES.keys())
    def test_run_straddling_a_block_boundary(self, args, block_start):
        want, terms, _ = _hyper_3f2_loop(*args)
        x, tol = args[-2:]
        first = _first_block(x, tol)
        assert block_start in (first + 1, 3 * first + 1)  # first term of the second or third block
        assert block_start <= terms < block_start + 2  # the run began in the block before
        assert _bits(hyper_3f2(*args)) == _bits(want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [
        (0.5, 1.0, 1.0, 1.5, 2.2, 0.0),
        (0.5 + 1j, 1.0, 1.0, 1.5, 2.2j, 0j),
        (-2.0, 1.0, 1.0, 2.0, 2.0, 0.7),
        (-2.0, 1.0, 0.5j, 2.0, 1.5, -0.7 + 0.2j),
    ], ids=["x-0", "x-0j", "terminating", "terminating-complex"])
    def test_short_sums_keep_their_values(self, args):
        want, _, _ = _hyper_3f2_loop(*args)
        assert _bits(hyper_3f2(*args)) == _bits(want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [
        (0.5, 1.0, 1.0, 1.5, 2.2, 1.0),
        (0.5, 1.0, 1.0, 1.5, 2.2, -1.0),
        (1e300, 1e300, 1.0, 2.0, 2.0, 1.0),
        (1e300, 1e300, 1.0, 2.0, 2.0, -1.0),
        (1e300, 1e300, 1.0, 2.0, 2.0, 0.5j),
        (0.5, 1.0, 1.0, 1.5, 2.2, 1.7e308 + 1.7e308j),
    ], ids=["x-1", "x-minus-1", "overflow-x-1", "overflow-x-minus-1", "overflow-x-0.5j", "huge-x"])
    def test_failures_keep_their_message_and_warn_nothing(self, args):
        with pytest.raises(NoConvergenceError) as old:
            _hyper_3f2_loop(*args)
        with pytest.raises(NoConvergenceError) as new:
            hyper_3f2(*args)
        assert str(new.value) == str(old.value) == f"3F2 series did not settle within 100000 terms at x={args[-1]}"


class TestKernelIntegral:
    def test_geometric_closed_form(self):
        # alpha = 1, A = 1, b = 1 integrates to z/(1-z)
        assert kernel_integral(1.0, 1.0, 1.0, 0.5, method="closed") == pytest.approx(1.0)

    def test_exponential_closed_form(self):
        # b = 0 keeps only the entire part; at z = 1 the value is e - 1
        got = kernel_integral(1.0, 0.0, 1.0, 1.0, method="closed")
        assert got == pytest.approx(math.e - 1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "A,b",
        [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5 + 0.3j, 0.7)],
    )
    def test_quadrature_matches_closed(self, A, b):
        for z in (0.3, -0.25 + 0.4j, 0.6j):
            c = kernel_integral(A, b, 1.0, z, method="closed")
            q = kernel_integral(A, b, 1.0, z, method="quad")
            assert abs(c - q) < 1e-10

    def test_fractional_power_small_z_series(self):
        # first terms: z + alpha (A + b) z^2 / 2 + O(z^3)
        A, b, alpha, z = 0.8, 0.5, 0.5, 1e-3
        got = kernel_integral(A, b, alpha, z)
        assert abs(got - (z + alpha * (A + b) * z * z / 2.0)) < 1e-8

    @pytest.mark.parametrize(
        "A,b,alpha,z",
        [
            (1.0, 0.5, 0.5, -0.99),  # the segment runs to 0.01 from the zero of 1 + A t
            (0.8, 1.0, 0.3, 0.9),  # and to 0.1 from the pole of 1/(1 - b t)
            (0.5 + 0.3j, 0.7, 0.75, 0.4 + 0.5j),
            (-0.6j, 0.0, 0.25, -0.8 + 0.3j),
        ],
    )
    def test_fractional_power_matches_25_digit_quadrature(self, A, b, alpha, z):
        got = kernel_integral(A, b, alpha, z)
        with mp.workdps(25):
            A_, b_, z_ = mp.mpc(A), mp.mpf(b), mp.mpc(z)

            def rate(t):
                return mp.expm1(alpha * (mp.log(1 + A_ * t) - mp.log(1 - b_ * t))) / t

            def unit(f):
                # int_0^1 f(s) ds with s = 1 - v^2, which keeps Gauss-Legendre
                # converging fast when a singularity sits just beyond s = 1
                return mp.quad(lambda v: 2 * v * f(1 - v * v), [0, 1], method="gauss-legendre")

            want = complex(z_ * unit(lambda s: mp.exp(s * z_ * unit(lambda u: rate(u * s * z_)))))
        assert abs(got - want) < 1e-10

    def test_domain_respects_pole(self):
        with pytest.raises(OutOfRangeError):
            kernel_integral(1.0, 0.5, 1.0, 2.5)
        # b = 0 removes the pole entirely, |z| >= 1 is fine
        assert cmath.isfinite(kernel_integral(0.5, 0.0, 1.0, 1.5))


class TestMacgregorGamma:
    def test_half_is_reciprocal_log(self):
        assert macgregor_gamma(0.5) == pytest.approx(1.0 / (2.0 * LN2), abs=1e-12)

    def test_zero_is_exactly_half(self):
        assert macgregor_gamma(0.0) == 0.5

    def test_quarter_surd(self):
        assert macgregor_gamma(0.25) == pytest.approx((math.sqrt(2.0) + 1.0) / 4.0)

    def test_continuity_at_the_removable_point(self):
        center = 1.0 / (2.0 * LN2)
        assert abs(macgregor_gamma(0.5 - 1e-6) - center) < 1e-5
        assert abs(macgregor_gamma(0.5 + 1e-6) - center) < 1e-5

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            macgregor_gamma(1.0)

    @given(st.floats(0.0, 0.99))
    def test_piecewise_formula(self, beta):
        got = macgregor_gamma(beta)
        if abs(beta - 0.5) > 1e-9:
            want = (1.0 - 2.0 * beta) / (2.0 * (2.0 ** (1.0 - 2.0 * beta) - 1.0))
            assert got == pytest.approx(want, abs=1e-12)


class TestOperatorDominant:
    def test_origin_value_is_exact(self):
        spec = DominantSpec(
            A=0.7 + 0.3j, b=0.8, alpha=1.0, gamma=0.9,
            mu=1.0 + 0.1j, eta=1.0, delta=1.2, rho=0.2,
        )
        assert operator_dominant(spec, 0.0) == spec.mu * spec.delta + spec.mu * spec.rho
        assert spec.value_at_origin == operator_dominant(spec, 0.0)

    @pytest.mark.parametrize("field", ["A", "b", "gamma", "rho"])
    def test_spec_rejects_non_finite_fields(self, field):
        fields = dict(A=1.0, b=1.0, alpha=1.0, gamma=1.0, mu=1.0, eta=1.0, delta=1.0, rho=0.0)
        with pytest.raises(ParameterError, match=f": {field} must be finite"):
            DominantSpec(**{**fields, field: math.nan})

    def test_derivative_sum_dominant(self):
        """mu = eta = delta = 1, rho = 0 is the image of p + zp' under the
        first-order base map; at A = b = 1 it is (1+2z-z^2)/(1-z)^2."""
        spec = DominantSpec(A=1.0, b=1.0, alpha=1.0, gamma=1.0, mu=1.0, eta=1.0, delta=1.0, rho=0.0)
        assert operator_dominant(spec, 0.5) == pytest.approx(7.0, abs=1e-12)
        z = 0.3 - 0.2j
        want = (1.0 + 2.0 * z - z * z) / (1.0 - z) ** 2
        assert operator_dominant(spec, z) == pytest.approx(want, abs=1e-12)

    def test_bracket_linear_in_weights(self):
        # halving mu and eta halves the whole dominant
        full = DominantSpec(A=1.0, b=1.0, alpha=1.0, gamma=1.0, mu=1.0, eta=1.0, delta=1.0, rho=0.0)
        half = DominantSpec(A=1.0, b=1.0, alpha=1.0, gamma=1.0, mu=0.5, eta=0.5, delta=1.0, rho=0.0)
        z = 0.5
        assert operator_dominant(half, z) == pytest.approx(operator_dominant(full, z) / 2.0)

    def test_gamma_zero_freezes_the_power(self):
        spec = DominantSpec(A=0.5, b=0.5, alpha=1.0, gamma=0.0, mu=0.7, eta=0.4, delta=1.1, rho=0.0)
        for z in (0.0, 0.4, -0.3 + 0.5j):
            assert operator_dominant(spec, z) == pytest.approx(0.7 * 1.1)

    def test_spec_validation(self):
        with pytest.raises(OutOfRangeError):
            DominantSpec(A=1.0, b=1.5, alpha=1.0, gamma=1.0, mu=1.0, eta=1.0, delta=1.0, rho=0.0)
        with pytest.raises(OutOfRangeError):
            DominantSpec(A=1.0, b=1.0, alpha=2.0, gamma=1.0, mu=1.0, eta=1.0, delta=1.0, rho=0.0)

    @pytest.mark.parametrize("row", _OPERATOR_TABLE_A + _OPERATOR_TABLE_B)
    def test_array_matches_30_digit_evaluation(self, row):
        spec = DominantSpec(*row)
        z = np.outer([0.0, 0.3, 0.7, 0.95, 0.99], np.exp(2j * np.pi * np.arange(16) / 16)).ravel()
        got = operator_dominant(spec, z)
        assert got.shape == z.shape
        with mp.workdps(30):
            A, b = mp.mpc(spec.A), mp.mpf(spec.b)
            mu, eta, delta, rho = (mp.mpc(v) for v in (spec.mu, spec.eta, spec.delta, spec.rho))
            for zi, gi in zip(z, got):
                zz = mp.mpc(zi)
                num, den = 1 + A * zz, 1 - b * zz
                qlog = mp.log(num) - mp.log(den)
                bracket = (mu * delta + mu * rho * mp.exp(spec.gamma * qlog)
                           + eta * spec.gamma * (A + b) * zz / (num * den))
                want = mp.exp(spec.alpha * spec.gamma * qlog) * bracket
                assert abs(mp.mpc(gi) - want) <= 1e-12 * abs(want)

    def test_scalar_point_gives_a_complex(self):
        spec = DominantSpec(*_OPERATOR_TABLE_A[2])
        assert type(operator_dominant(spec, 0.5)) is complex
        assert type(operator_dominant(spec, np.complex128(0.5j))) is complex

    def test_scalar_point_agrees_with_the_array_path(self):
        """A Python or numpy scalar z is evaluated with complex ** float. On
        seeded specs (alpha and gamma down to 1e-3 and at 1) at points of the
        domain max(|A|, b) |z| <= 1, its edge in the directions of the pole
        1/b and of the zero -1/A, approaches of that edge, and a point past
        it, each scalar call returns a Python complex within 16 eps (max(1,
        |h|) + kappa T) of the one-element array call, or raises the same
        error class. kappa = |Az|/|1 + Az| + b|z|/|1 - bz| is the condition
        of the base map, whose products numpy may round with a fused
        multiply-add, and T = |Q^(alpha gamma)| (|mu rho Q^gamma| + |eta
        gamma (A + b) z / ((1 + Az)(1 - bz))|) the size of the terms it
        scales."""
        eps = np.finfo(float).eps
        rng = np.random.default_rng(20261020)

        def polar(hi: float) -> complex:
            return complex(rng.uniform(0.0, hi) * cmath.exp(2j * math.pi * rng.uniform()))

        compared = raised = 0
        for k in range(200):
            alpha = (1e-3, 1.0, float(rng.uniform()))[k % 3]
            gamma = (1.0, 1e-3, float(rng.uniform()))[k // 3 % 3]
            spec = DominantSpec(A=polar(1.0), b=float(rng.uniform()), alpha=alpha, gamma=gamma,
                                mu=polar(1.0), eta=polar(1.0), delta=polar(1.0), rho=polar(1.0))
            A, b = spec.A, spec.b
            edge = 1.0 / max(abs(A), b)  # the pole or the zero lies on the edge of the domain
            to_zero = -A.conjugate() / abs(A)
            zs = [polar(edge) for _ in range(6)] + [edge, to_zero * edge, 1.5 * edge, complex(math.inf, 0.0)]
            for j in (1, 4, 8, 12):
                turn = cmath.exp(1j * 10.0 ** -j * rng.normal())
                zs += [(1.0 - 10.0 ** -j) * turn * edge, (1.0 - 10.0 ** -j) * turn * to_zero * edge]
            for z in map(complex, zs):
                try:
                    want = operator_dominant(spec, np.array([z]))[0]
                except ParameterError as err:
                    for scalar in (z, np.complex128(z)):
                        with pytest.raises(type(err)):
                            operator_dominant(spec, scalar)
                    raised += 1
                    continue
                num, den = 1.0 + A * z, 1.0 - b * z
                Q = num / den
                kappa = abs(A * z) / abs(num) + abs(b * z) / abs(den)
                terms = abs(Q ** (alpha * gamma)) * (abs(spec.mu * spec.rho * Q ** gamma)
                                                     + abs(spec.eta * gamma * (A + b) * z / (num * den)))
                bound = 16 * eps * (max(1.0, abs(want)) + kappa * terms)
                for scalar in (z, np.complex128(z)):
                    got = operator_dominant(spec, scalar)
                    assert type(got) is complex and abs(got - want) <= bound, (spec, z, got, want)
                compared += 1
        assert compared > 2500 and raised >= 600

    def test_no_value_past_the_principal_domain(self):
        """Past max(|A|, b) |z| = 1 the principal power of Q need not be the
        continuation of Q from z = 0. Here it is not: the continuation gives
        -0.7197-0.0024i and the principal powers 0.0024-0.7197i, so both
        paths raise."""
        spec = DominantSpec(A=-0.15 + 0.75j, b=1.0, alpha=0.5, gamma=0.5, mu=1.0, eta=0.0, delta=0.0, rho=1.0)
        for z in (2 + 2j, np.complex128(2 + 2j), np.array([0.1, 2 + 2j])):
            with pytest.raises(BranchUndefinedError, match=r"max\(\|A\|, b\) \|z\| <= 1, got 2.82843"):
                operator_dominant(spec, z)
        # the edge itself is admitted: |z| = 1 away from the pole
        assert operator_dominant(spec, -1.0) == pytest.approx(cmath.exp(0.75 * cmath.log((1.15 - 0.75j) / 2.0)))

    def test_pole_anywhere_in_an_array_raises(self):
        spec = DominantSpec(A=0.5, b=0.8, alpha=1.0, gamma=1.0, mu=1.0, eta=1.0, delta=1.0, rho=0.0)
        with pytest.raises(PoleOnBoundaryError):
            operator_dominant(spec, np.array([0.1, 0.2j, 1.0 / 0.8, -0.3]))


_SPEC = DominantSpec(A=1.0, b=1.0, alpha=1.0, gamma=1.0, mu=1.0, eta=1.0, delta=1.0, rho=0.0)
_NON_FINITE_CALLS = {
    "starlike_radius-beta-nan": (starlike_radius, (1.0, -1.0, math.nan)),
    "starlike_radius-beta-inf": (starlike_radius, (1.0, -1.0, math.inf)),
    "uralegaddi_radius-beta2-nan": (uralegaddi_radius, (1.0, -1.0, 1.0, math.nan)),
    "uralegaddi_radius-alpha-nan": (uralegaddi_radius, (1.0, -1.0, math.nan, 2.0)),
    "uralegaddi_radius-A-inf": (uralegaddi_radius, (math.inf, -1.0, 1.0, 2.0)),
    "reciprocal_radius-alpha-nan": (reciprocal_radius, (1.0, -1.0, math.nan, 0.5)),
    "reciprocal_radius-B-nan": (reciprocal_radius, (1.0, complex(0.0, math.nan), 1.0, 0.5)),
    "hyper_3f2-x-nan": (hyper_3f2, (1.0, 1.0, 1.0, 2.0, 2.0, math.nan)),
    "hyper_3f2-a1-inf": (hyper_3f2, (math.inf, 1.0, 1.0, 2.0, 2.0, 0.5)),
    "kernel_integral-z-nan": (kernel_integral, (1.0, 0.5, 0.5, math.nan)),
    "kernel_integral-A-nan": (kernel_integral, (complex(math.nan, 0.0), 0.5, 0.5, 0.5)),
    "operator_dominant-z-nan": (operator_dominant, (_SPEC, math.nan)),
    "silverman_inclusion-A-nan": (silverman_inclusion, (math.nan, 0.5, 1.0, 0.3)),
    "class_inclusion-A-nan": (class_inclusion, (math.nan, 0.0, 1.0, 1.0, -1.0, 1.0)),
    "tilt_angle-m-nan": (tilt_angle, (0.5, math.nan)),
    "best_dominant-z-nan": (best_dominant, (lambda t: 1.0 + t, lambda t: 1.0, math.nan)),
}


@pytest.mark.parametrize("fn, args", _NON_FINITE_CALLS.values(), ids=_NON_FINITE_CALLS.keys())
def test_non_finite_scalar_arguments_raise(fn, args):
    with pytest.raises(ParameterError, match="finite"):
        fn(*args)


_BAD_TOLERANCE_CALLS = {
    "kernel_integral-tol-0": (kernel_integral, (1.0, 0.5, 0.5, 0.5, 0.0)),
    "kernel_integral-tol-negative": (kernel_integral, (1.0, 0.5, 0.5, 0.5, -0.1)),
    "kernel_integral-tol-nan": (kernel_integral, (1.0, 0.5, 1.0, 0.5, math.nan, "closed")),
    "best_dominant-tol-negative": (best_dominant, (lambda t: 1.0 + t, lambda t: 1.0, 0.5, -1.0)),
    "best_dominant-tol-inf": (best_dominant, (lambda t: 1.0 + t, lambda t: 1.0, 0.5, math.inf)),
    "hyper_3f2-tol-nan": (hyper_3f2, (1.0, 1.0, 1.0, 2.0, 2.0, 0.5, math.nan)),
    "hyper_3f2-tol-0": (hyper_3f2, (1.0, 1.0, 1.0, 2.0, 2.0, 0.5, 0.0)),
}


@pytest.mark.parametrize("fn, args", _BAD_TOLERANCE_CALLS.values(), ids=_BAD_TOLERANCE_CALLS.keys())
def test_bad_tolerances_raise(fn, args):
    with pytest.raises(ParameterError, match="tol must be finite and positive"):
        fn(*args)


class TestBestDominant:
    def test_exponential_quotient(self):
        got = best_dominant(lambda t: 1.0 + t, lambda t: 1.0, 0.5)
        want = 0.5 * math.exp(0.5) / (math.exp(0.5) - 1.0)
        assert got == pytest.approx(want, abs=1e-9)

    def test_exponential_quotient_on_a_disk_grid(self):
        """psi = 1 + z with unit weight must reproduce z e^z / (e^z - 1)."""
        psi = lambda t: complex(eval_powered(JanowskiParams(1.0, 0.0), t))
        rng = np.random.default_rng(5)
        for _ in range(12):
            z = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            got = best_dominant(psi, lambda t: 1.0, z)
            want = z * cmath.exp(z) / (cmath.exp(z) - 1.0)
            assert abs(got - want) < 1e-8

    @pytest.mark.parametrize("z", [0.0, 1e-300, 1e-320])
    def test_value_at_and_next_to_the_origin_is_lambda_0(self, z):
        # z cancels from z e^G / (z outer): the product form raised DegenerateMapError
        # at z = 0 and 1e-300 and gave inf + nan i at 1e-320
        p = JanowskiParams(1.0, -1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = best_dominant(lambda t: complex(eval_powered(p, t)), lambda t: 1.0, z)
        assert abs(got - 1.0) <= 4.0 * sys.float_info.epsilon

    def test_normalization_required(self):
        with pytest.raises(NonCaratheodoryLambdaError):
            best_dominant(lambda t: 1.0 + t, lambda t: 2.0, 0.5)
        with pytest.raises(ParameterError):
            best_dominant(lambda t: 2.0 + t, lambda t: 1.0, 0.5)

    @pytest.mark.parametrize(
        "A,B,alpha,z",
        [
            (0.7 + 0.5j, -0.3 + 0.2j, 0.6, 0.9),
            (0.9j, -0.2, 0.8, 0.9 * cmath.exp(2.5j)),
            (-0.5j, 0.4, 0.35, -0.5 + 0.6j),
        ],
    )
    def test_matches_25_digit_quadrature(self, A, B, alpha, z):
        p = JanowskiParams(A, B, alpha)
        got = best_dominant(lambda t: complex(eval_powered(p, t)), lambda t: 1.0 + 0.4 * t, z)
        with mp.workdps(25):
            A_, B_, z_ = mp.mpc(A), mp.mpc(B), mp.mpc(z)
            lam = lambda t: 1 + mp.mpf("0.4") * t
            psi = lambda t: mp.exp(alpha * (mp.log(1 + A_ * t) - mp.log(1 + B_ * t)))

            def unit(f):
                # int_0^1 f(s) ds with s = 1 - v^2, as in the kernel reference
                return mp.quad(lambda v: 2 * v * f(1 - v * v), [0, 1], method="gauss-legendre")

            def G(s):  # int_0^(s z) (psi/lambda - 1)(t) dt / t
                return unit(lambda u: (psi(u * s * z_) / lam(u * s * z_) - 1) / u)

            want = complex(mp.exp(G(1)) / unit(lambda s: mp.exp(G(s)) / lam(s * z_)))
        assert abs(got - want) < 1e-10

    def test_left_half_plane_weight_rejected(self):
        with pytest.raises(NonCaratheodoryLambdaError):
            best_dominant(lambda t: 1.0 + t, lambda t: 1.0 - 2.0 * t, 0.9)


class TestSilvermanInclusion:
    def test_boundary_case(self):
        # alpha = b = A = 1 reduces to 4 beta <= 2
        assert silverman_inclusion(1.0, 1.0, 1.0, 0.5)
        assert not silverman_inclusion(1.0, 1.0, 1.0, 0.5 + 1e-9)

    def test_generic_point(self):
        assert silverman_inclusion(0.5, 0.5, 0.8, 0.2)

    @pytest.mark.parametrize("A", [1e308, 1.7e308 + 1.7e308j])
    def test_huge_A_is_decided_without_overflow(self, A):
        # (1 + |A|)^2 overflows the printed form; the left side is ~|A|^2
        assert not silverman_inclusion(A, 0.5, 1.0, 0.3)

    def test_cancellation_rejected(self):
        with pytest.raises(ParameterError):
            silverman_inclusion(-0.5, 0.5, 1.0, 0.3)

    @given(st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 1.0))
    @settings(max_examples=40)
    def test_matches_printed_inequality(self, A, b, alpha):
        if A + b == 0.0:
            return
        beta = 0.3
        lhs = beta * (1.0 + b) ** (alpha - 1.0) * (1.0 + A) ** (alpha + 1.0)
        assert silverman_inclusion(A, b, alpha, beta) == (lhs <= alpha * (A + b))
