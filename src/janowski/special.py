"""Special evaluations: the hypergeometric pieces, the starlikeness kernel
and the extremal dominants of the differential-subordination results. The
closed-form MacGregor order and Silverman criterion live in `radii`.

Every scalar value is computed in Python complex, so loading this module
loads no numpy: `hyper_3f2` imports it for a long sum only, and
`operator_dominant` for an array. The kernel and the best dominant are both
int_0^1 h e^G ds along the radial segment to z, with G(s) = int_0^s g,
which `_nested_integral` computes in one pass over Gauss-Legendre panels;
both raise QuadratureFailureError for a value past the largest double.

`operator_dominant` forms Q = (1 + Az)/(1 - bz) once, itself and not by
`moebius._quotient`, as it tests the zero -1/A too and reuses both factors.
Its scalar and array paths agree to within 16 eps (max(1, |h|) + kappa T),
kappa = |Az|/|1 + Az| + b|z|/|1 - bz| the condition of the base map and T
the size of the terms it scales: at most 2.5 eps on that scale over 30000
seeded draws, and 3.8 eps max(1, |h|) where kappa < 1.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

from .errors import (
    BranchUndefinedError,
    DegenerateMapError,
    NoConvergenceError,
    NonCaratheodoryLambdaError,
    OutOfRangeError,
    ParameterError,
    PoleOnBoundaryError,
    QuadratureFailureError,
    require_finite,
    require_finite_args,
    require_range,
)
from .moebius import _points


_MAX_TERMS = 100_000  # 3F2 terms summed before NoConvergenceError
_FIRST_BLOCK = 32  # fewest 3F2 terms in a first block
_LOOP_TERMS = 64  # most terms in a first block that the scalar loop sums
_MAX_BLOCK = 8192  # most 3F2 terms in one block
_PANEL_NODES = 16  # Gauss-Legendre nodes per panel of _nested_integral
_MAX_PANELS = 1000  # panels evaluated before QuadratureFailureError


def _require_tol(owner: str, tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"{owner}: tol must be finite and positive, got {tol}")


def _near_nonpositive_int(x: complex) -> bool:
    xr = complex(x)
    return abs(xr.imag) < 1e-12 and xr.real < 0.5 and abs(xr.real - round(xr.real)) < 1e-12


def hyper_3f2(
    a1: complex,
    a2: complex,
    a3: complex,
    b1: complex,
    b2: complex,
    x: complex,
    tol: float = 1e-15,
) -> complex:
    """Generalized hypergeometric sum 3F2(a1, a2, a3; b1, b2; x) by direct
    term recurrence, t_0 = 1 and t_{n+1} = t_n (a1+n)(a2+n)(a3+n) x /
    ((b1+n)(b2+n)(1+n)).

    The sum stops at the first term that completes a run of three
    consecutive terms with |t| < tol max(|sum|, 1e-300); exceeding 100k
    terms raises NoConvergenceError (the series diverges for |x| > 1 and
    converges slowly near |x| = 1).

    A first block of at most 64 terms is summed by the scalar loop `term *=
    ratio; total += term`; a sum it leaves goes on from its state in numpy
    blocks, whose ratios are float when every parameter and x is real and
    complex otherwise, and whose sequential `multiply.accumulate` and
    `add.accumulate` keep the loop's order. All-real input gives the loop's
    values bit for bit, other input within 4 eps W, W = sum (n+1)|t_n| over
    the summed terms, as numpy's complex quotient is not CPython's. The
    first block has about log(tol)/log|x| terms (at least 32), and each
    next one twice as many, up to 8192.
    """
    require_finite_args("hyper_3f2", a1=a1, a2=a2, a3=a3, b1=b1, b2=b2, x=x)
    _require_tol("hyper_3f2", tol)
    for b in (b1, b2):
        if _near_nonpositive_int(b):
            raise ParameterError(f"lower parameter {b} is a nonpositive integer")
    size = _FIRST_BLOCK
    x_abs = math.hypot(x.real, x.imag)  # abs(complex(x)) overflows for huge finite x
    if 0.0 < x_abs < 1.0:
        size = min(_MAX_BLOCK, max(size, math.ceil(math.log(tol) / math.log(x_abs))))
    term = total = complex(1.0)
    start = run = 0  # terms summed; the run of small terms they end with
    if size <= _LOOP_TERMS:
        try:
            for n in range(size):
                term *= (a1 + n) * (a2 + n) * (a3 + n) * x / ((b1 + n) * (b2 + n) * (n + 1.0))
                total += term
                run = run + 1 if abs(term) < tol * max(abs(total), 1e-300) else 0
                if run == 3:
                    return complex(total)  # numpy scalar parameters make it a numpy scalar
            start, size = size, min(2 * size, _MAX_BLOCK)
        except OverflowError:  # abs() of a complex past the largest double: the blocks start over
            term, total, run = complex(1.0), complex(1.0), 0
    import numpy as np
    carry = np.array([run >= 2, run >= 1])  # small-term flags of the last two terms
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while start < _MAX_TERMS:
            n = np.arange(start, min(start + size, _MAX_TERMS), dtype=float)
            terms = np.empty(n.size + 1, dtype=complex)
            terms[0], terms[1:] = term, (a1 + n) * (a2 + n) * (a3 + n) * x / ((b1 + n) * (b2 + n) * (n + 1.0))
            terms = np.multiply.accumulate(terms)
            terms[0] = total  # so the partial sums start from the total; terms[0] is not read again
            sums = np.add.accumulate(terms)
            # np.hypot, not np.abs: it is the libm hypot of Python's abs
            bound = tol * np.maximum(np.hypot(sums.real[1:], sums.imag[1:]), 1e-300)
            small = np.concatenate((carry, np.hypot(terms.real[1:], terms.imag[1:]) < bound))
            hit = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
            if hit.size:
                return complex(sums[hit[0] + 1])
            carry = small[-2:]
            term, total = complex(terms[-1]), complex(sums[-1])
            start += n.size
            size = min(2 * size, _MAX_BLOCK)
    raise NoConvergenceError(f"3F2 series did not settle within {_MAX_TERMS} terms at x={x}")


def _clog1p(x: complex) -> complex:
    """log(1 + x) without cancellation at small |x| (Kahan): log(u) x / (u - 1) needs
    a complex log accurate near |u| = 1, as cmath.log is and log|u| + i arg u is not."""
    u = 1.0 + x
    return x if u == 1.0 else cmath.log(u) * x / (u - 1.0)


def _cexpm1(y: complex) -> complex:
    """exp(y) - 1 without cancellation at small |y| (Kahan), as `_clog1p`."""
    u = cmath.exp(y)
    return y if u == 1.0 else (u - 1.0) * y / cmath.log(u)


def _kernel_rate(A: complex, b: float, alpha: float, t: complex) -> complex:
    """Integrand (((1 + A t) / (1 - b t))^alpha - 1) / t, alpha (A + b) at
    |t| < 1e-300. Not a principal power: Q^alpha - 1 cancels near t = 0,
    and |t| < 1/b reaches past |A t| <= 1, where principal powers continue Q."""
    if abs(t) < 1e-300:
        return alpha * (A + b)
    return _cexpm1(alpha * (_clog1p(A * t) - _clog1p(-b * t))) / t


@functools.cache
def _panel_rule() -> tuple:
    """The 16-node Gauss-Legendre rule on [-1, 1] folded by x_(15-j) = -x_j: the nodes,
    ascending; the weights w_j, j < 8; the rows taking the parts `_fold` of values at
    the nodes to the integral of their interpolant from -1 to x_i, i < 8 (the rest
    follows from C[15-i][15-j] = w_j - C[i][j]), and to its last two Legendre coefficients."""
    n, m = _PANEL_NODES, _PANEL_NODES // 2

    def legendre(t: float) -> list[float]:  # P_0(t) .. P_n(t), by the three-term recurrence
        p = [1.0, t]
        for k in range(1, n):
            p.append(((2 * k + 1) * t * p[k] - k * p[k - 1]) / (k + 1))
        return p

    right, w = [], []
    for i in range(m):  # Newton on P_n from the largest root down; w = 2 / ((1 - x^2) P_n'(x)^2)
        t = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(8):
            p = legendre(t)
            slope = n * (t * p[n] - p[n - 1]) / (t * t - 1.0)
            t -= p[n] / slope
        right.append(t)
        w.append(complex(2.0 / ((1.0 - t * t) * slope * slope)))  # complex: complex * complex skips a conversion
    x = [-t for t in right] + right[::-1]
    left = [legendre(t) for t in x[:m]]
    # c_k = (k + 1/2) sum_j w_j P_k(x_j) v_j (discrete orthogonality, exact up to
    # degree 2n - 1), and int_-1^x P_k = (P_(k+1) - P_(k-1)) / (2k + 1), P_(-1) = -1
    span = [[p[k + 1] - (p[k - 1] if k else -1.0) for k in range(n)] for p in left]
    plus, minus = ([[0.5 * wj * sum(pj[k] * d[k] for k in range(parity, n, 2)) for wj, pj in zip(w, left)]
                    for d in span] for parity in (0, 1))
    return x, w, plus, minus, [[(k + 0.5) * wj * pj[k] for wj, pj in zip(w, left)] for k in (n - 2, n - 1)]


def _fold(v: list) -> tuple[list, list]:
    """The parts v_j + v_(15-j) and v_j - v_(15-j), j < 8, of values v at the nodes."""
    back = v[: len(v) // 2 - 1 : -1]
    return list(map(operator.add, v, back)), list(map(operator.sub, v, back))


def _dot(a: list, b: list) -> complex:
    return sum(map(operator.mul, a, b))


def _nested_integral(f: Callable[[list], tuple], tol: float) -> tuple[complex, complex]:
    """(int_0^1 h(s) e^G(s) ds, G(1)) with G(s) = int_0^s g, where f(s)
    returns the lists (g(s), h(s)) at a list of s in (0, 1).

    Panels are taken left to right, so G is known at the left end of each
    and at its nodes by spectral cumulative integration (Greengard, SIAM J.
    Numer. Anal. 28, 1991). A panel is bisected while its half-width times
    the last two Legendre coefficients of g or of h e^G exceeds `tol` or is
    not finite; the width factor lets values with a rounding floor, such as g
    next to a singularity just beyond s = 1, pass once their panel is small
    enough. Raises QuadratureFailureError after _MAX_PANELS panels.
    """
    x, w, plus, minus, (even_tail, odd_tail) = _panel_rule()
    total, G = 0j, 0j
    todo = [(0.0, 1.0)]  # a stack: the leftmost panel on top
    for _ in range(_MAX_PANELS):
        a, b = todo.pop()
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        g, h = f([mid + half * t for t in x])
        even, odd = _fold(g)
        limit = tol / half
        if abs(_dot(even_tail, even)) <= limit and abs(_dot(odd_tail, odd)) <= limit:
            whole = _dot(w, even)
            lo, hi = [_dot(row, even) for row in plus], [_dot(row, odd) for row in minus]
            cumulative = [u + v for u, v in zip(lo, hi)] + [whole - (u - v) for u, v in zip(lo[::-1], hi[::-1])]
            y_even, y_odd = _fold([hj * cmath.exp(G + half * c) for hj, c in zip(h, cumulative)])
            if abs(_dot(even_tail, y_even)) <= limit and abs(_dot(odd_tail, y_odd)) <= limit:
                G += half * whole
                total += half * _dot(w, y_even)
                if not todo:
                    return total, G
                continue
        todo += [(mid, b), (a, mid)]
    raise QuadratureFailureError(f"nested integral not within tolerance {tol} after {_MAX_PANELS} panels")


def _finite(owner: str, compute: Callable[[], complex]) -> complex:
    """compute(), or QuadratureFailureError where it overflows (as cmath.exp can), divides by zero or is not finite."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if cmath.isfinite(value):
        return value
    raise QuadratureFailureError(f"{owner}: the value is not finite in double precision")


def kernel_integral(
    A: complex,
    b: float,
    alpha: float,
    z: complex,
    tol: float = 1e-10,
    method: str = "quad",
) -> complex:
    """Starlikeness kernel K(z) = int_0^z exp(int_0^w rate dt) dw, where the
    inner rate is (((1+At)/(1-bt))^alpha - 1)/t.

    `method="quad"` evaluates the nested integral in one panel pass
    (`_nested_integral`); `tol` bounds the error of the outer integral.
    `method="closed"` requires alpha = 1 and uses the elementary
    antiderivatives; it exists as an independent route, not a fast path,
    so the two can be compared.
    """
    require_finite_args("kernel_integral", A=A, b=b, alpha=alpha, z=z)
    _require_tol("kernel_integral", tol)
    A = complex(A)
    require_range("b", b, "[0, 1]")
    require_range("alpha", alpha, "(0, 1]")
    if abs(A) > 1.0 + 1e-12:
        raise OutOfRangeError(f"|A| must not exceed 1, got {abs(A)}")
    z = complex(z)
    if b > 0.0 and abs(z) >= 1.0 / b:
        raise OutOfRangeError(f"z must satisfy |z| < 1/b = {1.0 / b}")
    if (A * z).imag == 0.0 and (A * z).real <= -1.0:
        raise BranchUndefinedError("the segment to z crosses the zero of 1 + A t")
    if method == "closed" and alpha != 1.0:
        raise OutOfRangeError("closed form requires alpha = 1")
    if method not in ("closed", "quad"):
        raise OutOfRangeError(f"unknown method {method!r}")
    ones = [1.0] * _PANEL_NODES

    def value() -> complex:
        if method == "quad":
            return z * _nested_integral(lambda s: ([z * _kernel_rate(A, b, alpha, si * z) for si in s], ones), tol)[0]
        if abs(A + b) < 1e-14:
            return z
        if b == 0.0:
            return _cexpm1(A * z) / A
        log1p = _clog1p(-b * z)
        return -log1p / b if abs(A) < 1e-14 else (cmath.exp((-A / b) * log1p) - 1.0) / A

    return _finite("kernel_integral", value)


@dataclass(frozen=True)
class DominantSpec:
    """Parameters of the explicit dominant attached to the integro-differential
    operator inclusion: base map (1+Az)/(1-bz), outer power alpha*gamma, and
    the affine weights mu, eta, delta, rho of the bracketed combination.
    Every field must be finite."""

    A: complex
    b: float
    alpha: float
    gamma: float
    mu: complex
    eta: complex
    delta: complex
    rho: complex

    def __post_init__(self):
        require_finite(self)
        require_range("b", self.b, "[0, 1]")
        require_range("alpha", self.alpha, "[0, 1]")
        require_range("gamma", self.gamma, "[0, 1]")

    @property
    def value_at_origin(self) -> complex:
        # mu delta + mu rho, kept in bracket order so it matches the z = 0
        # evaluation bit for bit
        return complex(self.mu) * complex(self.delta) + complex(self.mu) * complex(self.rho)


def operator_dominant(spec: DominantSpec, z):
    """Evaluate the dominant h(z) = Q^(alpha gamma) (mu delta + mu rho Q^gamma
    + eta gamma (A + b) z / ((1 + A z)(1 - b z))), Q = (1+Az)/(1-bz), at a
    scalar or a non-empty array z of finite points.

    Q^gamma and Q^(alpha gamma) are principal powers, complex ** float for
    a Python or numpy float or complex z (which returns a complex) and
    `envelope._powers` otherwise. They continue Q from z = 0 only where
    max(|A|, b) |z| <= 1, so a point past 1 + 1e-9 raises, the bound of
    `eval_powered`'s branch guard. A point within 1e-14 of the zero -1/A or
    the pole 1/b raises; |1 + A z| >= 1 - |A| |z| and |1 - b z| >= 1 - b |z|,
    so each is tested only where max|z| reaches it."""
    z, radius, scalar = _points("z", z)
    A = complex(spec.A)
    a_abs = math.hypot(A.real, A.imag)
    if (reach := max(a_abs, spec.b) * radius) > 1.0 + 1e-9:
        raise BranchUndefinedError(f"principal powers of the base map need max(|A|, b) |z| <= 1, got {reach:.6g}")
    num = 1.0 + A * z
    den = 1.0 - spec.b * z
    if ((spec.b * radius >= 1.0 - 1e-14 and (abs(den) if scalar else abs(den).min()) < 1e-14)
            or (a_abs * radius >= 1.0 - 1e-14 and (abs(num) if scalar else abs(num).min()) < 1e-14)):
        raise PoleOnBoundaryError("evaluation point hits a zero or pole of the base map")
    q, powers = num / den, (spec.gamma, spec.alpha * spec.gamma)
    if not scalar:  # an array takes envelope._powers; complex ** float is libm's polar form
        from . import envelope
    q_gamma, q_outer = (q ** powers[0], q ** powers[1]) if scalar else envelope._powers(q, powers)
    out = q_outer * (
        complex(spec.mu) * complex(spec.delta)
        + complex(spec.mu) * complex(spec.rho) * q_gamma
        + complex(spec.eta) * spec.gamma * (A + spec.b) * z / (num * den)
    )
    return out if scalar or out.ndim else complex(out)


def best_dominant(
    psi: Callable[[complex], complex],
    lam: Callable[[complex], complex],
    z: complex,
    tol: float = 1e-10,
) -> complex:
    """Best dominant q(z) of the first-order subordination with target psi and
    coefficient lambda: q = z E(z) / int_0^z E(t)/lambda(t) dt with
    E(t) = exp(int_0^t (psi/lambda - 1)/s ds).

    Both callables must equal 1 at the origin (otherwise the exponent
    integral diverges) and lambda must keep positive real part along the
    segment; violations raise NonCaratheodoryLambdaError. They are called
    at one Python complex node at a time.
    """
    require_finite_args("best_dominant", z=z)
    _require_tol("best_dominant", tol)
    z = complex(z)
    if abs(z) >= 1.0:
        raise OutOfRangeError("z must lie in the open unit disk")
    if abs(complex(lam(0.0)) - 1.0) > 1e-9:
        raise NonCaratheodoryLambdaError("lambda(0) must equal 1")
    if abs(complex(psi(0.0)) - 1.0) > 1e-9:
        raise ParameterError("psi(0) must equal 1")
    for k in range(1, 65):
        t = z * (k / 64.0)
        if complex(lam(t)).real <= 0.0:
            raise NonCaratheodoryLambdaError(f"Re lambda <= 0 at t={t}")

    def f(s: list) -> tuple[list, list]:
        # G(s) = int_0^s (psi/lambda - 1)(u z) du / u, h = 1/lambda
        lam_s = [complex(lam(si * z)) for si in s]
        psi_s = [complex(psi(si * z)) for si in s]
        return [(p / l - 1.0) / si for p, l, si in zip(psi_s, lam_s, s)], [1.0 / l for l in lam_s]

    def value() -> complex:
        outer, G1 = _nested_integral(f, tol)  # the denominator integral is z * outer, so z cancels
        if abs(outer) < 1e-300:
            raise DegenerateMapError("denominator integral vanishes")
        return cmath.exp(G1) / outer

    return _finite("best_dominant", value)
