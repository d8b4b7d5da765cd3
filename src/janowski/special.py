"""Special evaluations: the hypergeometric pieces, the starlikeness kernel,
the extremal dominants of the differential-subordination results, and the
closed-form order/criterion helpers that accompany them.

`hyper_3f2` sums its series by a block recurrence: numpy arrays hold the
term ratios of a block, and sequential accumulations turn them into terms
and partial sums, in the order and with the stop rule of a scalar term
loop. All-real input gives that loop's values to the last bit; complex
input moves them in the last bits only, because numpy divides complex
numbers differently from CPython.

Everything here is scalar-analytic on the open unit disk. The kernel and
the best dominant are both int_0^1 h e^G ds along the radial segment to
z, with G(s) = int_0^s g, and `_nested_integral` computes both integrals
in one left-to-right pass over Gauss-Legendre panels. Integrands are
written with complex log1p/expm1 equivalents so they stay accurate near
the origin, where the naive quotient forms cancel; their guards for t = 0
and for 1 + x = 1 run only on a panel where a node hits them.

Scalars stay scalar, as in `envelope`: `operator_dominant` evaluates a
Python or numpy float or complex z with cmath.log and cmath.exp, and an
array with `envelope._log` and np.exp, unchanged bit for bit. The two agree
to within 16 eps (max(1, |h|) + kappa T), kappa = |Az|/|1 + Az| +
b|z|/|1 - bz| the condition of the base map and T the size of the terms it
scales: at most 3.3 eps on that scale over 30000 seeded draws, and 4.6 eps
max(1, |h|) where kappa < 1. `best_dominant` calls its callables one
node at a time, so a psi built on `eval_powered` takes the scalar path:
about 60 us a call against 290 us when each node went through 0-d numpy
arrays (one core of a 2-vCPU x86-64 machine). The nodes are Python complex
(`tolist()`), so the arithmetic inside the callables runs on Python complex
instead of numpy scalars, about 5 % of a call.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from dataclasses import dataclass
from typing import Callable

from .envelope import _log, _points
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


_MAX_TERMS = 100_000  # 3F2 terms summed before NoConvergenceError
_FIRST_BLOCK = 32  # fewest 3F2 terms in a first block
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

    Terms are summed in blocks: numpy arithmetic gives the term ratios of
    a block, in float when every parameter and x is real and in complex
    otherwise, and sequential `multiply.accumulate` and `add.accumulate`
    give its terms and partial sums, in the order of the scalar loop
    `term *= ratio; total += term`. All-real input gives that loop's values
    bit for bit. Other input may differ from it by up to 4 eps W, with
    W = sum (n+1)|t_n| over the summed terms, since numpy's complex
    quotient is not CPython's. The first block has about log(tol)/log|x|
    terms (at least 32), and each next one twice as many, up to 8192.
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
    start, carry = 0, np.zeros(0, dtype=bool)  # terms summed; small-term flags of the last two
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while start < _MAX_TERMS:
            n = np.arange(start, min(start + size, _MAX_TERMS), dtype=float)
            terms = np.empty(n.size + 1, dtype=complex)
            terms[0] = term
            terms[1:] = (a1 + n) * (a2 + n) * (a3 + n) * x / ((b1 + n) * (b2 + n) * (n + 1.0))
            terms = np.multiply.accumulate(terms)
            sums = terms.copy()
            sums[0] = total
            sums = np.add.accumulate(sums)
            # np.hypot, not np.abs: it is the libm hypot of Python's abs
            bound = tol * np.maximum(np.hypot(sums.real[1:], sums.imag[1:]), 1e-300)
            small = np.concatenate((carry, np.hypot(terms.real[1:], terms.imag[1:]) < bound))
            hit = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
            if hit.size:
                return complex(sums[hit[0] + 3 - carry.size])
            carry = small[-2:]
            term, total = complex(terms[-1]), complex(sums[-1])
            start += n.size
            size = min(2 * size, _MAX_BLOCK)
    raise NoConvergenceError(f"3F2 series did not settle within {_MAX_TERMS} terms at x={x}")


def _clog1p_arr(x: np.ndarray) -> np.ndarray:
    """log(1 + x) for a complex numpy array or scalar x without
    cancellation at small |x| (Kahan). Keeps np.log, not `envelope._log`:
    the trick log(u) x / (u - 1) needs a correctly rounded complex log, and
    log(hypot) loses the relative accuracy of Re log u near |u| = 1. The
    guard for u = 1 runs only when an entry hits it."""
    u = 1.0 + x
    plain = u == 1.0
    if not plain.any():
        return np.log(u) * x / (u - 1.0)
    safe = np.where(plain, 2.0, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(safe) * x / (safe - 1.0)
    return np.where(plain, x, out)


def _cexpm1_arr(y: np.ndarray) -> np.ndarray:
    """exp(y) - 1 for a complex numpy array or scalar y without
    cancellation at small |y| (Kahan), guarded as `_clog1p_arr`, which gives
    the reason for np.log."""
    u = np.exp(y)
    plain = u == 1.0
    if not plain.any():
        return (u - 1.0) * y / np.log(u)
    safe = np.where(plain, 2.0, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (safe - 1.0) * y / np.log(safe)
    return np.where(plain, y, out)


def _kernel_rate(A: complex, b: float, alpha: float, t: np.ndarray) -> np.ndarray:
    """Integrand (((1 + A t) / (1 - b t))^alpha - 1) / t, finite at t = 0;
    the guard for |t| < 1e-300 runs only when a node hits it."""
    t = np.asarray(t, dtype=complex)
    tiny = abs(t) < 1e-300
    hit = tiny.any()
    tt = np.where(tiny, 1.0, t) if hit else t
    rate = _cexpm1_arr(alpha * (_clog1p_arr(A * tt) - _clog1p_arr(-b * tt))) / tt
    return np.where(tiny, alpha * (A + b), rate) if hit else rate


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The panel rule on [-1, 1]: Gauss-Legendre nodes x and weights w, the
    matrix taking values at x to the integrals from -1 to each node of
    their interpolant, and the two rows taking them to its last two
    Legendre coefficients. Built on first use, so importing costs nothing."""
    leg = np.polynomial.legendre
    x, w = leg.leggauss(_PANEL_NODES)
    # discrete orthogonality at the nodes (exact up to degree 2n - 1):
    # c_k = (k + 1/2) sum_j w_j P_k(x_j) f(x_j)
    to_coef = (np.arange(_PANEL_NODES) + 0.5)[:, None] * (leg.legvander(x, _PANEL_NODES - 1) * w[:, None]).T
    cumulative = leg.legvander(x, _PANEL_NODES) @ leg.legint(to_coef, lbnd=-1.0)
    return x, w, cumulative, to_coef[-2:]


def _nested_integral(f: Callable[[np.ndarray], tuple], tol: float) -> tuple[complex, complex]:
    """(int_0^1 h(s) e^G(s) ds, G(1)) with G(s) = int_0^s g, where f(s)
    returns (g(s), h(s)) on an array of s in (0, 1).

    Panels are taken left to right, so G is known at the left end of each
    and at its nodes by spectral cumulative integration (Greengard, SIAM J.
    Numer. Anal. 28, 1991). A panel is bisected while its half-width times
    the last two Legendre coefficients of g or of h e^G exceeds `tol` (or
    is not finite); the width factor lets values with a rounding floor,
    such as g next to a singularity just beyond s = 1, pass once their
    panel is small enough. Raises QuadratureFailureError after _MAX_PANELS
    panels.
    """
    x, w, cumulative, tail = _panel_rule()
    total, G = 0j, 0j
    todo = [(0.0, 1.0)]  # a stack: the leftmost panel on top
    for _ in range(_MAX_PANELS):
        a, b = todo.pop()
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        g, h = f(mid + half * x)
        y = h * np.exp(G + half * (cumulative @ g))
        if half * max(abs(tail @ g).max(), abs(tail @ y).max()) <= tol:
            G += half * (w @ g)
            total += half * (w @ y)
        else:
            todo += [(mid, b), (a, mid)]
        if not todo:
            return total, G
    raise QuadratureFailureError(f"nested integral not within tolerance {tol} after {_MAX_PANELS} panels")


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
    if method == "closed":
        if alpha != 1.0:
            raise OutOfRangeError("closed form requires alpha = 1")
        if abs(A + b) < 1e-14:
            return z
        if b == 0.0:
            return complex(_cexpm1_arr(np.complex128(A * z))) / A
        log1p = complex(_clog1p_arr(np.complex128(-b * z)))
        if abs(A) < 1e-14:
            return -log1p / b
        return (cmath.exp((-A / b) * log1p) - 1.0) / A
    if method != "quad":
        raise OutOfRangeError(f"unknown method {method!r}")
    outer, _ = _nested_integral(lambda s: (z * _kernel_rate(A, b, alpha, s * z), 1.0), tol)
    return z * outer


def macgregor_gamma(beta: float) -> float:
    """Order of starlikeness guaranteed by Re f' > beta on the disk:
    (1 - 2 beta) / (2 (2^(1 - 2 beta) - 1)), continued by 1/(2 ln 2) at
    beta = 1/2."""
    require_range("beta", beta, "[0, 1)")
    u = 1.0 - 2.0 * beta
    if u == 0.0:
        return 1.0 / (2.0 * math.log(2.0))
    if abs(u) >= 0.25:
        # 2.0 ** u is correctly rounded here and keeps beta = 0 exactly 1/2.
        return u / (2.0 * (2.0 ** u - 1.0))
    return u / (2.0 * math.expm1(u * math.log(2.0)))


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


def operator_dominant(spec: DominantSpec, z) -> complex | np.ndarray:
    """Evaluate the dominant h(z) = Q^(alpha gamma) (mu delta + mu rho Q^gamma
    + eta gamma (A + b) z / ((1 + A z)(1 - b z))), Q = (1+Az)/(1-bz), at a
    scalar or a non-empty array z of finite points.

    A Python or numpy float or complex z is evaluated in Python complex
    arithmetic (cmath.log and cmath.exp) and returns a complex; other input
    goes through `envelope._log` and np.exp. A point within 1e-14 of the
    zero -1/A or the pole 1/b raises; |1 + A z| >= 1 - |A| |z| and
    |1 - b z| >= 1 - b |z|, so each is tested only where max|z| reaches it."""
    z, radius, scalar = _points("z", z)
    A = complex(spec.A)
    num = 1.0 + A * z
    den = 1.0 - spec.b * z
    if ((spec.b * radius >= 1.0 - 1e-14 and np.min(np.abs(den)) < 1e-14)
            or (math.hypot(A.real, A.imag) * radius >= 1.0 - 1e-14 and np.min(np.abs(num)) < 1e-14)):
        raise PoleOnBoundaryError("evaluation point hits a zero or pole of the base map")
    # sum of principal logs: its powers keep that branch
    q_log, exp = (cmath.log(num) - cmath.log(den), cmath.exp) if scalar else (_log(num) - _log(den), np.exp)
    bracket = (
        complex(spec.mu) * complex(spec.delta)
        + complex(spec.mu) * complex(spec.rho) * exp(spec.gamma * q_log)
        + complex(spec.eta) * spec.gamma * (A + spec.b) * z / (num * den)
    )
    out = exp(spec.alpha * spec.gamma * q_log) * bracket
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
    at one point at a time, a Python complex at the quadrature nodes.
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

    def f(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # G(s) = int_0^s (psi/lambda - 1)(u z) du / u, h = 1/lambda
        ts = (s * z).tolist()  # Python complex nodes: the callables' arithmetic skips numpy scalars
        lam_s = np.array([complex(lam(t)) for t in ts])
        psi_s = np.array([complex(psi(t)) for t in ts])
        return (psi_s / lam_s - 1.0) / s, 1.0 / lam_s

    outer, G1 = _nested_integral(f, tol)
    denom = z * outer
    if abs(denom) < 1e-300:
        raise DegenerateMapError("denominator integral vanishes")
    return z * cmath.exp(G1) / denom


def silverman_inclusion(A: complex, b: float, alpha: float, beta: float) -> bool:
    """Coefficient criterion placing the operator class inside the bounded-
    turning class: beta (1+b)^(alpha-1) (1+|A|)^(alpha+1) <= alpha |A + b|."""
    require_finite_args("silverman_inclusion", A=A, b=b, alpha=alpha, beta=beta)
    A = complex(A)
    require_range("b", b, "[0, 1]")
    require_range("alpha", alpha, "(0, 1]")
    if beta <= 0.0:
        raise OutOfRangeError(f"beta must be positive, got {beta}")
    # Both sides divided by s = max(1, |Re A|, |Im A|), so that no power or
    # modulus overflows for huge A; at s = 1 this is the printed inequality
    # to the last bit.
    s = max(1.0, abs(A.real), abs(A.imag))
    a = A / s
    gap = abs(a + b / s)  # |A + b| / s
    if gap < 1e-14 / s:
        raise DegenerateMapError("A + b = 0 leaves the criterion vacuous")
    lhs = beta * (1.0 + b) ** (alpha - 1.0) * s**alpha * (1.0 / s + abs(a)) ** (alpha + 1.0)
    return lhs <= alpha * gap + 1e-12 / s
