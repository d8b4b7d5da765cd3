"""Adaptive Gauss quadrature for complex-valued integrands.

All integrals in this package run along radial segments [0, z], so the
integrand is a function of a real parameter. Panels are compared at two
Gauss-Legendre orders and bisected until the local error estimate meets
an absolute tolerance; the recursion depth is capped.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureFailureError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_DEPTH = 60  # bisection depth at which a failing panel raises


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached per order."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int) -> complex:
    x, w = gauss_legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * complex(np.sum(w * f(mid + half * x)))


def adaptive_gauss(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> complex:
    """Integrate a vectorized complex integrand over the real interval [a, b].

    The error estimate on each panel is |GL(20) - GL(10)|; panels failing
    a depth-scaled share of `tol` are bisected. Raises
    QuadratureFailureError if any panel reaches depth 60 still failing.
    """

    def recurse(lo: float, hi: float, depth: int) -> complex:
        coarse = _panel(f, lo, hi, 10)
        fine = _panel(f, lo, hi, 20)
        if abs(fine - coarse) <= tol * max(1.0, 0.5 ** depth):
            return fine
        if depth >= _MAX_DEPTH:
            raise QuadratureFailureError(
                f"panel [{lo}, {hi}] failed tolerance {tol} at depth {depth}"
            )
        mid = 0.5 * (lo + hi)
        return recurse(lo, mid, depth + 1) + recurse(mid, hi, depth + 1)

    if a == b:
        return 0.0 + 0.0j
    return recurse(float(a), float(b), 0)
