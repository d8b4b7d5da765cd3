"""First-order disk geometry of the map w(z) = (1 + A z) / (1 + B z).

For complex A != B with |B| <= 1 the map sends the circle |z| = r onto a
circle whenever |B| r < 1, and onto a line when |B| r = 1 (the circle
then passes through the pole). Solving |w - 1|^2 = r^2 |A - B w|^2 for w
gives the image circle in closed form:

    center  C(r) = (1 - A conj(B) r^2) / (1 - |B|^2 r^2)
    radius  R(r) = |A - B| r / (1 - |B|^2 r^2)

and, in the degenerate case |B| r = 1, the boundary line

    Re(conj(q) w) = (1 - |A|^2 r^2) / 2,   q = 1 - A conj(B) r^2,

with the image half-plane on the side of q. Everything downstream
(powered envelopes, radius formulas, the sampling oracle) consumes this
geometry, so the invariants here are checked aggressively: boundary
points of |z| = r must land on the reported circle to near machine
precision.

The tilt of the image is the angle tau(r) = arg C(r), computed with the
two-argument arctangent so every quadrant is handled, and the half-angle
subtended at the origin is zeta(r) = asin(|A - B| r / |1 - A conj(B) r^2|),
defined whenever the origin is not interior to the image.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    SCALAR,
    NumericalError,
    OutOfRangeError,
    PoleOnBoundaryError,
    require_finite,
    require_finite_args,
    require_map,
    require_points,
    require_range,
)

_EPS = 1e-12


@dataclass(frozen=True)
class JanowskiParams:
    """Parameters of the powered, shifted map (1-gamma)((1+Az)/(1+Bz))^alpha + gamma.

    alpha is the power in (0, 1] and gamma != 1 the affine shift; the
    plain first-order map is alpha = 1, gamma = 0. Construction validates
    A != B and |B| <= 1 as `require_map` does, with absolute margins of
    1e-12: |A - B| <= 1e-12 raises DegenerateMapError at any scale, so
    (1e-13, 0) does, although that map is not constant. `argument_safe`, set at construction, reports
    whether the origin stays out of the open first-order image of the unit
    disk (|A - B| <= |1 - A conj(B)|), the condition under which powers and
    arguments of the map are single-valued. Every field must be finite.
    """

    A: complex
    B: complex
    alpha: float = 1.0
    gamma: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "A", complex(self.A))
        object.__setattr__(self, "B", complex(self.B))
        object.__setattr__(self, "gamma", complex(self.gamma))
        require_finite(self)
        # math.hypot, not abs(): abs raises OverflowError for huge finite parts
        if math.hypot((self.A - self.B).real, (self.A - self.B).imag) == math.inf:
            raise OutOfRangeError("|A - B| overflows a double")
        require_map(self.A, self.B, self.alpha, self.gamma)
        # an attribute, not a field: repr, equality, hashing and asdict see the
        # four parameters only. Not functools.cached_property: on CPython 3.11
        # its write through __dict__ makes every later attribute read of the
        # instance about three times slower.
        safe = abs(self.A - self.B) <= abs(1.0 - self.A * self.B.conjugate()) + _EPS
        object.__setattr__(self, "argument_safe", safe)


@dataclass(frozen=True)
class DiskGeometry:
    """Image of |z| = r: a disk (center/radius) or a half-plane.

    Half-planes are stored as {w : Re(conj(normal) w) > offset} with a
    unit normal pointing into the region. `tau` is the tilt angle of the
    geometry and `zeta` the half-angle it subtends at the origin (None when
    the origin is interior, where no tangent rays exist).
    """

    kind: str  # "disk" or "half-plane"
    center: complex | None = None
    radius: float | None = None
    normal: complex | None = None
    offset: float | None = None
    tau: float = 0.0
    zeta: float | None = None

    @property
    def is_disk(self) -> bool:
        return self.kind == "disk"


@dataclass(frozen=True)
class CanonicalParams:
    """Rotated parameters (A', b) with the same image geometry and B' = -b real."""

    a_prime: complex
    b: float


def _points(name: str, z) -> tuple:
    """(z, its largest modulus from `require_points`, whether z is a SCALAR):
    a scalar as a Python complex, else a complex array, the one use of numpy here."""
    if scalar := isinstance(z, SCALAR):
        z = complex(z)
    else:
        import numpy as np

        z = np.asarray(z, dtype=complex)
    return z, require_points(name, z), scalar


def _quotient(p: JanowskiParams, z, radius: float, scalar: bool):
    """(1 + A z) / (1 + B z) at the points of `_points`, in Python complex for a
    scalar, else in numpy. A point within 1e-14 of the pole -1/B raises; as
    |1 + B z| >= 1 - |B| |z|, it is sought only where |B| max|z| >= 1 - 1e-14.
    A quotient past the largest double raises NumericalError."""
    denom = 1.0 + p.B * z
    if abs(p.B) * radius >= 1.0 - 1e-14 and (abs(denom) if scalar else abs(denom).min()) < 1e-14:
        raise PoleOnBoundaryError("z hits the pole of the first-order map")
    w = (1.0 + p.A * z) / denom
    if not (cmath.isfinite(w) if scalar else abs(w).max() < math.inf):  # max propagates NaN
        raise NumericalError("(1 + A z) / (1 + B z) overflows a double")
    return w


def eval_map(p: JanowskiParams, z):
    """First-order value (1 + A z) / (1 + B z) at a scalar or non-empty array z of finite
    points. A Python or numpy float or complex z gives a Python complex within 16 eps
    (max(1, |w|) + kappa |w|), kappa = |Az|/|1 + Az| + |Bz|/|1 + Bz|, of the array path."""
    z, radius, scalar = _points("z", z)
    w = _quotient(p, z, radius, scalar)
    return w if scalar or w.ndim else complex(w)


def image_disk(p: JanowskiParams, r: float) -> DiskGeometry:
    """Closed-form image of the circle |z| = r under the first-order map."""
    require_range("r", r, "(0, 1]")
    A, B = p.A, p.B
    q = 1.0 - A * B.conjugate() * r * r
    denom = 1.0 - abs(B) ** 2 * r * r
    if denom <= _EPS:
        # Circle through the pole, or past it by the 1e-12 that require_map admits: the image
        # degenerates to the line Re(conj(q) w) = (1 - |A|^2 r^2) / 2. q = 0 would need A = B.
        # (1 - a)(1 + a) / |q| with a = |A| r, divided first: a^2 overflows
        # a double for huge |A|, the offset does not
        a, normal = abs(A) * r, q / abs(q)
        offset = 0.5 * (1.0 - a) * ((1.0 + a) / abs(q))
        zeta = 0.5 * math.pi if offset >= -_EPS else None
        return DiskGeometry(
            kind="half-plane",
            normal=normal,
            offset=offset,
            tau=cmath.phase(q),
            zeta=zeta,
        )
    center = q / denom
    radius = abs(A - B) * r / denom
    if not (cmath.isfinite(center) and math.isfinite(radius)):
        raise NumericalError(f"the image disk of |z| = {r} overflows a double")
    zeta: float | None
    if radius <= abs(center) + _EPS:
        zeta = math.asin(min(1.0, radius / abs(center)))
    else:
        zeta = None
    return DiskGeometry(
        kind="disk",
        center=center,
        radius=radius,
        tau=cmath.phase(q),
        zeta=zeta,
    )


def origin_position(p: JanowskiParams) -> str:
    """Position of w = 0 relative to the image of the unit circle.

    Exterior iff |A| < 1, boundary iff |A| = 1, interior iff |A| > 1;
    the same criterion covers the half-plane case |B| = 1.
    """
    a = abs(p.A)
    if a < 1.0 - _EPS:
        return "exterior"
    if a > 1.0 + _EPS:
        return "interior"
    return "boundary"


def canonicalize(p: JanowskiParams) -> CanonicalParams:
    """Rotate (A, B) to the normal form (A', -b) with b = |B| >= 0.

    The image circle depends on A conj(B) and |A - B| only, so rotating
    both parameters by the phase that carries B to -|B| leaves C(r) and
    R(r) unchanged: A' = A exp(-i (arg B - pi)). B = 0 needs no rotation.
    """
    if p.B == 0:
        return CanonicalParams(a_prime=p.A, b=0.0)
    phase = cmath.phase(p.B) - math.pi
    return CanonicalParams(a_prime=p.A * cmath.exp(-1j * phase), b=abs(p.B))


def contains(outer: DiskGeometry, inner: DiskGeometry, tol: float = 1e-12) -> bool:
    """Whether the closed region `inner` sits inside the closed region `outer`.

    Disk in disk reduces to |C1 - C2| + R1 <= R2; disk in half-plane to a
    signed-distance test; half-plane in half-plane to equal normals with
    the inner boundary at least as deep. A half-plane never fits in a disk.
    """
    require_finite_args("contains", tol=tol)
    if inner.is_disk and outer.is_disk:
        return abs(inner.center - outer.center) + inner.radius <= outer.radius + tol
    if inner.is_disk and not outer.is_disk:
        depth = (outer.normal.conjugate() * inner.center).real - outer.offset
        return depth >= inner.radius - tol
    if not inner.is_disk and not outer.is_disk:
        if abs(inner.normal - outer.normal) > 1e-9:
            return False
        return inner.offset >= outer.offset - tol
    return False
