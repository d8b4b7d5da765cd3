"""Sector containment calculus.

A power of the base map takes its values in a tilted sector once the
moduli of the coefficients are known.  The helpers here compute sector
half-angles and tilts, assemble the parameter bundles used by the
containment statements, and give in closed form the sharp weighting
constant of a weighted average.
"""

import cmath
import math

from janowski import (
    alpha_nesting,
    derivative_sector_params,
    double_subordination_tilt,
    eta_infimum,
    ratio_sector_params,
    reciprocal_order_sector,
    sector_image,
    tilt_angle,
    weighted_sector_params,
)


def main() -> None:
    # The alpha-th power of a map with coefficient moduli bounded by m
    # lands in a sector of half-angle alpha * asin(m), here for m = 1/2.
    s = sector_image(0.5, 0.5)
    print(f"sector for alpha = 0.5, m = 0.5: [{s.lo:+.9f}, {s.hi:+.9f}]"
          f" (half-plane tilt {s.half_plane_tilt:+.9f})")

    # tilt_angle measures how an off-center coefficient rotates the sector.
    print(f"tilt for b = 0.6, m = 0.3: {tilt_angle(0.6, 0.3):+.9f}")

    # Nesting of powered images in the order parameter: smaller order
    # means a bigger class, so the sector only grows.
    print(f"alpha-nesting (a1=0.2 into a2=0.5)? "
          f"{alpha_nesting(1.0, -1.0, 0.2, 0.5)}")

    # Parameter bundles for the three containment flavors.
    ratio = ratio_sector_params(0.5, 0.4, 1.0, 0.1)
    print(f"\nratio bundle:     mu = {ratio.mu:.9f}, a_mag = {ratio.a_mag:.9f}")

    deriv, rad = derivative_sector_params(0.5, 0.4)
    print(f"derivative bundle: mu = {deriv.mu:.9f}, valid radius = {rad:.9f}")

    weighted = weighted_sector_params(0.5, 1.0, 0.25, 0.4, 1.0)
    print(f"weighted bundle:   mu1 = {weighted.mu1:.9f}, mu2 = {weighted.mu2:.9f}")

    # The sharp eta for a weight lambda = a + c z is an infimum over the disk
    # of beta Re(lambda) / (1 + beta |Im lambda|); for constant weights it
    # collapses to a one-line formula.
    const = eta_infimum(1.0, 0.0, 2.0)
    skew = eta_infimum(1.0 + 0.5j, 0.0, 2.0)
    print(f"\neta for weight 1:        {const:.9f} (expect 2.0)")
    print(f"eta for weight 1 + 0.5j: {skew:.9f} (expect 2/(1+1) = 1.0)")

    # An affine weight sweeps the disk |lambda - 1| <= 0.4. On Im lambda >= 0
    # the quotient is cot arg(lambda + i/beta), least at the tangent point
    # T = 1 + 0.4i e^{i phi}, phi = arg(1 + i) + asin(0.4 / sqrt 2), seen from
    # the pole -i (beta = 1); the lower half is its mirror image.
    phi = math.atan2(1.0, 1.0) + math.asin(0.4 / math.sqrt(2.0))
    tangent = 1.0 + 0.4j * cmath.exp(1j * phi)
    affine = eta_infimum(1.0, 0.4, 1.0)
    print(f"eta for weight 1 + 0.4z: {affine:.9f} (tangent point {tangent.real:.6f}"
          f"{tangent.imag:+.6f}i gives {tangent.real / (1.0 + tangent.imag):.9f})")

    # Reciprocal order: how far the sector of 1/h reaches for given order
    # (only defined up to beta = 1 - alpha).
    print(f"reciprocal order sector (alpha=0.5, beta=0.4):"
          f" {reciprocal_order_sector(0.5, 0.4):.9f}")

    # Chaining two subordinations tilts the sector twice; the report says
    # whether the combined tilt still fits inside alpha * pi / 2.
    rep = double_subordination_tilt(0.6, 0.2, 0.5, 0.1, 0.4, -0.2, 1.0)
    print(f"\ndouble tilt: mu = {rep.mu:.9f}, gamma = {rep.gamma:.9f},"
          f" holds = {rep.holds} (slack {-rep.excess:.9f})")

    # Push the moduli to 1 and each half-tilt saturates at pi/2, so the
    # combined tilt overflows the sector; the report says by how much.
    rep = double_subordination_tilt(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0)
    print(f"overflow case: holds = {rep.holds}, excess = {rep.excess:.9f}"
          f" (= pi - pi/2 = {math.pi / 2.0:.9f})")


if __name__ == "__main__":
    main()
