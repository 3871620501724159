"""Exact flow branch of the expanding ring: kinematics, stresses, conservation laws.

The branch has constant scaled radial flux Psi = Phi/nu = 4, so u = 4*nu/r,
v = 4*nu0/r, both squared radii grow as 8*nu*t, and the scaled inner radius
xi(tau) = R2^2(t)/R20^2 = 8*tau + 1.  The scaled azimuthal field is
omega = 4*eps/(xi + eta).  All stresses below are kinematic (divided by
density).

`quad` is the package's one quadrature, a fixed Gauss-Legendre rule that
`angular_momentum_integral` and `verification.flow_residuals` share.
"""

from __future__ import annotations

import functools

from .core import PhysicalParams, _require_domain
from .dualnum import sqrt

__all__ = [
    "PSI",
    "xi",
    "exact_omega",
    "radii",
    "velocities",
    "pressure",
    "stress_components",
    "angular_momentum",
    "angular_momentum_integral",
    "quad",
]

#: Scaled radial flux of the exact branch (Phi = 4*nu).
PSI = 4.0


@functools.cache
def _leggauss(n: int):
    # imported here, not with the module: solve, profile and convergence
    # never integrate and need not load numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    return leggauss(n)


def quad(f, lo: float, hi: float, n: int):
    """n-node Gauss-Legendre rule for the integral of f over [lo, hi].

    f gets the (n,) vector of nodes in one call and returns its values
    with the nodes on axis 0, so a (n, m) result integrates m functions at
    once.  Exact to rounding for polynomials of degree <= 2n - 1.
    """
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return half * (w @ f(half * x + 0.5 * (hi + lo)))


def xi(tau):
    """Scaled squared inner radius xi(tau) = 8*tau + 1 (d(xi)/d(tau) = 2*Psi)."""
    return 8.0 * tau + 1.0


def exact_omega(tau, eta, eps):
    """Scaled azimuthal velocity omega = 4*eps/(xi(tau) + eta)."""
    s = xi(tau) + eta
    _require_domain(s, "xi(tau) + eta must be > 0")
    return 4.0 * eps / s


def radii(t, phys: PhysicalParams):
    """(R1(t), R2(t)) with R_i^2(t) = 8*nu*t + R_i0^2; R1^2 - R2^2 is conserved."""
    return sqrt(8.0 * phys.nu * t + phys.R10 ** 2), sqrt(8.0 * phys.nu * t + phys.R20 ** 2)


def velocities(r, nu, nu0):
    """(radial, azimuthal) velocity at radius r: (4*nu/r, 4*nu0/r)."""
    _require_domain(r, "r must be > 0")
    return 4.0 * nu / r, 4.0 * nu0 / r


def pressure(r, nu, nu0):
    """Kinematic pressure p(r) = -8*(nu^2 + nu0^2)/r^2.

    Closed form of the radial momentum balance on the exact branch,
    dp/dr = Phi^2/r^3 + v^2/r with Phi = 4*nu and v = 4*nu0/r, integrated
    inward from r -> infinity where p -> 0: the far-field pressure that
    leaves both free boundaries stress free.
    """
    return -8.0 * (nu * nu + nu0 * nu0) / (r * r)


def stress_components(r, t, phys: PhysicalParams):
    """(T_rr, T_rtheta) on the exact branch, kinematic units.

    T_rr     = -(p + 2*nu*Phi/r^2) + nu0*(dv/dr - v/r)
    T_rtheta =  nu*(dv/dr - v/r) + 2*nu0*Phi/r^2

    Both vanish identically, which is the stress-free free-boundary
    condition; t enters only through the boundary positions, not the
    stress values themselves.
    """
    _require_domain(r, "r must be > 0")
    nu, nu0 = phys.nu, phys.nu0
    phi = 4.0 * nu
    shear = -8.0 * nu0 / (r * r)  # dv/dr - v/r for v = 4*nu0/r
    t_rr = -(pressure(r, nu, nu0) + 2.0 * nu * phi / (r * r)) + nu0 * shear
    t_rtheta = nu * shear + 2.0 * nu0 * phi / (r * r)
    return t_rr, t_rtheta


def angular_momentum(t, phys: PhysicalParams) -> float:
    """Closed form of the angular-momentum integral: 2*nu0*(R10^2 - R20^2).

    Integral of r^2 * v(r) across the ring; independent of t because the
    ring area is conserved.
    """
    _require_domain(t, "t must be >= 0", allow_zero=True)
    return 2.0 * phys.nu0 * (phys.R10 ** 2 - phys.R20 ** 2)


def angular_momentum_integral(t, phys: PhysicalParams) -> float:
    """Quadrature of r^2 * v(r) over [R2(t), R1(t)].

    Independent evaluation path for the conservation check.  The integrand
    4*nu0*r is linear, so the 4-node rule is exact and the result agrees
    with `angular_momentum` to rounding.
    """
    r1, r2 = radii(t, phys)
    nu0 = phys.nu0
    return float(quad(lambda r: r * r * (4.0 * nu0 / r), r2, r1, 4))
