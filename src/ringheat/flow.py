"""Exact flow branch of the expanding ring: kinematics, stresses, conservation laws.

The branch has constant scaled radial flux Psi = Phi/nu = 4, so u = 4*nu/r,
v = 4*nu0/r, both squared radii grow as 8*nu*t, and the scaled inner radius
xi(tau) = R2^2(t)/R20^2 = 8*tau + 1.  The scaled azimuthal field is
omega = 4*eps/(xi + eta).  All stresses below are kinematic (divided by
density).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .core import PhysicalParams, ValidationError
from .dualnum import sqrt, value

__all__ = [
    "PSI",
    "xi",
    "exact_omega",
    "FlowState",
    "RingGeometry",
    "radii",
    "velocities",
    "pressure",
    "stress_components",
    "shear_stress_variants",
    "angular_momentum",
    "angular_momentum_integral",
]

#: Scaled radial flux of the exact branch (Phi = 4*nu).
PSI = 4.0


def xi(tau):
    """Scaled squared inner radius xi(tau) = 8*tau + 1 (d(xi)/d(tau) = 2*Psi)."""
    return 8.0 * tau + 1.0


def exact_omega(tau, eta, eps):
    """Scaled azimuthal velocity omega = 4*eps/(xi(tau) + eta)."""
    s = xi(tau) + eta
    if np.any(value(s) <= 0):
        raise ValidationError("xi(tau) + eta must be > 0")
    return 4.0 * eps / s


@dataclass(frozen=True)
class FlowState:
    """The exact branch as an object: Psi is pinned to 4."""

    eps: float
    Psi: float = PSI

    def __post_init__(self):
        if self.Psi != PSI:
            raise ValidationError(f"Psi must equal {PSI} on the exact branch")

    def omega(self, tau, eta):
        return exact_omega(tau, eta, self.eps)


@dataclass(frozen=True)
class RingGeometry:
    """Moving free boundaries; R1^2 - R2^2 is conserved exactly."""

    phys: PhysicalParams

    def R2(self, t):
        return sqrt(8.0 * self.phys.nu * t + self.phys.R20 ** 2)

    def R1(self, t):
        return sqrt(8.0 * self.phys.nu * t + self.phys.R10 ** 2)


def radii(t, phys: PhysicalParams):
    """(R1(t), R2(t)) with R_i^2(t) = 8*nu*t + R_i0^2."""
    geom = RingGeometry(phys)
    return geom.R1(t), geom.R2(t)


def velocities(r, nu, nu0):
    """(radial, azimuthal) velocity at radius r: (4*nu/r, 4*nu0/r)."""
    if np.any(np.asarray(r) <= 0):
        raise ValidationError("r must be > 0")
    return 4.0 * nu / r, 4.0 * nu0 / r


def pressure(r, nu, nu0, p_inf=0.0):
    """Kinematic pressure p(r) = p_inf - 8*(nu^2 + nu0^2)/r^2.

    Closed form of the radial momentum balance on the exact branch,
    dp/dr = Phi^2/r^3 + v^2/r with Phi = 4*nu and v = 4*nu0/r, integrated
    inward from r -> infinity where p -> p_inf.
    """
    return p_inf - 8.0 * (nu * nu + nu0 * nu0) / (r * r)


def stress_components(r, t, phys: PhysicalParams, p_inf=None):
    """(T_rr, T_rtheta) on the exact branch, kinematic units.

    T_rr     = -(p + 2*nu*Phi/r^2) + nu0*(dv/dr - v/r)
    T_rtheta =  nu*(dv/dr - v/r) + 2*nu0*Phi/r^2

    Both vanish identically when p_inf = 0, which is the stress-free
    free-boundary condition; t enters only through the boundary positions,
    not the stress values themselves.
    """
    if np.any(np.asarray(r) <= 0):
        raise ValidationError("r must be > 0")
    if p_inf is None:
        p_inf = phys.p_inf
    nu, nu0 = phys.nu, phys.nu0
    phi = 4.0 * nu
    shear = -8.0 * nu0 / (r * r)  # dv/dr - v/r for v = 4*nu0/r
    t_rr = -(pressure(r, nu, nu0, p_inf) + 2.0 * nu * phi / (r * r)) + nu0 * shear
    t_rtheta = nu * shear + 2.0 * nu0 * phi / (r * r)
    return t_rr, t_rtheta


def shear_stress_variants(r, phys: PhysicalParams):
    """Both circulating sign conventions for the shear-stress condition.

    Returns (plus_form, minus_form) of nu*(dv/dr - v/r) ± 2*nu0*Phi/r^2.
    Only the '+' form vanishes on the exact branch, so it is the canonical
    one used by `stress_components`; the '-' form is reported for
    diagnostic comparison.
    """
    if np.any(np.asarray(r) <= 0):
        raise ValidationError("r must be > 0")
    nu, nu0 = phys.nu, phys.nu0
    phi = 4.0 * nu
    shear = -8.0 * nu0 / (r * r)
    return nu * shear + 2.0 * nu0 * phi / (r * r), nu * shear - 2.0 * nu0 * phi / (r * r)


def angular_momentum(t, phys: PhysicalParams) -> float:
    """Closed form of the angular-momentum integral: 2*nu0*(R10^2 - R20^2).

    Integral of r^2 * v(r) across the ring; independent of t because the
    ring area is conserved.
    """
    if np.any(np.asarray(t) < 0):
        raise ValidationError("t must be >= 0")
    return 2.0 * phys.nu0 * (phys.R10 ** 2 - phys.R20 ** 2)


def angular_momentum_integral(t, phys: PhysicalParams) -> float:
    """Adaptive quadrature of r^2 * v(r) over [R2(t), R1(t)].

    Independent evaluation path for the conservation check; agrees with
    `angular_momentum` to the quadrature tolerance (1e-12 absolute).
    """
    r1, r2 = radii(t, phys)
    nu0 = phys.nu0
    val, _ = quad(lambda r: r * r * (4.0 * nu0 / r), r2, r1,
                  epsabs=1e-12, epsrel=1e-12)
    return val
