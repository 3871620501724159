"""Parameters, solution constants, and the (t, r) <-> (tau, eta) coordinate maps.

A ring R2(t) < r < R1(t) of incompressible liquid with dissipative viscosity
mu and nondissipative viscosity mu0 expands by inertia with both boundaries
stress free.  Both squared radii grow linearly, R_i^2(t) = 8*nu*t + R_i0^2,
so in the reduced variables

    tau = nu*t/R20^2,    eta = (r^2 - R2^2(t))/R20^2,

the inner boundary sits at eta = 0 and the outer at eta = a for all time,
and the moving-boundary heat problem becomes a fixed-domain one.  The
identity 8*tau + eta + 1 = r^2/R20^2 holds pointwise.

`_require_domain` is the package's one domain guard of closed-form
arguments, for floats, numpy arrays and Duals over either.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .dualnum import sqrt, value

__all__ = [
    "ValidationError",
    "PhysicalParams",
    "ReducedParams",
    "SolutionConstants",
    "ReferenceCase",
    "C5_MIN",
    "C5_ABS_MAX",
    "EPS_SCALE_MAX",
    "RING_SLACK",
    "reduce_params",
    "to_reduced",
    "from_reduced",
    "reference_case_K",
    "unit_embedding",
]

#: Smallest C5 keeping the reference-case temperature nonnegative.
C5_MIN = 5.0 / 3.0

#: Largest |C5| and largest source numerator 16*(1 + eps^2) the records take:
#: past them the symmetry checks' products (|C5| ~ 1e307) and verify's
#: tau-derivatives of the source (|eps| ~ 6e150 in the reference case) overflow.
C5_ABS_MAX = 1e300

#: Largest eps^2 * (B + 8A)^3 a ReducedParams takes: verify's nested
#: derivative pass of theta_simple, 16*(1 + eps^2)/(s*(B + 8A)), overflows
#: from ~6.9e304 on (bisected in eps for A and B over [0.01, 1000] on a log
#: grid, with numpy's warnings as errors).  The reference case, B + 8A = 12,
#: meets C5_ABS_MAX's eps bound first.
EPS_SCALE_MAX = 1e304

#: How far a reduced eta may lie outside [0, a] and still count as inside
#: the ring: `to_reduced` of a wall point rounds to within ~1e-14 of it.
RING_SLACK = 1e-12


class ValidationError(ValueError):
    """An input was rejected; the message names the field.  The package's one
    error for bad input: the CLI exits 2 on it, and 1 only on a failed check
    or a diverged march (`solver.DivergenceError`)."""


def _require(cond, field, msg):
    if not cond:
        raise ValidationError(f"{field} {msg}")


def _require_domain(x, message, *fmt, allow_zero=False):
    """Raise ValidationError(message.format(*fmt)) where the value part of x
    (a float, an array or a Dual over either) is <= 0, or < 0 with
    allow_zero; NaN passes."""
    v = value(x)
    if isinstance(v, float):  # np.float64 too: np.any would dominate a scalar trace call
        bad = v < 0.0 if allow_zero else v <= 0.0
    else:
        v = np.asarray(v)
        bad = (v < 0.0 if allow_zero else v <= 0.0).any()
    if bad:
        raise ValidationError(message.format(*fmt))


def _require_finite(record):
    """Require every field of the dataclass record to be finite, naming the first that is not."""
    for f in fields(record):
        _require(math.isfinite(getattr(record, f.name)), f.name, "must be a finite number")


def _require_C3(C3):
    _require(C3 > 0, "C3", "must be > 0")
    # verify's tau-derivatives square the closed forms' (tau + C3) ** 3
    cube = C3 * C3 * C3
    _require(math.isfinite(cube * cube), "C3",
             f"must keep (C3^3)^2 finite (C3 < ~2.37e51), got {C3!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional inputs defining the ring problem.

    The kinematic viscosities nu = mu/rho and nu0 = mu0/rho are derived
    properties, so those ratios hold exactly by construction.  mu0 (the
    nondissipative viscosity) may take any sign.
    """

    rho: float
    Cp: float
    k_cond: float
    mu: float
    mu0: float
    T0: float
    R10: float
    R20: float

    def __post_init__(self):
        _require_finite(self)
        _require(self.rho > 0, "rho", "must be > 0")
        _require(self.Cp > 0, "Cp", "must be > 0")
        _require(self.k_cond > 0, "k_cond", "must be > 0")
        _require(self.mu > 0, "mu", "must be > 0")
        _require(self.T0 > 0, "T0", "must be > 0")
        _require(self.R20 > 0, "R20", "must be > 0")
        _require(self.R10 > self.R20, "R10", f"must exceed R20 (got {self.R10} <= {self.R20})")

    @property
    def nu(self) -> float:
        return self.mu / self.rho

    @property
    def nu0(self) -> float:
        return self.mu0 / self.rho


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless groups controlling the reduced temperature equation.

    A scales the time derivative, B the conduction term, eps = nu0/nu enters
    the dissipative source through 1 + eps^2, and a = R10^2/R20^2 - 1 is the
    domain length in eta, which must be > 0 because a ring has R10 > R20.
    """

    A: float
    B: float
    eps: float
    a: float

    def __post_init__(self):
        _require_finite(self)
        _require(16.0 * (1.0 + self.eps * self.eps) <= C5_ABS_MAX, "eps",
                 f"must keep 16*(1 + eps^2) at most {C5_ABS_MAX:g} (|eps| < ~2.5e149), "
                 f"got {self.eps!r}")
        _require(self.A > 0, "A", "must be > 0")
        _require(self.B > 0, "B", "must be > 0")
        _require(self.a > 0, "a", "must be > 0")
        # in logs, so that neither eps^2 nor the cube overflows on the way
        scale = self.B + 8.0 * self.A
        _require(self.eps == 0.0 or 2.0 * math.log(abs(self.eps)) + 3.0 * math.log(scale)
                 <= math.log(EPS_SCALE_MAX), "eps",
                 f"must keep eps^2*(B + 8A)^3 at most {EPS_SCALE_MAX:g}, got eps = "
                 f"{self.eps!r} with B + 8A = {scale!r}")


@dataclass(frozen=True)
class SolutionConstants:
    """Free constants of the general invariant temperature solution.

    C3 > 0 keeps the group trajectory tau + C3 positive for every tau >= 0.
    C5/2 is the level every solution relaxes to as tau -> infinity, |C5| at
    most `C5_ABS_MAX`, and K scales the decaying exponential mode.
    """

    C3: float
    C5: float
    K: float

    def __post_init__(self):
        _require_finite(self)
        _require_C3(self.C3)
        _require(abs(self.C5) <= C5_ABS_MAX, "C5",
                 f"must be at most {C5_ABS_MAX:g} in magnitude, got {self.C5!r}")


@dataclass(frozen=True)
class ReferenceCase:
    """The worked constants tuple with equal boundary temperatures at tau = 0.

    K is the exact rational -5/(6^2 * 8^3) = -5/18432, the unique amplitude
    for which the boundary temperature difference vanishes given the other
    constants (see `reference_case_K`).  C5 = 5/3 is the smallest value
    keeping the temperature nonnegative and the default of the one field;
    the other six values are fixed.
    """

    C5: float = C5_MIN
    A: ClassVar[float] = 0.75
    B: ClassVar[float] = 6.0
    eps: ClassVar[float] = 0.5
    a: ClassVar[float] = 1.0
    C3: ClassVar[float] = 0.125
    K: ClassVar[float] = -5.0 / 18432.0

    @property
    def params(self) -> ReducedParams:
        return ReducedParams(A=self.A, B=self.B, eps=self.eps, a=self.a)

    @property
    def consts(self) -> SolutionConstants:
        return SolutionConstants(C3=self.C3, C5=self.C5, K=self.K)

    def matches(self, params: ReducedParams, consts: SolutionConstants) -> bool:
        """Whether (A, B, eps, a, C3, K) are this case's, to 1e-12 relative.

        C5 is free: every level has the compact closed form.  A K derived
        from `temperature.k_for_equal_boundaries` is within 2e-16 relative
        of -5/18432, so the default constants match.
        """
        pairs = ((params.A, self.A), (params.B, self.B), (params.eps, self.eps),
                 (params.a, self.a), (consts.C3, self.C3), (consts.K, self.K))
        return all(math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-15) for x, y in pairs)


def reduce_params(phys: PhysicalParams) -> ReducedParams:
    """Dimensionless groups from dimensional inputs.

    A = rho*Cp*R20^2*T0 / (4*mu^2),  B = k*R20^2*T0 / (4*mu^3),
    eps = nu0/nu,  a = R10^2/R20^2 - 1.  A float power or quotient outside
    the double range raises ValidationError.
    """
    try:
        A = phys.rho * phys.Cp * phys.R20 ** 2 * phys.T0 / (4.0 * phys.mu ** 2)
        B = phys.k_cond * phys.R20 ** 2 * phys.T0 / (4.0 * phys.mu ** 3)
        eps = phys.nu0 / phys.nu
        a = phys.R10 ** 2 / phys.R20 ** 2 - 1.0
    except (OverflowError, ZeroDivisionError) as e:
        # a float power past the double range raises; one below it gives 0
        raise ValidationError("physical parameters take a reduced group out of the "
                              f"float range: {e}") from e
    return ReducedParams(A=A, B=B, eps=eps, a=a)


def to_reduced(t, r, phys: PhysicalParams):
    """(t, r) -> (tau, eta).  Warns (but still evaluates) outside the ring."""
    _require_domain(t, "t must be >= 0", allow_zero=True)
    R20sq = phys.R20 ** 2
    tau = phys.nu * t / R20sq
    r2sq = 8.0 * phys.nu * t + R20sq
    eta = (r * r - r2sq) / R20sq
    a = phys.R10 ** 2 / R20sq - 1.0
    v = value(eta)  # a Dual t or r is judged by its value part
    if np.any(v < -RING_SLACK) or np.any(v > a + RING_SLACK):
        warnings.warn("r outside the ring [R2(t), R1(t)]; evaluation continues",
                      RuntimeWarning, stacklevel=2)
    return tau, eta


def from_reduced(tau, eta, phys: PhysicalParams):
    """(tau, eta) -> (t, r): exact inverse of `to_reduced` on tau >= 0, eta >= -RING_SLACK.

    An eta that rounded below 0 at the inner wall maps back to its r, as
    `to_reduced` counts it inside the ring.
    """
    _require_domain(tau, "tau must be >= 0", allow_zero=True)
    _require_domain(value(eta) + RING_SLACK, "eta must be >= 0", allow_zero=True)
    R20sq = phys.R20 ** 2
    t = tau * R20sq / phys.nu
    r = phys.R20 * sqrt(8.0 * tau + eta + 1.0)
    return t, r


def reference_case_K(C3: float) -> float:
    """Zero-boundary-difference amplitude for A=3/4, B=6, eps=1/2, a=1.

    K(C3) = (10/9)*C3^4 / (4*(8*C3-1)*exp(1 - 1/(4*C3))
                           - (16*C3-1)*exp(1 - 1/(8*C3))).

    At C3 = 1/8 the first denominator term vanishes and the second
    exponential is exp(0), so K = -5/(6^2*8^3) = -5/18432 exactly.
    """
    _require_C3(C3)
    num = (10.0 / 9.0) * C3 ** 4
    den = (4.0 * (8.0 * C3 - 1.0) * math.exp(1.0 - 1.0 / (4.0 * C3))
           - (16.0 * C3 - 1.0) * math.exp(1.0 - 1.0 / (8.0 * C3)))
    if abs(den) <= 1e-14:
        raise ValidationError(
            f"denominator of the amplitude formula vanishes at C3={C3!r} (|den|={abs(den):.3e})")
    return num / den


def unit_embedding(params: ReducedParams) -> PhysicalParams:
    """A canonical dimensional realization of reduced parameters.

    Fixes rho = mu = R20 = T0 = 1 (so nu = 1) and solves the group definitions
    for the rest (a > 0 held by `ReducedParams`): Cp = 4A, k = 4B, mu0 = eps,
    R10 = sqrt(1+a).  `reduce_params` of the result reproduces `params` up to roundoff in a.
    """
    return PhysicalParams(rho=1.0, Cp=4.0 * params.A, k_cond=4.0 * params.B, mu=1.0,
                          mu0=params.eps, T0=1.0, R10=math.sqrt(1.0 + params.a), R20=1.0)
