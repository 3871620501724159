"""Closed-form temperature fields of the expanding ring and their boundary data.

Two families solve the reduced heat balance

    A*dTheta/dtau = B*d/deta((8*tau+eta+1)*dTheta/deta)
                    + 16*(1+eps^2)/(8*tau+eta+1)^2:

* a profile depending on (tau, eta) only through s = 8*tau + eta + 1,
      Theta = level - 16*(1+eps^2)/(s*(B+8A)),
* the general solution, adding to that (with level C5/2) a decaying mode of
  amplitude K built from P = tau + C3 and Q = 1 + eta - 8*C3.

The reference case A=3/4, B=6, eps=1/2, a=1, C3=1/8, K=-5/18432 makes both
boundary temperatures equal (zero, for C5 = 5/3) at tau = 0;
`theta_reference` is its compact closed form.  `published_flux_outer` keeps
the outer Neumann datum in its originally published form, which is
*inconsistent* with the exact solution (it lacks the exp(-1/(8*tau+1))
damping); the package quantifies that gap instead of silently fixing it.

All field functions accept floats, numpy arrays, or Dual numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    C5_MIN,
    PhysicalParams,
    ReducedParams,
    SolutionConstants,
    ValidationError,
    _require_C3,
    _require_domain,
    reduce_params,
)
from .dualnum import exp, log

__all__ = [
    "theta_simple",
    "theta_general",
    "require_finite_start",
    "theta_reference",
    "reference_flux",
    "published_flux_inner",
    "published_flux_outer",
    "initial_profile",
    "boundary_difference_C",
    "k_for_equal_boundaries",
    "dimensional_T",
    "c5_nonnegativity_bound",
    "NonnegativityReport",
    "BoundaryTraces",
]


def _pow(base, p):
    # non-integer exponent; base positive by the callers' domain guards
    return exp(p * log(base))


#: messages of the guards on s = 8*tau + eta + 1 and P = tau + C3
_S_DOMAIN = "8*tau + eta + 1 must be > 0"
_P_DOMAIN = "tau + C3 must be > 0 (C3={})"


def theta_simple(tau, eta, params: ReducedParams, level):
    """Invariant profile Theta = level - 16*(1+eps^2)/((8*tau+eta+1)*(B+8A)).

    `level` is the tau -> infinity value: it is C5 for the standalone family
    and C5/2 when this profile appears inside the general solution.
    """
    s = 8.0 * tau + eta + 1.0
    _require_domain(s, _S_DOMAIN)
    return level - 16.0 * (1.0 + params.eps ** 2) / (s * (params.B + 8.0 * params.A))


def theta_general(tau, eta, params: ReducedParams, consts: SolutionConstants):
    """General invariant solution.

    Theta = K * ((A*Q - B*P)/P^3) * exp(-A*Q/(B*P)) * (s/P)^(8A/B)
            + C5/2 - 16*(1+eps^2)/(s*(B+8A)),

    with P = tau + C3, Q = 1 + eta - 8*C3, s = 8*tau + eta + 1.  The power
    is evaluated as exp((8A/B)*log(s/P)) since 8A/B is non-integer in
    general.  Tends to C5/2 as tau -> infinity for every fixed eta.
    """
    A, B = params.A, params.B
    P = tau + consts.C3
    _require_domain(P, _P_DOMAIN, consts.C3)
    s = 8.0 * tau + eta + 1.0
    _require_domain(s, _S_DOMAIN)
    Q = 1.0 + eta - 8.0 * consts.C3
    mode = (consts.K * ((A * Q - B * P) / P ** 3)
            * exp(-A * Q / (B * P)) * _pow(s / P, 8.0 * A / B))
    return mode + 0.5 * consts.C5 - 16.0 * (1.0 + params.eps ** 2) / (s * (B + 8.0 * A))


def require_finite_start(eta, params: ReducedParams, consts: SolutionConstants):
    """ValidationError naming constants.K and constants.C3 unless theta_general(0, eta)
    is finite at every eta of the array, so a K near the float limit is an
    input error and not a run of inf and nan values."""
    with np.errstate(all="ignore"):  # numpy overflows to inf without raising
        bad = eta[~np.isfinite(theta_general(0.0, eta, params, consts))]
    if bad.size:
        raise ValidationError(f"constants.K = {consts.K!r} and constants.C3 = {consts.C3!r} "
                              f"overflow theta(0, eta) at eta = {float(bad[0])!r}")


def theta_reference(tau, eta, C5=C5_MIN):
    """Reference-case temperature (general solution at the worked constants).

    Theta = C5/2 - (5/6)*(2/s + ((eta^2 - c^2)/c^4)*exp(-eta/c)),
    c = 8*tau + 1, s = c + eta.  Vanishes at both boundaries at tau = 0
    when C5 = 5/3.
    """
    c = 8.0 * tau + 1.0
    s = c + eta
    _require_domain(s, _S_DOMAIN)
    return 0.5 * C5 - (5.0 / 6.0) * (2.0 / s + ((eta ** 2 - c ** 2) / c ** 4) * exp(-eta / c))


def reference_flux(tau, eta):
    """d(theta_reference)/d(eta): exact Neumann data for the reference case.

    Equals (5/3)/s^2 - (5/6)*exp(-eta/c)*(c^2 + 2*eta*c - eta^2)/c^5 and is
    independent of C5.
    """
    c = 8.0 * tau + 1.0
    s = c + eta
    return ((5.0 / 3.0) / s ** 2
            - (5.0 / 6.0) * exp(-eta / c) * (c ** 2 + 2.0 * eta * c - eta ** 2) / c ** 5)


def published_flux_inner(tau):
    """Inner-boundary (eta = 0) flux as originally published.

    5*(1 + 16*tau)/(6*(8*tau+1)^3); consistent with `reference_flux`.
    """
    c = 8.0 * tau + 1.0
    return 5.0 * (1.0 + 16.0 * tau) / (6.0 * c ** 3)


def published_flux_outer(tau):
    """Outer-boundary (eta = 1) flux as originally published.

    5/(3*(8*tau+2)^2) + (5/(6*(8*tau+2)^3)) * (1 - (8*tau+1)*(8*tau+3))/(8*tau+1)^2.

    Inconsistent with the exact solution: at tau = 0 it gives +5/24 where
    the true flux is 5/12 - (5/3)/e (opposite sign, gap ~ 0.405).  Kept
    verbatim so the inconsistency can be measured; see
    `verification.published_flux_discrepancy` and the solver's 'paper'
    boundary mode.
    """
    c = 8.0 * tau + 1.0
    return (5.0 / (3.0 * (c + 1.0) ** 2)
            + (5.0 / (6.0 * (c + 1.0) ** 3)) * ((1.0 - c * (c + 2.0)) / c ** 2))


def initial_profile(eta, C5=C5_MIN):
    """Reference-case temperature at tau = 0.

    Theta(0, eta) = C5/2 - (5/6)*((eta^2 - 1)*exp(-eta) + 2/(eta+1)); bit for
    bit theta_reference(0, eta, C5), which the solver starts from.  Kept as the
    independent oracle of `run_suite`'s `initial_profile_identity` check.
    """
    return 0.5 * C5 - (5.0 / 6.0) * ((eta ** 2 - 1.0) * exp(-eta) + 2.0 / (eta + 1.0))


def _trace(tau, eta, params: ReducedParams, consts: SolutionConstants):
    # theta at the wall coordinate eta (0 or a), transcribed apart from theta_general
    A, B = params.A, params.B
    P = tau + consts.C3
    _require_domain(P, _P_DOMAIN, consts.C3)
    q = 1.0 + eta - 8.0 * consts.C3
    s = 8.0 * tau + eta + 1.0
    return (consts.K * ((A * q - B * P) / P ** 3) * exp(-A * q / (B * P))
            * _pow(s / P, 8.0 * A / B)
            + 0.5 * consts.C5 - 16.0 * (1.0 + params.eps ** 2) / (s * (B + 8.0 * A)))


def _boundary_difference_terms(params: ReducedParams, C3: float):
    """(first, slope) with C = first + slope*K: the gap is affine in K."""
    A, B, eps, a = params.A, params.B, params.eps, params.a
    pw = 8.0 * A / B
    first = 16.0 * a * (1.0 + eps ** 2) / ((1.0 + a) * (8.0 * A + B))
    bracket = ((A * (1.0 + a - 8.0 * C3) - B * C3) * exp(-A * a / (B * C3))
               * _pow((1.0 + a) / C3, pw)
               - (A * (1.0 - 8.0 * C3) - B * C3) * _pow(1.0 / C3, pw))
    return first, exp(-A * (1.0 - 8.0 * C3) / (B * C3)) * bracket / C3 ** 3


def boundary_difference_C(params: ReducedParams, consts: SolutionConstants) -> float:
    """Closed form of C = Theta1(0) - Theta2(0), the initial wall-temperature gap.

    C = 16*a*(1+eps^2)/((1+a)*(8A+B))
        + (K/C3^3)*exp(-A*(1-8*C3)/(B*C3))
          * ((A*(1+a-8*C3) - B*C3)*exp(-A*a/(B*C3))*((1+a)/C3)^(8A/B)
             - (A*(1-8*C3) - B*C3)*(1/C3)^(8A/B)).
    """
    first, slope = _boundary_difference_terms(params, consts.C3)
    return first + consts.K * slope


def k_for_equal_boundaries(params: ReducedParams, C3: float) -> float:
    """Amplitude K making the wall temperatures coincide at tau = 0.

    Solves boundary_difference_C = 0 for K (the dependence is linear).  For
    the reference parameters this reproduces `core.reference_case_K`; at
    C3 = 1/8 it gives -5/18432.
    """
    _require_C3(C3)
    # an overflowing ((1 + a)/C3)^(8A/B), or a B*C3 that underflows to 0,
    # makes the slope NaN, and a subnormal slope makes K overflow: raised below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            first, slope = _boundary_difference_terms(params, C3)
        except ZeroDivisionError:
            first, slope = 0.0, math.nan
        K = -first / slope if slope else math.nan
    if not np.isfinite(K):
        raise ValidationError(
            f"equal-boundary condition is singular at C3={C3!r} (slope={float(slope)!r})")
    return float(K)


def dimensional_T(t, r, phys: PhysicalParams, consts: SolutionConstants):
    """Temperature in dimensional (t, r) variables.

    Transcription of the general solution pushed through the coordinate
    map; equals T0 * theta_general(to_reduced(t, r)) to roundoff.
    """
    _require_domain(t, "t must be >= 0", allow_zero=True)
    _require_domain(r, "r must be > 0")
    rp = reduce_params(phys)
    A, B, eps = rp.A, rp.B, rp.eps
    T0 = phys.T0
    R2sq = phys.R20 ** 2
    Pd = phys.nu * t + consts.C3 * R2sq
    _require_domain(Pd, "nu*t + C3*R20^2 must be > 0 (C3={})", consts.C3)
    pw = 8.0 * A / B
    mode = (T0 * consts.K
            * ((A * R2sq ** 2 * r ** 2 - (8.0 * A + B) * (phys.nu * R2sq ** 2 * t + consts.C3 * R2sq ** 3))
               / Pd ** 3)
            * exp(pw - A * r ** 2 / (B * Pd)) * _pow(r ** 2 / Pd, pw))
    return mode + 0.5 * consts.C5 * T0 - 16.0 * T0 * R2sq * (1.0 + eps ** 2) / (r ** 2 * (B + 8.0 * A))


class NonnegativityReport(NamedTuple):
    min_value: float
    argmin: tuple  # (tau, eta); (inf, nan) when the asymptotic level is the minimum


#: c5_nonnegativity_bound splits its 201 tau rows into
#: ceil(201 * 201 / _SCAN_BLOCK_ELEMS) near-equal blocks of
#: ceil(201 / blocks) rows, each evaluated over its 201 eta points, so it
#: holds no full-grid temporaries; a block may hold a little more than
#: _SCAN_BLOCK_ELEMS elements (8241 = 41 * 201 here, in 5 blocks)
_SCAN_BLOCK_ELEMS = 8192


def c5_nonnegativity_bound(params: ReducedParams,
                           consts: SolutionConstants) -> NonnegativityReport:
    """Scan theta_general for its minimum over the grid plus the tau->inf level.

    The grid is 201 x 201 uniform on [0, 10] x [0, a], dense enough to
    catch the tau = 0 boundary tangency of the reference case at
    C5 = 5/3.  The reduction is deterministic: first minimum in row-major
    (tau, eta) order wins, so ties break lexicographically, and the first
    NaN wins over any number, as np.argmin over the whole grid would give.
    """
    tau_grid = np.linspace(0.0, 10.0, 201)
    eta_grid = np.linspace(0.0, params.a, 201)
    blocks = -(-tau_grid.size * eta_grid.size // _SCAN_BLOCK_ELEMS)
    rows = -(-tau_grid.size // blocks)
    best, best_i, best_j = math.inf, 0, 0
    for start in range(0, tau_grid.size, rows):
        vals = theta_general(tau_grid[start:start + rows, None], eta_grid[None, :],
                             params, consts)
        i, j = divmod(int(np.argmin(vals)), eta_grid.size)
        v = float(vals[i, j])
        if v < best or start == 0 or math.isnan(v):
            best, best_i, best_j = v, start + i, j
            if math.isnan(v):
                break
    min_value, argmin = best, (float(tau_grid[best_i]), float(eta_grid[best_j]))
    level = 0.5 * consts.C5
    if level < min_value:
        min_value, argmin = level, (math.inf, math.nan)
    return NonnegativityReport(min_value, argmin)


@dataclass(frozen=True)
class BoundaryTraces:
    """Wall-temperature histories theta1 (eta = a) and theta2 (eta = 0).

    Both evaluate one trace expression, `_trace`, at their wall coordinate.
    It is transcribed apart from `theta_general` as an independent oracle:
    its restriction to the walls gives the same values, which `verify` and
    the test suite check.
    """

    params: ReducedParams
    consts: SolutionConstants

    def theta1(self, tau):
        return _trace(tau, self.params.a, self.params, self.consts)

    def theta2(self, tau):
        return _trace(tau, 0.0, self.params, self.consts)
