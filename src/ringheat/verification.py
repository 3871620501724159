"""Residual engine: substitute every closed form back into its governing equation.

Every derivative is taken with nested forward dual arithmetic, exact to
machine precision on closed forms, so the residual tolerances are 1e-9.
The independent oracle for these derivatives, 4th-order central
differences, lives with the tests (`tests/conftest.py`); the library
takes derivatives one way.

Every check evaluates its field over the whole (tau, eta) mesh at once,
so residual fields must accept numpy arrays, and Dual numbers carrying
arrays, as well as floats: no Python `if`/`float()` on their arguments.
One reduction, `_report`, turns a residual into a `Check`, the one record
of a checked value, and every row `run_suite` returns comes from it: the
value is the largest |residual|, a scalar being one value and a row that
bounds two residuals reducing their concatenation.  A NaN residual counts
as that maximum and an inf is one, so a non-finite value anywhere in a row
fails the row.  The worst point is the first maximum in row-major (tau,
eta) order (then Theta, for the annihilation checks); a row reduced
without sample coordinates has none, `()`, and its `n_samples` is the
number of values reduced.

Each derivative is one dual pass over the mesh, except that a field's
first and second derivative in eta (in I1 for the reduced ODE) come from
one nested pass (`DerivativeEngine.d1_d2`), and that an annihilation
check's X(J) = xi1*J_tau + xi2*J_eta + eta1*J_Theta, the derivative of J
along the generator, is one pass seeded with the generator's coefficients
(`dualnum.directional`).  The flow branch's wall flux is read from the
first and last eta columns of its interior pass.  So a reference-case
`run_suite` makes 17 passes: 8 single, 6 nested, 3 directional.  The
sample meshes are new C-contiguous arrays (`_filled`), not the stride-0
views of `np.broadcast_arrays`, which every ufunc of a pass walks slowly.

The flux-evolution balance of the flow branch needs an eta integral at
every tau, independent of the mesh evaluation.  `flow.quad` integrates it
for all tau at once with the 21- and the 42-node Gauss-Legendre rules; the
integrand receives all nodes of a rule in one call, so the derivative
engine runs once per rule rather than once per node.  At a tau where the
two estimates differ by more than `FLUX_QUAD_EPSABS` (plus 1e-12
relative) the integral counts as unconverged and fails the check.

Besides the per-equation residual evaluators this module carries
`run_suite`, the aggregate list of `Check`s the CLI `verify` subcommand prints,
and `published_flux_discrepancy`, the five closed-form numbers `verify`
prints and writes for the known inconsistency of the originally published
outer-boundary flux, which is measured instead of hidden.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import dualnum, flow, temperature
from .core import (
    C5_MIN,
    PhysicalParams,
    ReducedParams,
    ReferenceCase,
    SolutionConstants,
    ValidationError,
    _require_domain,
    from_reduced,
    reference_case_K,
    to_reduced,
    unit_embedding,
)
from .dualnum import value
from .flow import quad

__all__ = [
    "DerivativeEngine",
    "Check",
    "standard_grid",
    "pde_residual",
    "temperature_equation_residual",
    "reference_equation_residual",
    "flow_residuals",
    "determining_equation_residual",
    "operator_coefficients",
    "translation_invariants",
    "scaling_invariants",
    "invariant_annihilation",
    "reduced_ode_residual",
    "published_gap_at",
    "published_flux_discrepancy",
    "SuiteResult",
    "run_suite",
]

DUAL_TOL = 1e-9
#: absolute tolerance of the flux-evolution quadrature: how far the 21- and
#: the 42-node rule may differ at a tau
FLUX_QUAD_EPSABS = 1e-12


class DerivativeEngine:
    """First/second partial derivatives of fields over floats or arrays.

    The arguments may be floats or numpy arrays of one shape; the result
    has that shape, and is a float for float arguments.  The derivatives
    seed dual numbers through the field: `d1` one pass (`dualnum.d1`), `d2`
    and `d1_d2` one nested pass (`dualnum.d1_d2`); there is no other mode.
    A derivative along a direction in several arguments at once, the
    annihilation checks' X(J), is not the engine's: `invariant_annihilation`
    seeds its one `dualnum.directional` pass itself.  The class has no
    state: it stays a class, with the constant `mode`, because the
    benchmark's tracer wraps `d1`/`d2` at this class and reads `mode`; so
    the tracer's count leaves out the nested and the directional passes.
    The finite-difference oracle the tests check it against is in
    `tests/conftest.py`.
    """

    mode = "dual"

    def d1(self, f, args: Sequence, i: int):
        """First partial of f with respect to args[i]."""
        return _shaped(dualnum.d1(_section(f, args, i), args[i]), args)

    def d2(self, f, args: Sequence, i: int):
        """Second partial of f with respect to args[i]."""
        return _shaped(dualnum.d1_d2(_section(f, args, i), args[i])[1], args)

    def d1_d2(self, f, args: Sequence, i: int):
        """(first, second) partial of f with respect to args[i], from one nested pass.

        Bit-identical to (`d1`, `d2`), at the cost of the `d2` pass alone.
        """
        p1, p2 = dualnum.d1_d2(_section(f, args, i), args[i])
        return _shaped(p1, args), _shaped(p2, args)


_ENGINE = DerivativeEngine()


def _section(f, args, i):
    """f as a function of its i-th argument, the others held at args."""

    def g(x):
        a = list(args)
        a[i] = x
        return f(*a)

    return g


def _shaped(y, args):
    """y as a float array of the arguments' shape; a float for float arguments.

    An array the derivative pass has just allocated (one that owns its data
    and has that shape) is returned as is; anything else, such as a float
    broadcast over the shape, is copied into a new array.
    """
    shape = np.broadcast(*args).shape
    y = np.asarray(value(y), dtype=float)
    if not shape:
        return float(y)
    if y.shape == shape and y.flags.owndata:
        return y
    return np.full(shape, y)


@dataclass(frozen=True)
class Check:
    """One checked value against its tolerance, as `_report` reduces it.

    The value is the max-abs residual over the `n_samples` values reduced,
    or NaN if one of them is; `worst_point` holds the coordinates of the
    first value where it is reached, or `()` for a check reduced without
    coordinates, whose `n_samples` still counts its values.
    """

    name: str
    value: float
    tol: float
    note: str
    worst_point: tuple
    n_samples: int

    @property
    def passed(self) -> bool:
        """value <= tol, so a NaN value fails."""
        return self.value <= self.tol


def _report(name, residual, coords, tol, note="") -> Check:
    """Reduce a residual (a scalar or an array) sampled at `coords`, arrays of
    its shape, or `()` for a residual without sample coordinates."""
    r = np.asarray(residual, dtype=float)
    if r.size == 0:
        raise ValidationError("empty sample grid")
    # first maximum in row-major order, so the worst point is lexicographic-
    # minimal among ties; argmax takes the first NaN, which then fails
    k = int(np.argmax(np.abs(r)))
    worst = float(abs(r.flat[k]))
    return Check(name, worst, tol, note, tuple(float(np.ravel(c)[k]) for c in coords), r.size)


def standard_grid(a: float = 1.0):
    """Verification grid: tau in {0, 0.05, ..., 1} + {2, 5, 10}, 21 eta points."""
    tau = np.concatenate([np.linspace(0.0, 1.0, 21), [2.0, 5.0, 10.0]])
    eta = np.linspace(0.0, a, 21)
    return tau, eta


def _filled(*parts):
    """The parts broadcast to one shape, each copied into a new C-contiguous
    float array: what `np.broadcast_arrays` gives, without its stride-0
    views, which every ufunc of a dual pass walks slowly."""
    shape = np.broadcast(*parts).shape
    out = []
    for p in parts:
        x = np.empty(shape)
        x[...] = p
        out.append(x)
    return out


def _mesh(grid):
    """The (tau, eta) mesh of grid, as np.meshgrid(tau, eta, indexing="ij") gives it."""
    tau, eta = grid
    return _filled(np.asarray(tau, dtype=float)[:, None], np.asarray(eta, dtype=float))


def _partials(fld, TT, EE):
    """(f_tau, f_eta, f_etaeta) over the mesh."""
    args = (TT, EE)
    return (_ENGINE.d1(fld, args, 0), *_ENGINE.d1_d2(fld, args, 1))


def pde_residual(field, A: float, B: float, source, grid, name: str) -> Check:
    """Residual of A*f_tau - B*(f_eta + s*f_etaeta) - source(tau, eta, s) on the grid mesh.

    s = 8*tau + eta + 1; grid = (tau values, eta values).  The
    temperature, reference and determining equations are this form with
    their own (A, B, source).
    """
    TT, EE = _mesh(grid)
    s = 8.0 * TT + EE + 1.0
    f_t, f_e, f_ee = _partials(field, TT, EE)
    res = A * f_t - B * (f_e + s * f_ee) - source(TT, EE, s)
    return _report(name, res, (TT, EE), DUAL_TOL)


def temperature_equation_residual(fld, params: ReducedParams, grid) -> Check:
    """Residual of A*Theta_tau - B*(Theta_eta + s*Theta_etaeta) - 16*(1+eps^2)/s^2."""
    q = 16.0 * (1.0 + params.eps ** 2)
    return pde_residual(fld, params.A, params.B, lambda tau, eta, s: q / (s * s), grid,
                        "temperature_equation")


def reference_equation_residual(grid, C5: float = C5_MIN) -> Check:
    """Residual of theta_reference in Theta_tau - 8*(Theta_eta + s*Theta_etaeta) - 80/(3*s^2).

    The reference-case equation (the general one divided by A at the worked
    constants).
    """
    fld = lambda tau, eta: temperature.theta_reference(tau, eta, C5)
    return pde_residual(fld, 1.0, 8.0, lambda tau, eta, s: 80.0 / (3.0 * s * s), grid,
                        "reference_equation")


def flow_residuals(eps: float, grid) -> dict[str, Check]:
    """Substitute the exact flow branch into its governing relations.

    Keys: 'azimuthal_momentum' (interior transport of omega),
    'boundary_flux' (omega_eta + eps*Psi/(xi+eta)^2 at both walls, read
    from the first and last eta of the grid, which must start at 0.0),
    'flux_evolution' (the Psi evolution balance, read as dPsi/dtau since
    omega depends on eta while the right side must not), and
    'ring_scale' (dxi/dtau = 2*Psi with xi(0) = 1).
    """
    tau_vals, eta_vals = grid
    if eta_vals[0] != 0.0:
        raise ValidationError(f"flow_residuals reads the inner wall from the grid's first eta, "
                              f"which must be 0.0, not {eta_vals[0]!r}")
    tau = np.asarray(tau_vals, dtype=float)
    a = float(eta_vals[-1])
    psi = flow.PSI

    def omega(tau, eta):
        return flow.exact_omega(tau, eta, eps)

    TT, EE = _mesh((tau, eta_vals))
    s = 8.0 * TT + 1.0 + EE
    om_t, om_e, om_ee = _partials(omega, TT, EE)
    interior = om_t + 2.0 * psi * omega(TT, EE) / s - 4.0 * s * om_ee - 8.0 * om_e

    # the walls eta = 0 and a are the mesh's first and last columns
    ends = [0, -1]
    sw = s[:, ends]
    walls = om_e[:, ends] + eps * psi / (sw * sw)

    # dPsi/dtau = 0 on the branch, so the right side must vanish too; its
    # eta integral at every tau comes from two Gauss-Legendre rules, an
    # oracle independent of the mesh evaluation.  Where they disagree the
    # balance is NaN, so the check fails instead of passing.
    xi_v = flow.xi(tau)
    lnf = np.log(1.0 + a / xi_v)
    term1 = a * psi * (psi - 4.0) / (xi_v * (xi_v + a) * lnf)

    def integrand(x):
        # x: the (n,) nodes of a rule; one engine call covers them all
        T, E = _filled(tau, x[:, None])
        return omega(T, E) ** 2 + 4.0 * eps * _ENGINE.d1(omega, (T, E), 1)

    coarse = quad(integrand, 0.0, a, 21)
    fine = quad(integrand, 0.0, a, 42)
    converged = np.abs(fine - coarse) <= FLUX_QUAD_EPSABS + 1e-12 * np.abs(fine)
    balance = -(term1 + np.where(converged, fine, np.nan) / lnf)

    ring = np.append(_ENGINE.d1(flow.xi, (tau,), 0) - 2.0 * psi, flow.xi(0.0) - 1.0)
    zero = np.zeros(tau.size + 1)
    return {
        "azimuthal_momentum": _report("azimuthal_momentum", interior, (TT, EE), 1e-10),
        "boundary_flux": _report("boundary_flux", walls, (TT[:, ends], EE[:, ends]), 1e-12),
        "flux_evolution": _report("flux_evolution", balance, (tau, zero), 1e-10),
        "ring_scale": _report("ring_scale", ring, (np.append(tau, 0.0), zero), 1e-12),
    }


def determining_equation_residual(b2, C1: float, C2: float, C4: float,
                                  params: ReducedParams, grid) -> Check:
    """Residual of the linear condition on the generator coefficient b2.

    A*b2_tau - B*(b2_eta + s*b2_etaeta)
      - (16*(1+eps^2)/s^2) * (-(C2+C4) - (C1/2)*(tau - (A/B)*eta)).

    b2(tau, eta) is a callable field; the zero field is lambda tau, eta: 0.0.
    """
    A, B = params.A, params.B
    q = 16.0 * (1.0 + params.eps ** 2)

    def source(tau, eta, s):
        return q / (s * s) * (-(C2 + C4) - 0.5 * C1 * (tau - (A / B) * eta))

    return pde_residual(b2, A, B, source, grid, "determining_equation")


def operator_coefficients(C1: float, C2: float, C3: float, C4: float, b2,
                          params: ReducedParams):
    """Coefficient callables (xi1, xi2, eta1) of the symmetry generator.

    xi1(tau)            = C1*tau^2/2 + C2*tau + C3
    xi2(tau, eta)       = C1*tau*(4*tau+eta+1) + C2*(eta+1) - 8*C3
    eta1(tau, eta, th)  = (C4 - C1*(tau + (A/B)*eta)/2)*th + b2(tau, eta)

    b2(tau, eta) is a callable field; the zero field is lambda tau, eta: 0.0.
    """
    ratio = params.A / params.B if C1 != 0.0 else 0.0

    def xi1(tau):
        return 0.5 * C1 * tau ** 2 + C2 * tau + C3

    def xi2(tau, eta):
        return C1 * tau * (4.0 * tau + eta + 1.0) + C2 * (eta + 1.0) - 8.0 * C3

    def eta1(tau, eta, th):
        return (C4 - 0.5 * C1 * (tau + ratio * eta)) * th + b2(tau, eta)

    return xi1, xi2, eta1


def translation_invariants():
    """Invariants of the pure translation generator (C1 = C2 = C4 = 0, b2 = 0)."""

    def I1(tau, eta, th):
        return 8.0 * tau + eta + 1.0

    def I2(tau, eta, th):
        return th

    return I1, I2


def scaling_invariants(params: ReducedParams, consts: SolutionConstants):
    """Invariants of the scaling generator (C1=0, C2=1, C4=-2, b2 = simple profile)."""
    A, B, eps = params.A, params.B, params.eps
    C3, C5 = consts.C3, consts.C5

    def J1(tau, eta, th):
        return (1.0 + eta - 8.0 * C3) / (tau + C3)

    def J2(tau, eta, th):
        P = tau + C3
        s = 8.0 * tau + eta + 1.0
        return (P * (P * th - 0.5 * tau * C5) - 0.5 * tau * C3 * C5
                + 16.0 * tau * P * (1.0 + eps ** 2) / (s * (8.0 * A + B)))

    return J1, J2


#: the Theta values X(J) is evaluated at: annihilation must hold identically in Theta
THETA_SAMPLES = (-1.0, 0.4, 1.7)


def invariant_annihilation(operator_coeffs, invariant, params: ReducedParams, grid) -> Check:
    """Residual X(J) = xi1*J_tau + xi2*J_eta + eta1*J_Theta on the grid.

    X(J) is the derivative of J along X, so it comes from one dual pass of J
    seeded with the generator's coefficients (`dualnum.directional`).
    operator_coeffs is the raw (C1, C2, C3, C4, b2) tuple.  Annihilation
    must hold identically in Theta, so X(J) is evaluated on the (grid point
    x THETA_SAMPLES) mesh, and the worst point is a (tau, eta, Theta) triple.
    """
    xi1, xi2, eta1 = operator_coefficients(*operator_coeffs, params)
    tau_vals, eta_vals = grid
    args = _filled(np.asarray(tau_vals, dtype=float)[:, None, None],
                   np.asarray(eta_vals, dtype=float)[:, None], THETA_SAMPLES)
    tau, eta, th = args
    res = _shaped(dualnum.directional(invariant, args,
                                      (xi1(tau), xi2(tau, eta), eta1(tau, eta, th))), args)
    return _report("invariant_annihilation", res, args, DUAL_TOL)


def reduced_ode_residual(phi, params: ReducedParams, I1_samples) -> Check:
    """Residual of B*I1*phi'' + (B - 8A)*phi' + 16*(1+eps^2)/I1^2.

    The single-variable reduction of the temperature equation along the
    invariant I1 = 8*tau + eta + 1.
    """
    B, A = params.B, params.A
    i1 = np.asarray(I1_samples, dtype=float)
    _require_domain(i1, "I1 samples must be > 0")
    p1, p2 = _ENGINE.d1_d2(phi, (i1,), 0)
    res = B * i1 * p2 + (B - 8.0 * A) * p1 + 16.0 * (1.0 + params.eps ** 2) / (i1 * i1)
    return _report("reduced_ode", res, (i1,), 1e-10)


def published_gap_at(tau: float) -> float:
    """Published minus exact outer-wall (eta = 1) flux of the reference case at tau."""
    return float(temperature.published_flux_outer(tau) - temperature.reference_flux(tau, 1.0))


def published_flux_discrepancy() -> dict[str, float]:
    """The published-flux inconsistency of the reference case, as `verify` reports it.

    Keys: the published and the exact outer-wall (eta = 1) flux at tau = 0
    and their gap; the largest |published - exact| inner-wall (eta = 0) flux
    over tau in {0, 0.05, ..., 1}; the outer gap at tau = 100.  Every number
    comes from the closed forms alone: the exact flux is `reference_flux`,
    whose oracles (sympy, finite differences, the dual engine) are the tests'.
    """
    tau = np.linspace(0.0, 1.0, 21)
    inner = temperature.published_flux_inner(tau) - temperature.reference_flux(tau, 0.0)
    return {
        "tau0_published_outer": temperature.published_flux_outer(0.0),
        "tau0_derived_outer": float(temperature.reference_flux(0.0, 1.0)),
        "tau0_outer_gap": published_gap_at(0.0),
        "inner_max_gap": float(np.max(np.abs(inner))),
        "tau100_outer_gap": published_gap_at(100.0),
    }


# ---------------------------------------------------------------------------
# aggregate suite


@dataclass(frozen=True)
class SuiteResult:
    checks: list[Check]
    inconsistency: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _require_resolved_width(a: float, phys: PhysicalParams | None, tau):
    """ValidationError naming the input that sets a, unless 1 + a/xi(tau) > 1
    at every tau: where it rounds to 1 the squared wall radii xi and xi + a
    are no longer told apart, and the flux-evolution balance divides by
    log(1 + a/xi) = 0."""
    xi_max = float(flow.xi(np.max(tau)))
    if 1.0 + a / xi_max == 1.0:
        field = (f"physical.R10 = {phys.R10!r} with physical.R20 = {phys.R20!r} (a = {a!r})"
                 if phys is not None else f"reduced.a = {a!r}")
        raise ValidationError(f"{field} makes the ring too thin to verify: "
                              f"1 + a/xi rounds to 1 at xi = {xi_max!r}")


@np.errstate(all="ignore")  # a row that overflows reads nan FAIL; that row is the report
def run_suite(params: ReducedParams, consts: SolutionConstants,
              phys: PhysicalParams | None = None) -> SuiteResult:
    """Full residual/invariant/conservation suite for one parameter set.

    Parameter-generic checks always run.  Checks that only make sense at
    the reference constants (the worked zero-boundary-difference case) are
    added when `ReferenceCase.matches` the parameters and constants.  The
    published-flux inconsistency is reported separately and never gates
    `passed`.  Every derivative comes from the dual engine.  Constants whose
    theta_general(0, eta) overflows on the grid raise ValidationError
    (`temperature.require_finite_start`) before any check runs, and so does
    a ring too thin for the grid's largest xi (`_require_resolved_width`).
    numpy's floating-point warnings are off while it runs: a row whose
    closed forms overflow reads inf or nan, and a nan fails its row.
    """
    checks: list[Check] = []
    grid = standard_grid(params.a)
    _require_resolved_width(params.a, phys, grid[0])
    temperature.require_finite_start(grid[1], params, consts)
    emb = phys if phys is not None else unit_embedding(params)

    # flow branch
    for rep in flow_residuals(params.eps, grid).values():
        checks.append(replace(rep, name=f"flow_{rep.name}"))

    # temperature closed forms in the general equation
    simple = partial(temperature.theta_simple, params=params, level=consts.C5)
    general = partial(temperature.theta_general, params=params, consts=consts)
    rep = temperature_equation_residual(simple, params, grid)
    checks.append(replace(rep, name="pde_theta_simple"))
    rep = temperature_equation_residual(general, params, grid)
    checks.append(replace(rep, name="pde_theta_general"))

    # symmetry machinery
    checks.append(determining_equation_residual(simple, 0.0, 1.0, -2.0, params, grid))
    I1, _ = translation_invariants()
    rep = invariant_annihilation((0.0, 0.0, consts.C3, 0.0, lambda tau, eta: 0.0), I1,
                                 params, grid)
    checks.append(replace(rep, name="translation_annihilation", tol=0.0,
                          note="exact zero expected"))
    J1, J2 = scaling_invariants(params, consts)
    coeffs = (0.0, 1.0, consts.C3, -2.0, simple)
    for name, J, tol in (("scaling_annihilation_J1", J1, 1e-9),
                         ("scaling_annihilation_J2", J2, 1e-8)):
        checks.append(replace(invariant_annihilation(coeffs, J, params, grid), name=name, tol=tol))
    phi = lambda i1: temperature.theta_simple(0.0, i1 - 1.0, params, consts.C5)
    rep = reduced_ode_residual(phi, params, np.linspace(1.0, 81.0, 41))
    checks.append(replace(rep, name="reduced_ode_profile"))

    # boundary structure
    traces = temperature.BoundaryTraces(params, consts)
    checks.append(_report("boundary_equality_tau0", traces.theta1(0.0) - traces.theta2(0.0), (),
                          1e-12, "wall temperatures at tau = 0"))
    checks.append(_report("boundary_difference_C",
                          temperature.boundary_difference_C(params, consts), (), 1e-12,
                          "closed-form C; zero for the configured K"))
    tau4 = np.array([0.0, 0.1, 1.0, 10.0])
    dev = [traces.theta1(tau4) - temperature.theta_general(tau4, params.a, params, consts),
           traces.theta2(tau4) - temperature.theta_general(tau4, 0.0, params, consts)]
    checks.append(_report("trace_vs_restriction", np.concatenate(dev), (), 1e-12))

    # coordinate maps and the dimensional field
    # stdlib draws: `random` is loaded anyway, numpy.random would cost ~5.6 MB
    rng = random.Random(20260811)
    t_pts = 10.0 * np.array([rng.random() for _ in range(50)])
    r1v, r2v = flow.radii(t_pts, emb)
    r_pts = r2v + (r1v - r2v) * np.array([rng.random() for _ in range(50)])
    tau_pts, eta_pts = to_reduced(t_pts, r_pts, emb)
    # r >= R2(t) by construction, so an eta below 0 is rounding (a point
    # near the inner wall); `from_reduced` would take it, but the checks
    # below sample the wall itself, eta = 0, as they always have
    eta_pts = np.maximum(eta_pts, 0.0)
    ident = (8.0 * tau_pts + eta_pts + 1.0) * emb.R20 ** 2 / r_pts ** 2 - 1.0
    checks.append(_report("coordinate_identity", ident, (), 1e-12))
    tb, rb = from_reduced(tau_pts, eta_pts, emb)
    rt = np.concatenate([(tb - t_pts) / np.maximum(np.abs(t_pts), 1e-30),
                         (rb - r_pts) / np.abs(r_pts)])
    checks.append(_report("coordinate_roundtrip", rt, (), 1e-12))
    td = temperature.dimensional_T(t_pts, r_pts, emb, consts)
    tg = emb.T0 * temperature.theta_general(tau_pts, eta_pts, params, consts)
    scale = np.maximum(np.abs(tg), emb.T0 * np.maximum(abs(consts.C5), 1.0))
    checks.append(_report("dimensional_equivalence", (td - tg) / scale, (), 1e-11))

    # conservation and free-boundary stresses
    r1, r2 = flow.radii(np.array([0.0, 1.0, 10.0]), emb)
    area = r1 ** 2 - r2 ** 2
    checks.append(_report("area_conservation", np.ptp(area) / abs(area[0]), (), 1e-10))
    mom = [flow.angular_momentum_integral(t, emb) for t in (0.0, 1.0, 10.0)]
    mscale = np.maximum(abs(flow.angular_momentum(0.0, emb)), 1.0)
    checks.append(_report("angular_momentum_conservation", np.ptp(mom) / mscale, (), 1e-10))
    walls = np.concatenate(flow.radii(np.array([0.0, 1.0]), emb))
    stress = np.concatenate(flow.stress_components(walls, 0.0, emb))
    checks.append(_report("stress_free_boundaries", stress, (), 1e-12, "p_inf = 0"))

    # asymptote
    eta_line = np.linspace(0.0, params.a, 41)
    asym = temperature.theta_general(1e4, eta_line, params, consts) - 0.5 * consts.C5
    checks.append(_report("asymptote_level", asym, (), 1e-4, "tau = 1e4"))

    if ReferenceCase().matches(params, consts):
        kf = reference_case_K(consts.C3)
        checks.append(_report("reference_K_rational", kf + 5.0 / 18432.0, (), 1e-15))
        checks.append(_report("reference_K_printed", kf + 0.00027127, (), 1e-8))
        coef = [params.B / params.A - 8.0, 16.0 * (1.0 + params.eps ** 2) / params.A - 80.0 / 3.0]
        checks.append(_report("reference_equation_coefficients", coef, (), 1e-12))
        rep = reference_equation_residual(grid, C5=consts.C5)
        checks.append(replace(rep, name="pde_theta_reference"))
        g30 = np.linspace(0.0, 10.0, 30)
        e30 = np.linspace(0.0, 1.0, 30)
        diff = (temperature.theta_general(g30[:, None], e30[None, :], params, consts)
                - temperature.theta_reference(g30[:, None], e30[None, :], consts.C5))
        checks.append(_report("general_equals_reference", diff, (), 1e-12))
        ip = (temperature.initial_profile(e30, consts.C5)
              - temperature.theta_reference(0.0, e30, consts.C5))
        checks.append(_report("initial_profile_identity", ip, (), 1e-14))
        scan = temperature.c5_nonnegativity_bound(
            params, SolutionConstants(C3=consts.C3, C5=C5_MIN, K=consts.K))
        # only a negative minimum is a residual
        checks.append(_report("nonnegativity_at_c5_threshold", np.minimum(scan.min_value, 0.0),
                              (), 1e-12, f"min {scan.min_value:.3e} at {scan.argmin}"))

    return SuiteResult(checks=checks, inconsistency=published_flux_discrepancy())
