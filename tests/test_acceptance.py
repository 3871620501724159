"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; the
whole module finishes in well under a minute.
"""

import math
import time
from fractions import Fraction
from functools import partial

import numpy as np

from ringheat.core import (
    C5_MIN,
    ReferenceCase,
    SolutionConstants,
    reference_case_K,
    to_reduced,
)
from ringheat.flow import (
    angular_momentum_integral,
    radii,
    stress_components,
)
from ringheat.solver import (
    SolverConfig,
    convergence_study,
    solve_reference,
    PUBLISHED_FLUX_ERROR_FLOOR,
)
from ringheat.temperature import (
    BoundaryTraces,
    boundary_difference_C,
    c5_nonnegativity_bound,
    dimensional_T,
    theta_general,
    theta_reference,
    theta_simple,
)
from ringheat.verification import (
    determining_equation_residual,
    flow_residuals,
    invariant_annihilation,
    published_flux_discrepancy,
    reduced_ode_residual,
    reference_equation_residual,
    scaling_invariants,
    standard_grid,
    temperature_equation_residual,
    translation_invariants,
)

REF = ReferenceCase()
#: the grid `verify` checks the reference case on
GRID = standard_grid(REF.a)


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_constant_reproduction():
    k = reference_case_K(0.125)
    dec_ok = abs(k - (-0.00027127)) < 1e-8
    # exact rational self-check: at C3 = 1/8 the formula collapses to
    # (10/9)*(1/8)^4 / (-1) since the exp(1-1/(4*C3)) term has coefficient 0
    # and exp(1-1/(8*C3)) = 1
    C3 = Fraction(1, 8)
    rational = (Fraction(10, 9) * C3 ** 4) / (0 - (16 * C3 - 1))
    rat_ok = rational == Fraction(-5, 6 ** 2 * 8 ** 3)
    float_ok = abs(k - float(rational)) < 1e-19
    _report(1, "constant reproduction", dec_ok and rat_ok and float_ok,
            f"K(1/8) = {k!r}, rational = {rational}")


def test_criterion_02_exact_solution_residuals():
    t0 = time.perf_counter()
    worst = {}
    worst["reference_eq"] = reference_equation_residual(GRID, C5=C5_MIN).value
    worst["general_eq_general"] = temperature_equation_residual(
        partial(theta_general, params=REF.params, consts=REF.consts), REF.params, GRID).value
    worst["general_eq_simple"] = temperature_equation_residual(
        partial(theta_simple, params=REF.params, level=C5_MIN), REF.params, GRID).value
    fl = flow_residuals(REF.eps, GRID)
    worst["flow_interior"] = fl["azimuthal_momentum"].value
    worst["flow_boundary"] = fl["boundary_flux"].value
    worst["flow_ring_scale"] = fl["ring_scale"].value
    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-9 for v in worst.values()) and elapsed < 1.0
    _report(2, "exact-solution residuals", ok,
            f"max residual {max(worst.values()):.3e}, runtime {elapsed:.2f}s")


def test_criterion_03_boundary_equality():
    traces = BoundaryTraces(REF.params, REF.consts)
    th1, th2 = traces.theta1(0.0), traces.theta2(0.0)
    c_val = boundary_difference_C(REF.params, REF.consts)
    ok = abs(th1 - th2) < 1e-12 and abs(c_val) < 1e-12
    _report(3, "boundary equality", ok,
            f"|Theta1(0)-Theta2(0)| = {abs(th1 - th2):.2e}, |C| = {abs(c_val):.2e}")


def test_criterion_04_asymptote():
    eta = np.linspace(0.0, 1.0, 101)
    dev = float(np.max(np.abs(theta_general(1e4, eta, REF.params, REF.consts)
                              - 0.5 * REF.C5)))
    _report(4, "asymptote", dev < 1e-4, f"max |Theta(1e4) - C5/2| = {dev:.3e}")


def test_criterion_05_nonnegativity_threshold():
    at = c5_nonnegativity_bound(REF.params, REF.consts)
    below = c5_nonnegativity_bound(
        REF.params, SolutionConstants(C3=REF.C3, C5=C5_MIN - 0.01, K=REF.K))
    ok = (at.min_value >= -1e-12 and at.argmin[0] == 0.0 and below.min_value < 0.0)
    _report(5, "nonnegativity threshold", ok,
            f"min at C5=5/3: {at.min_value:.2e} at {at.argmin}; "
            f"min at C5=5/3-0.01: {below.min_value:.2e}")


def test_criterion_06_symmetry_machinery():
    b2 = partial(theta_simple, params=REF.params, level=REF.C5)
    det = determining_equation_residual(b2, 0.0, 1.0, -2.0, REF.params, GRID).value
    I1, _ = translation_invariants()
    trans = invariant_annihilation((0.0, 0.0, REF.C3, 0.0, lambda tau, eta: 0.0), I1,
                                   params=REF.params, grid=GRID).value
    J1, J2 = scaling_invariants(REF.params, REF.consts)
    coeffs = (0.0, 1.0, REF.C3, -2.0, b2)
    xj1 = invariant_annihilation(coeffs, J1, params=REF.params, grid=GRID).value
    xj2 = invariant_annihilation(coeffs, J2, params=REF.params, grid=GRID).value
    phi = lambda i1: REF.C5 - 16.0 * (1.0 + REF.eps ** 2) / ((8.0 * REF.A + REF.B) * i1)
    ode = reduced_ode_residual(phi, REF.params, np.linspace(1.0, 81.0, 41)).value
    ok = det < 1e-9 and trans == 0.0 and xj1 < 1e-8 and xj2 < 1e-8 and ode < 1e-10
    _report(6, "symmetry machinery", ok,
            f"determining {det:.1e}, X(I1) = {trans}, X(J1) {xj1:.1e}, "
            f"X(J2) {xj2:.1e}, reduced ODE {ode:.1e}")


def test_criterion_07_manufactured_convergence():
    t0 = time.perf_counter()
    results = convergence_study([64, 128, 256],
                                SolverConfig(t_end=0.25, scheme="cn", bc_mode="derived"),
                                REF.params, REF.consts)
    elapsed = time.perf_counter() - t0
    orders = [r.observed_order for r in results[1:]]
    ok = all(1.8 <= o <= 2.2 for o in orders) and elapsed < 10.0
    _report(7, "manufactured-solution convergence", ok,
            f"orders {['%.3f' % o for o in orders]}, runtime {elapsed:.2f}s")


def test_criterion_08_consistency_identities():
    taus = np.linspace(0.0, 10.0, 30)
    etas = np.linspace(0.0, 1.0, 30)
    ident = float(np.max(np.abs(
        theta_general(taus[:, None], etas[None, :], REF.params, REF.consts)
        - theta_reference(taus[:, None], etas[None, :], REF.C5))))

    from ringheat.core import unit_embedding
    emb = unit_embedding(REF.params)
    rng = np.random.default_rng(2468)
    t = 10.0 * rng.random(50)
    r1, r2 = radii(t, emb)
    r = r2 + (r1 - r2) * rng.random(50)
    tau, eta = to_reduced(t, r, emb)
    lhs = dimensional_T(t, r, emb, REF.consts)
    rhs = emb.T0 * theta_general(tau, eta, REF.params, REF.consts)
    dim_rel = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)))
    coord = float(np.max(np.abs((8.0 * tau + eta + 1.0) * emb.R20 ** 2 / r ** 2 - 1.0)))
    ok = ident < 1e-12 and dim_rel < 1e-11 and coord < 1e-12
    _report(8, "consistency identities", ok,
            f"general-vs-reference {ident:.2e}, dimensional {dim_rel:.2e}, "
            f"coordinate {coord:.2e}")


def test_criterion_09_discrepancy_detection():
    rep = published_flux_discrepancy()
    inner_ok = rep["inner_max_gap"] < 1e-10
    pub = rep["tau0_published_outer"]
    der = rep["tau0_derived_outer"]
    sign_ok = (abs(pub - 0.20833) < 1e-5 and abs(der - (-0.19646)) < 1e-5
               and math.copysign(1, pub) != math.copysign(1, der)
               and abs((pub - der) - 0.405) < 1e-3)
    errs = [solve_reference(n, SolverConfig(t_end=0.25, bc_mode="paper")).error_inf
            for n in (64, 128, 256)]
    plateau_ok = all(e > PUBLISHED_FLUX_ERROR_FLOOR for e in errs) \
        and max(errs) / min(errs) < 1.01
    ok = inner_ok and sign_ok and plateau_ok
    _report(9, "published-flux discrepancy detection", ok,
            f"outer gap at tau=0: {pub - der:.5f} ({pub:+.5f} vs {der:+.5f}); "
            f"plateau errors {['%.4f' % e for e in errs]} "
            f"(floor {PUBLISHED_FLUX_ERROR_FLOOR})")


def test_criterion_10_conservation():
    emb = ReferenceCase()
    from ringheat.core import unit_embedding
    phys = unit_embedding(emb.params)
    areas = []
    moments = []
    for t in (0.0, 1.0, 10.0):
        r1, r2 = radii(t, phys)
        areas.append(float(r1 ** 2 - r2 ** 2))
        moments.append(angular_momentum_integral(t, phys))
    area_drift = (max(areas) - min(areas)) / abs(areas[0])
    mom_drift = (max(moments) - min(moments)) / max(abs(moments[0]), 1.0)
    worst_stress = 0.0
    for t in (0.0, 1.0, 10.0):
        for r in radii(t, phys):
            t_rr, t_rt = stress_components(float(r), t, phys)
            worst_stress = max(worst_stress, abs(t_rr), abs(t_rt))
    ok = area_drift < 1e-10 and mom_drift < 1e-10 and worst_stress < 1e-12
    _report(10, "conservation and stress-free boundaries", ok,
            f"area drift {area_drift:.2e}, momentum drift {mom_drift:.2e}, "
            f"max boundary stress {worst_stress:.2e}")
