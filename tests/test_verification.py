import math

import numpy as np
import pytest

from ringheat.core import ReducedParams, SolutionConstants, ValidationError
from ringheat.dualnum import value
from ringheat.temperature import (
    InvariantSolutionGeneral,
    InvariantSolutionSimple,
    theta_general,
    theta_reference,
    theta_simple,
)
from ringheat.verification import (
    DerivativeEngine,
    UnreliableDerivativesError,
    annihilation_values,
    determining_equation_residual,
    flow_residuals,
    invariant_annihilation,
    operator_coefficients,
    published_flux_discrepancy,
    reduced_ode_residual,
    reference_equation_residual,
    run_suite,
    scaling_invariants,
    standard_grid,
    temperature_equation_residual,
    translation_invariants,
)

DUAL = DerivativeEngine(mode="dual")
FD = DerivativeEngine(mode="fd")


class TestEngine:
    def test_modes_agree_on_closed_forms(self, ref):
        fields = [
            InvariantSolutionSimple(ref.params, level=ref.C5),
            InvariantSolutionGeneral(ref.params, ref.consts),
            lambda tau, eta: theta_reference(tau, eta, ref.C5),
        ]
        tau_vals, eta_vals = standard_grid(1.0)
        for fld in fields:
            for tau in tau_vals[::4]:
                for eta in eta_vals[::4]:
                    args = (float(tau), float(eta))
                    for i in (0, 1):
                        assert abs(DUAL.d1(fld, args, i) - FD.d1(fld, args, i)) < 1e-7
                    assert abs(DUAL.d2(fld, args, 1) - FD.d2(fld, args, 1)) < 1e-7

    def test_dual_second_derivative_exact(self):
        fld = lambda tau, eta: (eta ** 3) * (tau + 1.0)
        assert DUAL.d2(fld, (2.0, 1.5), 1) == pytest.approx(6.0 * 1.5 * 3.0, rel=1e-14)
        assert DUAL.d1(fld, (2.0, 1.5), 0) == pytest.approx(1.5 ** 3, rel=1e-14)

    def test_invalid_mode_rejected(self):
        from ringheat.core import ValidationError
        with pytest.raises(ValidationError):
            DerivativeEngine(mode="autodiff")

    def test_cross_check_flags_kinked_field(self, ref):
        def kinked(tau, eta):
            # z^2 for eta > 0.5, else 0, written array-safe: the second
            # derivative jumps at eta = 0.5 where the two modes disagree
            z = eta - 0.5
            return z * z * (value(z) > 0.0)

        with pytest.raises(UnreliableDerivativesError):
            temperature_equation_residual(kinked, ref.params, cross_check=True)


class TestTemperatureEquation:
    def test_simple_solution_residual(self, ref):
        rep = temperature_equation_residual(
            InvariantSolutionSimple(ref.params, level=0.9), ref.params)
        assert rep.max_abs < 1e-9
        assert rep.passed
        assert rep.n_samples == 24 * 21

    def test_general_solution_residual(self, ref):
        rep = temperature_equation_residual(
            InvariantSolutionGeneral(ref.params, ref.consts), ref.params)
        assert rep.max_abs < 1e-9

    def test_general_solution_any_K(self, ref):
        # the exponential mode solves the homogeneous equation for every K
        consts = SolutionConstants(C3=0.125, C5=1.0, K=0.37)
        rep = temperature_equation_residual(
            InvariantSolutionGeneral(ref.params, consts), ref.params)
        assert rep.max_abs < 1e-9

    def test_nonreference_parameters(self):
        params = ReducedParams(A=1.3, B=2.1, eps=-0.7, a=2.0)
        consts = SolutionConstants(C3=0.3, C5=0.8, K=0.05)
        rep = temperature_equation_residual(
            InvariantSolutionGeneral(params, consts), params)
        assert rep.max_abs < 1e-9

    def test_perturbed_field_residual_hand_oracle(self, ref):
        # adding eta^2 contributes -B*d/deta(s*2*eta) = -2*B*(8*tau + 2*eta + 1)
        base = InvariantSolutionGeneral(ref.params, ref.consts)
        fld = lambda tau, eta: base(tau, eta) + eta ** 2
        rep0 = temperature_equation_residual(fld, ref.params, grid=([0.0], [0.0]))
        assert rep0.max_abs == pytest.approx(2.0 * ref.params.B, abs=1e-9)
        rep1 = temperature_equation_residual(fld, ref.params, grid=([0.5], [0.25]))
        assert rep1.max_abs == pytest.approx(
            abs(-2.0 * ref.params.B * (8.0 * 0.5 + 2.0 * 0.25 + 1.0)), abs=1e-9)

    def test_fd_mode_tolerance(self, ref):
        rep = temperature_equation_residual(
            InvariantSolutionGeneral(ref.params, ref.consts), ref.params, engine=FD)
        assert rep.tol == 1e-5
        assert rep.passed

    def test_nan_residual_fails(self, ref):
        # NaN compares false against everything; the reduction must still
        # report it as the worst residual and fail
        rep = temperature_equation_residual(lambda t, e: float("nan") * t, ref.params)
        assert math.isnan(rep.max_abs)
        assert rep.worst_point == (0.0, 0.0)
        assert not rep.passed

    def test_empty_grid_rejected(self, ref):
        with pytest.raises(ValidationError):
            temperature_equation_residual(InvariantSolutionGeneral(ref.params, ref.consts),
                                          ref.params, grid=([], [0.0]))

    # fd values on arrays may differ from scalar ones by the difference
    # quotient's roundoff, since numpy's vector exp need not round like its
    # scalar one
    @pytest.mark.parametrize("engine, atol", [(DUAL, 1e-15), (FD, 1e-9)], ids=["dual", "fd"])
    def test_engine_on_arrays_matches_scalars(self, ref, engine, atol):
        fld = InvariantSolutionGeneral(ref.params, ref.consts)
        tau, eta = np.meshgrid([0.0, 0.5, 5.0], [0.0, 0.3, 1.0], indexing="ij")
        for d, i in ((engine.d1, 0), (engine.d1, 1), (engine.d2, 1)):
            arr = d(fld, (tau, eta), i)
            assert arr.shape == tau.shape
            for t, e, v in zip(tau.flat, eta.flat, arr.flat):
                scalar = d(fld, (float(t), float(e)), i)
                assert isinstance(scalar, float)
                assert v == pytest.approx(scalar, rel=1e-13, abs=atol)

    def test_worst_point_deterministic(self, ref):
        fld = lambda tau, eta: theta_general(tau, eta, ref.params, ref.consts) + eta ** 2
        rep = temperature_equation_residual(fld, ref.params)
        # residual magnitude grows with tau and eta, so the worst point is the corner
        assert rep.worst_point == (10.0, 1.0)


class TestReferenceEquation:
    def test_reference_solution_residual(self):
        grid = (np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 10))
        rep = reference_equation_residual(grid=grid)
        assert rep.max_abs < 1e-9

    def test_constant_field_residual_is_source(self):
        rep = reference_equation_residual(fld=lambda tau, eta: 5.0 / 6.0,
                                          grid=([0.0], [0.0]))
        assert rep.max_abs == pytest.approx(80.0 / 3.0, rel=1e-13)

    def test_coefficients_consistent_with_general_equation(self, ref):
        # dividing the general equation by A at the reference constants
        assert ref.params.B / ref.params.A == pytest.approx(8.0, abs=1e-12)
        assert 16.0 * (1.0 + ref.params.eps ** 2) / ref.params.A == pytest.approx(
            80.0 / 3.0, abs=1e-12)


class TestFlowResiduals:
    @pytest.mark.parametrize("eps", [0.5, 0.0, -1.2])
    def test_exact_branch_everything_small(self, eps):
        reports = flow_residuals(eps)
        assert reports["azimuthal_momentum"].max_abs < 1e-10
        assert reports["boundary_flux"].max_abs < 1e-12
        assert reports["flux_evolution"].max_abs < 1e-10
        assert reports["ring_scale"].max_abs < 1e-12
        assert all(r.passed for r in reports.values())


class TestDeterminingEquation:
    def test_simple_profile_solves_it(self, ref):
        # source factor -(C2+C4) = 1 reproduces the inhomogeneous equation
        b2 = InvariantSolutionSimple(ref.params, level=ref.C5)
        rep = determining_equation_residual(b2, 0.0, 1.0, -2.0, ref.params)
        assert rep.max_abs < 1e-9

    def test_zero_b2_zero_source(self, ref):
        rep = determining_equation_residual(None, 0.0, 1.0, -1.0, ref.params)
        assert rep.max_abs == 0.0

    def test_zero_b2_unit_source(self, ref):
        rep = determining_equation_residual(None, 0.0, 1.0, 0.0, ref.params,
                                            grid=([0.0], [0.0]))
        # residual = 16*(1+eps^2)/s^2 = 20 at the origin
        assert rep.max_abs == pytest.approx(20.0, rel=1e-13)

    def test_time_dependent_source_term(self, ref):
        # C1 != 0 activates the (tau - (A/B)*eta) factor; b2 = 0 leaves just the source
        rep = determining_equation_residual(None, 2.0, 0.0, 0.0, ref.params,
                                            grid=([1.0], [0.0]))
        expected = 16.0 * 1.25 / 81.0 * (-(2.0 / 2.0) * (1.0 - 0.0))
        assert rep.max_abs == pytest.approx(abs(expected), rel=1e-12)


class TestSymmetryMachinery:
    def test_translation_annihilates_I1_exactly(self, ref):
        I1, I2 = translation_invariants()
        val = invariant_annihilation((0.0, 0.0, 0.125, 0.0, None), I1, params=ref.params)
        assert val == 0.0
        # I2 = Theta is annihilated too since eta1 = 0
        assert invariant_annihilation((0.0, 0.0, 0.125, 0.0, None), I2,
                                      params=ref.params) == 0.0

    def test_scaling_invariants_annihilated(self, ref):
        J1, J2 = scaling_invariants(ref.params, ref.consts)
        b2 = InvariantSolutionSimple(ref.params, level=ref.C5)
        coeffs = (0.0, 1.0, 0.125, -2.0, b2)
        assert invariant_annihilation(coeffs, J1, params=ref.params) < 1e-9
        assert invariant_annihilation(coeffs, J2, params=ref.params) < 1e-8

    def test_annihilation_independent_of_theta_for_J1(self, ref):
        J1, _ = scaling_invariants(ref.params, ref.consts)
        b2 = InvariantSolutionSimple(ref.params, level=ref.C5)
        _, vals = annihilation_values((0.0, 1.0, 0.125, -2.0, b2), J1,
                                      theta_samples=(-3.0, 0.0, 2.0, 11.0),
                                      params=ref.params)
        assert float(np.var(vals, axis=1).max()) < 1e-14

    def test_operator_coefficient_structure(self, ref):
        xi1, xi2, eta1 = operator_coefficients(0.0, 1.0, 0.125, -2.0, None)
        assert xi1(2.0) == 2.125
        assert xi2(0.0, 0.5) == 1.5 - 1.0
        assert eta1(0.0, 0.0, 3.0) == -6.0
        from ringheat.core import ValidationError
        with pytest.raises(ValidationError):
            operator_coefficients(1.0, 0.0, 0.125, 0.0, None)  # C1 != 0 needs params

    def test_general_coefficients_with_C1(self, ref):
        xi1, xi2, eta1 = operator_coefficients(2.0, 0.0, 0.125, 0.0, None, ref.params)
        assert xi1(1.0) == pytest.approx(1.0 + 0.125)
        assert xi2(1.0, 0.5) == pytest.approx(2.0 * (4.0 + 0.5 + 1.0) - 1.0)
        assert eta1(1.0, 2.0, 1.0) == pytest.approx(-(1.0 + 0.125 * 2.0))


class TestReducedOde:
    def test_simple_profile_solves_ode(self, ref):
        phi = lambda i1: theta_simple(0.0, i1 - 1.0, ref.params, 0.7)
        rep = reduced_ode_residual(phi, ref.params, np.linspace(1.0, 81.0, 41))
        assert rep.max_abs < 1e-10

    def test_constant_profile_leaves_source(self, ref):
        rep = reduced_ode_residual(lambda i1: 2.0, ref.params, [1.0])
        assert rep.max_abs == pytest.approx(20.0, rel=1e-13)

    def test_linear_profile_at_reference(self, ref):
        # B - 8A = 0 at the reference constants, so phi = I1 leaves only the source
        rep = reduced_ode_residual(lambda i1: i1, ref.params, [1.0])
        assert rep.max_abs == pytest.approx(20.0, rel=1e-13)


class TestFluxDiscrepancy:
    def test_inner_flux_agrees(self):
        rep = published_flux_discrepancy(np.linspace(0.0, 1.0, 21))
        assert float(np.max(np.abs(rep.inner_gap))) < 1e-10

    def test_outer_flux_sign_flip_at_tau0(self):
        rep = published_flux_discrepancy(np.array([0.0]))
        pub, der = float(rep.published_outer[0]), float(rep.derived_outer[0])
        assert pub == pytest.approx(0.20833, abs=1e-5)
        assert der == pytest.approx(-0.19646, abs=1e-5)
        assert math.copysign(1.0, pub) != math.copysign(1.0, der)
        assert float(rep.outer_gap[0]) == pytest.approx(0.405, abs=1e-3)

    def test_gap_decays(self):
        rep = published_flux_discrepancy(np.array([100.0]))
        assert abs(float(rep.outer_gap[0])) < 1e-4


class TestSuite:
    def test_reference_suite_passes(self, ref):
        suite = run_suite(ref.params, ref.consts)
        assert suite.passed
        names = {c.name for c in suite.checks}
        assert "pde_theta_general" in names
        assert "general_equals_reference" in names
        assert "nonnegativity_at_c5_threshold" in names

    def test_eps_zero_suite_passes(self):
        from ringheat.temperature import k_for_equal_boundaries
        params = ReducedParams(A=0.75, B=6.0, eps=0.0, a=1.0)
        consts = SolutionConstants(C3=0.125, C5=5.0 / 3.0,
                                   K=k_for_equal_boundaries(params, 0.125))
        suite = run_suite(params, consts)
        assert suite.passed
        # reference-only identities are skipped for non-reference eps
        assert "general_equals_reference" not in {c.name for c in suite.checks}

    def test_tampered_K_fails_boundary_checks_only_pde_passes(self, ref):
        consts = SolutionConstants(C3=0.125, C5=ref.C5, K=ref.K + 1e-3)
        suite = run_suite(ref.params, consts)
        assert not suite.passed
        by_name = {c.name: c for c in suite.checks}
        assert by_name["pde_theta_general"].passed  # any K solves the equation
        assert not by_name["boundary_difference_C"].passed
        assert not by_name["boundary_equality_tau0"].passed
