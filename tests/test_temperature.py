import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ringheat import temperature
from ringheat.core import (
    C5_MIN,
    ReducedParams,
    SingularTimeError,
    SolutionConstants,
    ValidationError,
    reference_case_K,
)
from ringheat.dualnum import Dual
from ringheat.temperature import (
    BoundaryTraces,
    InvariantSolutionGeneral,
    InvariantSolutionSimple,
    boundary_difference_C,
    boundary_traces,
    c5_nonnegativity_bound,
    dimensional_T,
    initial_profile,
    k_for_equal_boundaries,
    published_flux_inner,
    published_flux_outer,
    reference_flux,
    theta_general,
    theta_reference,
    theta_simple,
)
from ringheat.core import to_reduced


class TestThetaSimple:
    def test_reference_value_at_origin(self, ref):
        # 16*(1+1/4)/12 = 5/3, so level 5/6 gives -5/6
        v = theta_simple(0.0, 0.0, ref.params, level=5.0 / 6.0)
        assert v == pytest.approx(5.0 / 6.0 - 5.0 / 3.0, rel=1e-15)

    def test_level_is_asymptote(self, ref):
        assert theta_simple(1e9, 0.5, ref.params, level=0.4) == pytest.approx(0.4, abs=1e-9)

    def test_eps_zero_norm(self):
        # B + 8A = 16 and eps = 0 make the depression exactly 1 at s = 1
        p = ReducedParams(A=1.0, B=8.0, eps=0.0, a=1.0)
        assert theta_simple(0.0, 0.0, p, level=0.25) == pytest.approx(0.25 - 1.0, rel=1e-15)


class TestThetaGeneral:
    def test_K_zero_reduces_to_simple(self, ref):
        consts = SolutionConstants(C3=0.125, C5=1.2, K=0.0)
        grid_t = np.linspace(0.0, 5.0, 7)
        grid_e = np.linspace(0.0, 1.0, 7)
        for tau in grid_t:
            for eta in grid_e:
                assert theta_general(tau, eta, ref.params, consts) == pytest.approx(
                    theta_simple(tau, eta, ref.params, level=0.6), rel=1e-15)

    def test_boundary_values_vanish_at_reference(self, ref):
        assert theta_general(0.0, 0.0, ref.params, ref.consts) == pytest.approx(0.0, abs=1e-14)
        assert theta_general(0.0, 1.0, ref.params, ref.consts) == pytest.approx(0.0, abs=1e-14)

    def test_matches_reference_closed_form_on_grid(self, ref):
        taus = np.linspace(0.0, 10.0, 30)
        etas = np.linspace(0.0, 1.0, 30)
        diff = np.abs(theta_general(taus[:, None], etas[None, :], ref.params, ref.consts)
                      - theta_reference(taus[:, None], etas[None, :], ref.C5))
        assert float(diff.max()) < 1e-12

    def test_singular_time_rejected(self, ref):
        with pytest.raises(SingularTimeError):
            theta_general(-0.2, 0.0, ref.params, ref.consts)

    def test_asymptote_decay_bound(self, ref):
        # |Theta - C5/2| <= c/tau with a single fitted constant over [1e2, 1e5]
        etas = np.linspace(0.0, 1.0, 11)
        taus = np.logspace(2, 5, 13)
        sup = [float(np.max(np.abs(theta_general(t, etas, ref.params, ref.consts)
                                   - 0.5 * ref.C5))) * t for t in taus]
        c = 2.0 * sup[0]
        assert all(s <= c for s in sup)


#: One value x in each form a domain guard receives.
GUARD_FORMS = {
    "float": lambda x: x,
    "float64": np.float64,
    "0d-array": np.array,
    "array": lambda x: np.array([1.0, x, 2.0]),
    "dual": lambda x: Dual(x, 1.0),
    "dual-of-array": lambda x: Dual(np.array([1.0, x]), np.ones(2)),
}


class TestDomainGuards:
    """`_check_P` and `_check_s` reject a P or s <= 0 in every form, and let
    NaN through as they always have; one float skips np.any."""

    @pytest.mark.parametrize("form", sorted(GUARD_FORMS))
    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_nonpositive_rejected(self, form, bad):
        x = GUARD_FORMS[form](bad)
        with pytest.raises(SingularTimeError, match="tau \\+ C3"):
            temperature._check_P(x, 0.125)
        with pytest.raises(ValidationError, match="8\\*tau"):
            temperature._check_s(x)

    @pytest.mark.parametrize("form", sorted(GUARD_FORMS))
    @pytest.mark.parametrize("good", [1e-300, 0.5, math.nan])
    def test_positive_or_nan_passes(self, form, good):
        x = GUARD_FORMS[form](good)
        assert temperature._check_P(x, 0.125) is None
        assert temperature._check_s(x) is None

    def test_scalar_trace_rejects_singular_time(self, ref):
        traces = BoundaryTraces(ref.params, ref.consts)
        for tau in (-0.125, np.float64(-0.2)):
            with pytest.raises(SingularTimeError):
                traces.theta2(tau)
            with pytest.raises(SingularTimeError):
                traces.theta1(tau)


class TestReferenceCaseForms:
    def test_endpoints_zero(self):
        assert theta_reference(0.0, 0.0, C5_MIN) == pytest.approx(0.0, abs=1e-15)
        assert theta_reference(0.0, 1.0, C5_MIN) == pytest.approx(0.0, abs=1e-15)
        assert initial_profile(0.0, C5_MIN) == pytest.approx(0.0, abs=1e-15)
        assert initial_profile(1.0, C5_MIN) == pytest.approx(0.0, abs=1e-15)

    def test_large_tau_reaches_level(self):
        for eta in np.linspace(0.0, 1.0, 9):
            assert abs(theta_reference(1e4, eta, C5_MIN) - 5.0 / 6.0) < 1e-4

    def test_initial_profile_is_tau0_restriction(self):
        etas = np.linspace(0.0, 1.0, 100)
        diff = np.abs(initial_profile(etas, 1.4) - theta_reference(0.0, etas, 1.4))
        assert float(diff.max()) < 1e-14

    def test_flux_matches_fd_of_field(self):
        h = 1e-6
        for tau in (0.0, 0.3, 2.0):
            for eta in (0.0, 0.5, 1.0):
                fd = (theta_reference(tau, eta + h) - theta_reference(tau, eta - h)) / (2 * h)
                assert reference_flux(tau, eta) == pytest.approx(fd, abs=5e-9)

    def test_published_inner_flux_agrees(self):
        for tau in np.linspace(0.0, 1.0, 11):
            assert published_flux_inner(tau) == pytest.approx(
                reference_flux(tau, 0.0), abs=1e-14)
        assert published_flux_inner(0.0) == pytest.approx(5.0 / 6.0, rel=1e-15)

    def test_published_outer_flux_disagrees_at_tau0(self):
        # printed value 5/12 - 5/24 = +5/24; true flux 5/12 - (5/3)/e < 0
        assert published_flux_outer(0.0) == pytest.approx(5.0 / 24.0, rel=1e-13)
        derived = reference_flux(0.0, 1.0)
        assert derived == pytest.approx(5.0 / 12.0 - (5.0 / 3.0) * math.exp(-1.0), rel=1e-13)
        assert published_flux_outer(0.0) > 0 > derived
        assert published_flux_outer(0.0) - derived == pytest.approx(0.405, abs=1e-3)


class TestBoundaryStructure:
    def test_traces_equal_restriction(self, ref):
        for tau in (0.0, 0.1, 1.0, 10.0):
            th1, th2 = boundary_traces(tau, ref.params, ref.consts)
            assert th1 == pytest.approx(
                theta_general(tau, 1.0, ref.params, ref.consts), abs=1e-12)
            assert th2 == pytest.approx(
                theta_general(tau, 0.0, ref.params, ref.consts), abs=1e-12)

    def test_traces_object(self, ref):
        tr = BoundaryTraces(ref.params, ref.consts)
        assert tr.theta1(0.0) == pytest.approx(0.0, abs=1e-14)
        assert tr.theta2(0.0) == pytest.approx(0.0, abs=1e-14)

    @given(st.floats(min_value=0.05, max_value=10.0),
           st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.0, max_value=10.0))
    def test_outer_wall_warmer_when_K_zero(self, A_val, a_val, tau):
        # without the exponential mode the depression -1/s is deeper at eta = 0
        params = ReducedParams(A=A_val, B=2.0, eps=0.3, a=a_val)
        consts = SolutionConstants(C3=0.2, C5=1.0, K=0.0)
        th1, th2 = boundary_traces(tau, params, consts)
        assert th1 > th2

    def test_difference_constant_reference_is_zero(self, ref):
        assert abs(boundary_difference_C(ref.params, ref.consts)) < 1e-12

    def test_difference_constant_degenerate_ring(self, ref):
        # a = 0: both bracket terms coincide and the first term carries a factor a
        params = ReducedParams(A=0.75, B=6.0, eps=0.5, a=0.0)
        assert boundary_difference_C(params, ref.consts) == pytest.approx(0.0, abs=1e-15)

    def test_difference_constant_K_zero_value(self, ref):
        # only the first term survives: 16*1*1.25/(2*12) = 5/6
        consts = SolutionConstants(C3=0.125, C5=1.0, K=0.0)
        assert boundary_difference_C(ref.params, consts) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_difference_matches_trace_difference(self, ref):
        for K in (0.0, ref.K, 0.01):
            consts = SolutionConstants(C3=0.125, C5=2.0, K=K)
            th1, th2 = boundary_traces(0.0, ref.params, consts)
            assert boundary_difference_C(ref.params, consts) == pytest.approx(
                th1 - th2, abs=1e-12)

    def test_k_for_equal_boundaries_matches_reference_formula(self, ref):
        for C3 in (0.0625, 0.125, 0.2, 0.33):
            assert k_for_equal_boundaries(ref.params, C3) == pytest.approx(
                reference_case_K(C3), rel=1e-12)

    def test_k_for_equal_boundaries_general_params(self):
        params = ReducedParams(A=1.1, B=4.0, eps=-0.3, a=1.7)
        K = k_for_equal_boundaries(params, 0.2)
        consts = SolutionConstants(C3=0.2, C5=1.0, K=K)
        assert abs(boundary_difference_C(params, consts)) < 1e-13


class TestDimensionalField:
    def test_equals_scaled_reduced_field(self, ref, ref_phys):
        rng = np.random.default_rng(7)
        t = 10.0 * rng.random(50)
        r2 = np.sqrt(8.0 * t + 1.0)
        r1 = np.sqrt(8.0 * t + 2.0)
        r = r2 + (r1 - r2) * rng.random(50)
        tau, eta = to_reduced(t, r, ref_phys)
        lhs = dimensional_T(t, r, ref_phys, ref.consts)
        rhs = ref_phys.T0 * theta_general(tau, eta, ref.params, ref.consts)
        assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)) < 1e-11

    def test_origin_maps_to_reduced_origin(self, ref, ref_phys):
        lhs = dimensional_T(0.0, ref_phys.R20, ref_phys, ref.consts)
        assert lhs == pytest.approx(
            ref_phys.T0 * theta_general(0.0, 0.0, ref.params, ref.consts), abs=1e-13)

    def test_reference_embedding_zero_at_inner_wall(self, ref, ref_phys):
        assert dimensional_T(0.0, 1.0, ref_phys, ref.consts) == pytest.approx(0.0, abs=1e-13)

    def test_scales_with_T0(self, ref, ref_phys):
        import dataclasses
        hot = dataclasses.replace(ref_phys, T0=300.0)
        v1 = dimensional_T(0.5, 1.5, ref_phys, ref.consts)
        v300 = dimensional_T(0.5, 1.5, hot, ref.consts)
        # T0 also rescales A and B, so the reduced solution differs; just check finiteness
        assert np.isfinite(v300) and np.isfinite(v1)


class TestNonnegativity:
    def test_threshold_C5_is_tangent(self, ref):
        rep = c5_nonnegativity_bound(ref.params, ref.consts)
        assert rep.min_value >= -1e-12
        assert rep.threshold_ok
        assert rep.argmin[0] == 0.0  # attained at tau = 0
        assert rep.argmin[1] in (0.0, 1.0)  # at a wall

    def test_above_threshold_strictly_positive(self, ref):
        consts = SolutionConstants(C3=0.125, C5=2.0, K=ref.K)
        rep = c5_nonnegativity_bound(ref.params, consts)
        assert rep.min_value > 0.0

    def test_below_threshold_goes_negative(self, ref):
        consts = SolutionConstants(C3=0.125, C5=1.0, K=ref.K)
        rep = c5_nonnegativity_bound(ref.params, consts)
        assert rep.min_value < 0.0
        assert not rep.threshold_ok

    def test_asymptotic_level_can_be_minimum(self, ref):
        # C3 = 0.3 keeps A*Q - B*P < 0 on the whole grid, so K < 0 lifts the
        # early-time field above C5/2 and the asymptotic level is the minimum
        consts = SolutionConstants(C3=0.3, C5=2.0, K=-5.0)
        rep = c5_nonnegativity_bound(ref.params, consts,
                                     tau_grid=np.linspace(0.0, 1.0, 11))
        assert rep.argmin[0] == math.inf
        assert rep.min_value == 1.0


class TestWrappers:
    def test_callable_wrappers(self, ref):
        simple = InvariantSolutionSimple(ref.params, level=0.5)
        general = InvariantSolutionGeneral(ref.params, ref.consts)
        assert simple(0.0, 0.0) == theta_simple(0.0, 0.0, ref.params, 0.5)
        assert general(0.3, 0.4) == theta_general(0.3, 0.4, ref.params, ref.consts)
