import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from ringheat.core import PhysicalParams, ValidationError
from ringheat.flow import (
    PSI,
    FlowState,
    RingGeometry,
    angular_momentum,
    angular_momentum_integral,
    exact_omega,
    pressure,
    radii,
    shear_stress_variants,
    stress_components,
    velocities,
    xi,
)


def phys(**kw):
    base = dict(rho=1.0, Cp=3.0, k_cond=24.0, mu=1.0, mu0=0.5, T0=1.0,
                R10=math.sqrt(2.0), R20=1.0)
    base.update(kw)
    return PhysicalParams(**base)


class TestOmega:
    def test_values(self):
        assert exact_omega(0.0, 0.0, 0.5) == 2.0
        assert exact_omega(0.0, 1.0, 0.5) == 1.0
        assert exact_omega(1.0, 0.0, 0.5) == pytest.approx(2.0 / 9.0, rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=-2.0, max_value=2.0))
    def test_omega_scale_identity(self, tau, eta, eps):
        # omega * (xi + eta) = 4*eps everywhere
        assert exact_omega(tau, eta, eps) * (xi(tau) + eta) == pytest.approx(4.0 * eps, abs=1e-12)

    def test_flow_state_pins_psi(self):
        st_ = FlowState(eps=0.5)
        assert st_.Psi == PSI
        assert xi(0.25) == 1.0 + 2.0 * st_.Psi * 0.25  # flow.xi is the branch's xi
        assert st_.omega(1.0, 0.0) == pytest.approx(2.0 / 9.0)
        with pytest.raises(ValidationError):
            FlowState(eps=0.5, Psi=3.0)


class TestRadii:
    def test_initial(self):
        p = phys()
        r1, r2 = radii(0.0, p)
        assert (r1, r2) == (p.R10, p.R20)

    def test_growth(self):
        # nu = 1, R20 = 1: R2(1) = sqrt(9) = 3
        _, r2 = radii(1.0, phys())
        assert r2 == pytest.approx(3.0, rel=1e-15)

    def test_area_conservation(self):
        p = phys(R10=2.5, R20=1.0, mu=0.8)
        ref = p.R10 ** 2 - p.R20 ** 2
        for t in (0.0, 0.5, 5.0):
            r1, r2 = radii(t, p)
            assert r1 ** 2 - r2 ** 2 == pytest.approx(ref, rel=1e-13)

    def test_geometry_object(self):
        g = RingGeometry(phys())
        assert g.R2(0.0) == 1.0
        assert g.R1(1.0) == pytest.approx(math.sqrt(10.0))


class TestVelocities:
    def test_values(self):
        assert velocities(2.0, 1.0, 0.0) == (2.0, 0.0)
        assert velocities(1.0, 1.0, 0.5) == (4.0, 2.0)

    def test_zero_nondissipative(self):
        for r in (0.5, 1.0, 7.0):
            assert velocities(r, 1.3, 0.0)[1] == 0.0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValidationError):
            velocities(0.0, 1.0, 1.0)


class TestPressure:
    def test_inviscid_limit(self):
        assert pressure(3.0, 0.0, 0.0, p_inf=2.5) == 2.5

    def test_against_quadrature_oracle(self):
        # independent oracle: integrate dp/dr = Phi^2/r^3 + v^2/r from r to infinity
        def oracle(r, nu, nu0, p_inf):
            dp = lambda s: (4.0 * nu) ** 2 / s ** 3 + (4.0 * nu0 / s) ** 2 / s
            tail, _ = quad(dp, r, np.inf, epsabs=1e-12)
            return p_inf - tail

        assert oracle(2.0, 1.0, 0.0, 0.0) == pytest.approx(-2.0, abs=1e-10)
        assert pressure(2.0, 1.0, 0.0, 0.0) == pytest.approx(-2.0, rel=1e-15)
        for r, nu, nu0, p_inf in [(1.5, 0.7, 0.3, 0.0), (3.0, 1.0, -0.5, 1.0)]:
            assert pressure(r, nu, nu0, p_inf) == pytest.approx(
                oracle(r, nu, nu0, p_inf), abs=1e-10)


class TestStress:
    def test_shear_stress_vanishes_everywhere(self):
        p = phys(mu0=0.7)
        for r in (0.3, 1.0, 2.0, 11.0):
            _, t_rt = stress_components(r, 0.0, p)
            assert abs(t_rt) < 1e-14

    def test_free_boundaries_stress_free(self):
        # with p_inf = 0 the normal stress vanishes at both walls simultaneously
        p = phys(mu0=0.5)
        for t in (0.0, 1.0):
            for r in radii(t, p):
                t_rr, t_rt = stress_components(float(r), t, p, p_inf=0.0)
                assert abs(t_rr) < 1e-12
                assert abs(t_rt) < 1e-12

    def test_nonzero_far_field_shifts_normal_stress(self):
        t_rr, _ = stress_components(1.0, 0.0, phys(), p_inf=0.3)
        assert t_rr == pytest.approx(-0.3, rel=1e-13)

    def test_zero_mu0_trivial(self):
        _, t_rt = stress_components(1.7, 0.5, phys(mu0=0.0))
        assert t_rt == 0.0

    def test_sign_variants(self):
        # only the '+' convention cancels on the exact branch
        p = phys(mu0=0.5)
        plus, minus = shear_stress_variants(2.0, p)
        assert abs(plus) < 1e-14
        assert minus == pytest.approx(-16.0 * p.nu * p.nu0 / 4.0, rel=1e-13)


class TestAngularMomentum:
    def test_zero_without_rotation(self):
        assert angular_momentum(0.0, phys(mu0=0.0)) == 0.0

    def test_unit_case_constant_in_time(self):
        # nu0 = 1/2 and R10^2 - R20^2 = 1 give M = 1 at every t
        p = phys(mu0=0.5, R10=math.sqrt(2.0), R20=1.0)
        for t in (0.0, 1.0, 10.0):
            assert angular_momentum(t, p) == pytest.approx(1.0, rel=1e-15)

    def test_quadrature_matches_closed_form(self):
        p = phys(mu0=-0.8, R10=3.0, R20=1.2, mu=0.6)
        for t in (0.0, 1.0, 10.0):
            assert angular_momentum_integral(t, p) == pytest.approx(
                angular_momentum(t, p), abs=1e-10)
