import math
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ENGINE_AGREEMENT_TOL, FD
from ringheat import flow, temperature
from ringheat.core import (
    C5_MIN,
    RING_SLACK,
    PhysicalParams,
    ReducedParams,
    ReferenceCase,
    SolutionConstants,
    ValidationError,
    reference_case_K,
)
from ringheat.dualnum import Dual
from ringheat.temperature import (
    BoundaryTraces,
    boundary_difference_C,
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
from ringheat.core import from_reduced, to_reduced, unit_embedding
from ringheat.verification import DerivativeEngine, reduced_ode_residual


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
        with pytest.raises(ValidationError, match=re.escape("tau + C3 must be > 0")):
            theta_general(-0.2, 0.0, ref.params, ref.consts)

    def test_asymptote_decay_bound(self, ref):
        # |Theta - C5/2| <= c/tau with a single fitted constant over [1e2, 1e5]
        etas = np.linspace(0.0, 1.0, 11)
        taus = np.logspace(2, 5, 13)
        sup = [float(np.max(np.abs(theta_general(t, etas, ref.params, ref.consts)
                                   - 0.5 * ref.C5))) * t for t in taus]
        c = 2.0 * sup[0]
        assert all(s <= c for s in sup)


class TestSymbolicTheta:
    """theta_general and theta_simple substituted by sympy into
    A*Theta_tau - B*(Theta_eta + s*Theta_etaeta) = 16*(1+eps^2)/s^2: an
    oracle that shares nothing with the dual engine.  The mode is written
    as K*R*exp(L), R = (A*Q - B*P)/P^3, L = -A*Q/(B*P) + (8A/B)*(log s -
    log P); L has rational derivatives, so the mode's residual divided by
    K*exp(L) is a rational function that `cancel` reduces exactly."""

    @pytest.fixture
    def forms(self):
        sp = pytest.importorskip("sympy")
        tau, eta = sp.symbols("tau eta", real=True)
        A, B, C3 = sp.symbols("A B C3", positive=True)
        eps, C5, K, level = sp.symbols("epsilon C5 K level", real=True)
        s = 8 * tau + eta + 1
        P = tau + C3
        Q = 1 + eta - 8 * C3
        R = (A * Q - B * P) / P ** 3
        L = -A * Q / (B * P) + (8 * A / B) * (sp.log(s) - sp.log(P))

        def simple(level):
            return level - 16 * (1 + eps ** 2) / (s * (B + 8 * A))

        return sp, SimpleNamespace(tau=tau, eta=eta, A=A, B=B, C3=C3, eps=eps, C5=C5,
                                   K=K, level=level, s=s, R=R, L=L, simple=simple)

    def test_mode_solves_the_homogeneous_equation(self, forms):
        sp, f = forms
        d, R, L = sp.diff, f.R, f.L
        # (K*R*exp(L))_x = K*exp(L)*(R_x + R*L_x), and likewise twice in eta
        m_tau = d(R, f.tau) + R * d(L, f.tau)
        m_eta = d(R, f.eta) + R * d(L, f.eta)
        m_etaeta = (d(R, f.eta, 2) + 2 * d(R, f.eta) * d(L, f.eta)
                    + R * (d(L, f.eta, 2) + d(L, f.eta) ** 2))
        assert sp.cancel(f.A * m_tau - f.B * (m_eta + f.s * m_etaeta)) == 0

    def test_simple_profile_leaves_exactly_the_source(self, forms):
        sp, f = forms
        th = f.simple(f.level)
        lhs = f.A * sp.diff(th, f.tau) - f.B * (sp.diff(th, f.eta) + f.s * sp.diff(th, f.eta, 2))
        assert sp.cancel(lhs - 16 * (1 + f.eps ** 2) / f.s ** 2) == 0

    def test_forms_are_the_codes(self, forms):
        sp, f = forms
        syms = (f.tau, f.eta, f.A, f.B, f.eps, f.C3, f.C5, f.K)
        general = sp.lambdify(syms, f.K * f.R * sp.exp(f.L) + f.simple(f.C5 / 2))
        simple = sp.lambdify(syms + (f.level,), f.simple(f.level))
        cases = [(0.0, 0.0, 0.75, 6.0, 0.5, 0.125, 5.0 / 3.0, reference_case_K(0.125)),
                 (0.3, 0.7, 0.9, 5.0, 0.4, 0.2, 1.5, -2e-3),
                 (2.0, 1.6, 1.3, 3.5, -0.7, 0.15, 2.5, 7e-4)]
        for tau, eta, A, B, eps, C3, C5, K in cases:
            params = ReducedParams(A=A, B=B, eps=eps, a=2.0)
            consts = SolutionConstants(C3=C3, C5=C5, K=K)
            args = (tau, eta, A, B, eps, C3, C5, K)
            assert theta_general(tau, eta, params, consts) == pytest.approx(general(*args),
                                                                            rel=1e-14)
            assert theta_simple(tau, eta, params, level=0.4) == pytest.approx(
                simple(*args, 0.4), rel=1e-14)


class TestSymbolicReference:
    """The reference case written in sympy from the paper's forms: its
    residual, its flux and its tau = 0 profile derived symbolically, and
    the codes compared against them."""

    @pytest.fixture
    def ref_forms(self):
        sp = pytest.importorskip("sympy")
        tau, eta = sp.symbols("tau eta", nonnegative=True)
        C5 = sp.symbols("C5", real=True)
        c = 8 * tau + 1
        s = c + eta
        theta = C5 / 2 - sp.Rational(5, 6) * (2 / s + ((eta ** 2 - c ** 2) / c ** 4)
                                              * sp.exp(-eta / c))
        return sp, SimpleNamespace(tau=tau, eta=eta, C5=C5, s=s, theta=theta)

    #: (tau, eta, C5) samples
    POINTS = [(0.0, 0.0, C5_MIN), (0.3, 0.7, 1.2), (2.0, 1.0, 2.5), (10.0, 0.4, C5_MIN)]

    def test_residual_cancels(self, ref_forms):
        # Theta_tau - 8*(Theta_eta + s*Theta_etaeta) - 80/(3*s^2) = 0: over a
        # common denominator its numerator, a polynomial in tau, eta and
        # exp(-eta/c), expands to 0 (as `cancel` finds, ~100x slower)
        sp, f = ref_forms
        d = sp.diff
        res = (d(f.theta, f.tau) - 8 * (d(f.theta, f.eta) + f.s * d(f.theta, f.eta, 2))
               - sp.Rational(80, 3) / f.s ** 2)
        numerator, _ = sp.together(res).as_numer_denom()
        assert sp.expand(numerator) == 0

    def test_theta_reference_is_the_code(self, ref_forms):
        sp, f = ref_forms
        theta = sp.lambdify((f.tau, f.eta, f.C5), f.theta)
        for tau, eta, C5 in self.POINTS:
            assert theta_reference(tau, eta, C5) == pytest.approx(theta(tau, eta, C5),
                                                                  rel=1e-14, abs=1e-15)

    def test_reference_flux_is_the_eta_derivative(self, ref_forms):
        sp, f = ref_forms
        flux = sp.lambdify((f.tau, f.eta), sp.diff(f.theta, f.eta))
        for tau, eta, _ in self.POINTS:
            assert reference_flux(tau, eta) == pytest.approx(flux(tau, eta), rel=1e-14)

    def test_initial_profile_is_theta_at_tau_zero(self, ref_forms):
        sp, f = ref_forms
        theta0 = sp.lambdify((f.eta, f.C5), f.theta.subs(f.tau, 0))
        for _, eta, C5 in self.POINTS:
            assert initial_profile(eta, C5) == pytest.approx(theta0(eta, C5),
                                                             rel=1e-14, abs=1e-15)

    def test_general_is_reference_at_the_worked_rationals(self, ref_forms):
        # theta_general's form at A = 3/4, B = 6, eps = 1/2, C3 = 1/8,
        # K = -5/18432 (8A/B = 1, so the power is s/P) is theta_reference
        sp, f = ref_forms
        A, B, eps, C3, K = (sp.Rational(3, 4), sp.Integer(6), sp.Rational(1, 2),
                            sp.Rational(1, 8), sp.Rational(-5, 18432))
        P, Q = f.tau + C3, 1 + f.eta - 8 * C3
        general = (K * ((A * Q - B * P) / P ** 3) * sp.exp(-A * Q / (B * P))
                   * (f.s / P) ** (8 * A / B)
                   + f.C5 / 2 - 16 * (1 + eps ** 2) / (f.s * (B + 8 * A)))
        assert sp.simplify(general - f.theta) == 0

    def test_equal_boundary_amplitude_is_exact(self, ref):
        # theta_general at tau = 0 with A = 3/4, B = 6, eps = 1/2, a = 1,
        # C3 = 1/8: Theta(0, 1) = Theta(0, 0) is linear in K, with root -5/18432
        sp = pytest.importorskip("sympy")
        eta, K = sp.symbols("eta K", real=True)
        A, B, eps, C3 = (sp.Rational(3, 4), sp.Integer(6), sp.Rational(1, 2),
                         sp.Rational(1, 8))
        P, Q, s = C3, 1 + eta - 8 * C3, 1 + eta
        theta0 = (K * ((A * Q - B * P) / P ** 3) * sp.exp(-A * Q / (B * P))
                  * (s / P) ** (8 * A / B) - 16 * (1 + eps ** 2) / (s * (B + 8 * A)))
        root, = sp.solve(sp.Eq(theta0.subs(eta, 1), theta0.subs(eta, 0)), K)
        assert root == sp.Rational(-5, 18432)
        assert k_for_equal_boundaries(ref.params, 0.125) == pytest.approx(float(root),
                                                                           rel=1e-14)


#: One value x in each form a domain guard receives.
GUARD_FORMS = {
    "float": lambda x: x,
    "float64": np.float64,
    "0d-array": np.array,
    "array": lambda x: np.array([1.0, x, 2.0]),
    "dual": lambda x: Dual(x, 1.0),
    "dual-of-array": lambda x: Dual(np.array([1.0, x]), np.ones(2)),
}

REF = ReferenceCase()
#: nu = 1 and a ring wide enough to hold r = 5 for 0 <= t <= 3
WIDE = PhysicalParams(rho=1.0, Cp=3.0, k_cond=24.0, mu=1.0, mu0=0.5, T0=1.0,
                      R10=10.0, R20=1.0)
#: the largest argument a `>= 0` guard rejects
BELOW_ZERO = -math.ulp(0.0)
TRACES = BoundaryTraces(REF.params, REF.consts)
S_MSG = "8*tau + eta + 1 must be > 0"
P_MSG = "tau + C3 must be > 0 (C3=0.125)"

#: (call(x), edge, message) of every guarded public field
#: function, x in the guarded argument.  call(edge + bad) puts the guarded
#: quantity at bad (a `>= 0` guard's at bad - 5e-324), and call(good) puts
#: it at good or more, since every edge is <= 0.
FIELD_GUARDS = [
    (lambda x: to_reduced(x, 5.0, WIDE), BELOW_ZERO, "t must be >= 0"),
    (lambda x: from_reduced(x, 0.5, WIDE), BELOW_ZERO, "tau must be >= 0"),
    # eta may round up to RING_SLACK below the inner wall
    (lambda x: from_reduced(0.5, x, WIDE), math.nextafter(-RING_SLACK, -math.inf),
     "eta must be >= 0"),
    (lambda x: flow.exact_omega(0.0, x, 0.5), -1.0, "xi(tau) + eta must be > 0"),
    (lambda x: flow.velocities(x, 1.0, 0.5), 0.0, "r must be > 0"),
    (lambda x: flow.stress_components(x, 0.0, WIDE), 0.0, "r must be > 0"),
    (lambda x: flow.angular_momentum(x, WIDE), BELOW_ZERO, "t must be >= 0"),
    (lambda x: theta_simple(0.0, x, REF.params, 1.0), -1.0, S_MSG),
    (lambda x: theta_general(x, 0.5, REF.params, REF.consts), -REF.C3, P_MSG),
    (lambda x: theta_general(0.0, x, REF.params, REF.consts), -1.0, S_MSG),
    (lambda x: theta_reference(0.0, x), -1.0, S_MSG),
    (TRACES.theta1, -REF.C3, P_MSG),
    (TRACES.theta2, -REF.C3, P_MSG),
    (lambda x: dimensional_T(x, 5.0, WIDE, REF.consts), BELOW_ZERO, "t must be >= 0"),
    (lambda x: dimensional_T(0.0, x, WIDE, REF.consts), 0.0, "r must be > 0"),
]

#: the guarded public functions of 1-D float samples, as FIELD_GUARDS
SAMPLE_GUARDS = [
    (lambda x: reduced_ode_residual(lambda i1: 1.0 / i1, REF.params, x),
     0.0, "I1 samples must be > 0"),
]


def assert_rejects(call, x, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as exc:
        call(x)
    assert type(exc.value) is ValidationError


def assert_passes(call, x):
    # past the guard, 1/r^2 at r = 1e-300 may divide by an underflowed zero
    try:
        with np.errstate(all="ignore"):
            call(x)
    except ZeroDivisionError:
        pass


class TestDomainGuards:
    """Every guarded public function rejects an argument out of its domain
    in every form with ValidationError and the message it always had, and
    lets one inside it, or NaN, through; all go through `core._require_domain`."""

    @pytest.mark.parametrize("form", sorted(GUARD_FORMS))
    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_nonpositive_rejected(self, form, bad):
        for call, edge, message in FIELD_GUARDS:
            assert_rejects(call, GUARD_FORMS[form](edge + bad), message)

    @pytest.mark.parametrize("form", sorted(GUARD_FORMS))
    @pytest.mark.parametrize("good", [1e-300, 0.5, math.nan])
    def test_positive_or_nan_passes(self, form, good):
        for call, edge, message in FIELD_GUARDS:
            assert_passes(call, GUARD_FORMS[form](good))

    @pytest.mark.parametrize("x", [0.0, -0.5, 1e-300, 0.5, math.nan])
    def test_sample_guards(self, x):
        for call, edge, message in SAMPLE_GUARDS:
            if x <= 0.0:
                assert_rejects(call, np.array([1.0, edge + x, 2.0]), message)
            else:
                assert_passes(call, np.array([1.0, x, 2.0]))

    def test_scalar_trace_rejects_singular_time(self, ref):
        traces = BoundaryTraces(ref.params, ref.consts)
        for tau in (-0.125, np.float64(-0.2)):
            with pytest.raises(ValidationError, match=f"^{re.escape(P_MSG)}$"):
                traces.theta2(tau)
            with pytest.raises(ValidationError, match=f"^{re.escape(P_MSG)}$"):
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
        tr = BoundaryTraces(ref.params, ref.consts)
        for tau in (0.0, 0.1, 1.0, 10.0):
            th1, th2 = tr.theta1(tau), tr.theta2(tau)
            assert th1 == pytest.approx(
                theta_general(tau, 1.0, ref.params, ref.consts), abs=1e-12)
            assert th2 == pytest.approx(
                theta_general(tau, 0.0, ref.params, ref.consts), abs=1e-12)

    #: (params, consts, theta1 and theta2 as float.hex at WALL_TAUS) of the
    #: reference case and a general tuple whose K equalises the walls at tau = 0
    WALL_TAUS = (0.0, 0.1, 1.0, 10.0)
    WALL_HEX = {
        "reference": (REF.params, REF.consts,
                      ["0x0.0p+0", "0x1.5c4832da87950p-2", "0x1.59fd1b52b9676p-1",
                       "0x1.a0530aefe0534p-1"],
                      ["-0x1.0000000000000p-52", "0x1.511e8d2b31840p-3",
                       "0x1.511e8d2b3183cp-1", "0x1.a0325c1c0a8fap-1"]),
        "general": (ReducedParams(A=1.3, B=2.1, eps=-0.7, a=2.0),
                    SolutionConstants(C3=0.3, C5=0.8, K=float.fromhex("-0x1.b6a2daebb7276p-20")),
                    ["-0x1.e2ec51d093b3cp-2", "-0x1.ea0b7c394bdf8p-5", "0x1.13c929dbd0f71p-2",
                     "0x1.830483f7ce309p-2"],
                    ["-0x1.e2ec51d093b38p-2", "0x1.6f666a2e96864p-2", "0x1.227f4b0f5cc78p-2",
                     "0x1.828dde16c5f50p-2"]),
    }

    @pytest.mark.parametrize("case", sorted(WALL_HEX))
    def test_traces_bit_for_bit(self, case):
        # the march's Dirichlet data: trace_vs_restriction allows 1e-12 and
        # the stepwise oracle calls these same traces, so neither sees an ulp
        params, consts, hex1, hex2 = self.WALL_HEX[case]
        tr = BoundaryTraces(params, consts)
        taus = np.array(self.WALL_TAUS)
        for trace, expected in ((tr.theta1, hex1), (tr.theta2, hex2)):
            assert [float(trace(t)).hex() for t in self.WALL_TAUS] == expected
            assert [float(v).hex() for v in trace(taus)] == expected

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
        tr = BoundaryTraces(params, consts)
        assert tr.theta1(tau) > tr.theta2(tau)

    def test_difference_constant_reference_is_zero(self, ref):
        assert abs(boundary_difference_C(ref.params, ref.consts)) < 1e-12

    def test_difference_constant_vanishes_with_the_width(self, ref):
        # as a -> 0+ both bracket terms coincide and the first term carries a
        # factor a, so C = O(a): dC/da at a = 0 is 16*(1 + eps^2)/(8A + B) = 5/3
        # from the first term and K/C3^3 * 6 = -5/6 from the bracket
        a = 1e-8
        params = ReducedParams(A=0.75, B=6.0, eps=0.5, a=a)
        assert boundary_difference_C(params, ref.consts) == pytest.approx(5.0 / 6.0 * a, rel=1e-6)

    def test_difference_constant_K_zero_value(self, ref):
        # only the first term survives: 16*1*1.25/(2*12) = 5/6
        consts = SolutionConstants(C3=0.125, C5=1.0, K=0.0)
        assert boundary_difference_C(ref.params, consts) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_difference_matches_trace_difference(self, ref):
        for K in (0.0, ref.K, 0.01):
            consts = SolutionConstants(C3=0.125, C5=2.0, K=K)
            tr = BoundaryTraces(ref.params, consts)
            th1, th2 = tr.theta1(0.0), tr.theta2(0.0)
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

    @pytest.mark.parametrize("phys, consts", [
        (unit_embedding(REF.params), REF.consts),
        (PhysicalParams(rho=2.0, Cp=3.0, k_cond=5.0, mu=0.7, mu0=-0.3, T0=300.0,
                        R10=2.0, R20=1.3), SolutionConstants(C3=0.15, C5=2.0, K=0.01)),
    ], ids=["reference-unit-embedding", "general"])
    def test_mesh_derivatives_agree_across_engines(self, phys, consts):
        # dual numbers over a whole (t, r) mesh, as verification passes them;
        # t starts past 0, where the fd stencil would step below t = 0
        a = phys.R10 ** 2 / phys.R20 ** 2 - 1.0
        t, r = from_reduced(*np.meshgrid(np.linspace(0.05, 1.0, 6), np.linspace(0.0, a, 5),
                                         indexing="ij"), phys)

        def field(t, r):
            return dimensional_T(t, r, phys, consts)

        for order, i in (("d1", 0), ("d1", 1), ("d2", 1)):
            dual, fd = (getattr(engine, order)(field, (t, r), i)
                        for engine in (DerivativeEngine(), FD))
            assert dual.shape == t.shape
            assert np.max(np.abs(dual - fd)) <= ENGINE_AGREEMENT_TOL * np.max(np.abs(dual))

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

    def test_asymptotic_level_can_be_minimum(self, ref):
        # C3 = 0.3 keeps A*Q - B*P < 0 on the whole grid, so K < 0 lifts the
        # early-time field above C5/2 and the asymptotic level is the minimum
        consts = SolutionConstants(C3=0.3, C5=2.0, K=-5.0)
        rep = c5_nonnegativity_bound(ref.params, consts)
        assert rep.argmin[0] == math.inf
        assert rep.min_value == 1.0


def full_grid_scan(params, consts):
    """c5_nonnegativity_bound as one full-grid np.argmin, frozen as the oracle
    of the blockwise scan."""
    tau_grid = np.linspace(0.0, 10.0, 201)
    eta_grid = np.linspace(0.0, params.a, 201)
    vals = temperature.theta_general(tau_grid[:, None], eta_grid[None, :], params, consts)
    flat = int(np.argmin(vals))
    i, j = divmod(flat, vals.shape[1])
    min_value = float(vals[i, j])
    argmin = (float(tau_grid[i]), float(eta_grid[j]))
    level = 0.5 * consts.C5
    if level < min_value:
        min_value, argmin = level, (math.inf, math.nan)
    return temperature.NonnegativityReport(min_value, argmin)


def bits(report):
    # every float as its IEEE bit pattern, so -0.0 != 0.0 and nan == nan
    return struct.pack("<d", report.min_value), struct.pack("<2d", *report.argmin)


class TestBlockScan:
    """c5_nonnegativity_bound scans the grid in blocks of tau rows; its
    reports must be bit-equal to one full-grid argmin."""

    GENERAL = [(ReducedParams(A=0.9, B=5.0, eps=0.4, a=1.0), 0.15, 2.0),
               (ReducedParams(A=1.3, B=3.5, eps=-0.7, a=2.0), 0.2, 1.5)]

    @staticmethod
    def border_row(n_eta, n_tau=201):
        # the scan's rule: ceil(n_tau * n_eta / _SCAN_BLOCK_ELEMS) blocks of
        # ceil(n_tau / blocks) rows
        blocks = -(-n_tau * n_eta // temperature._SCAN_BLOCK_ELEMS)
        return -(-n_tau // blocks)

    @pytest.mark.parametrize("C5", [C5_MIN, 1.0, 2.0])
    def test_reference_tuple(self, ref, C5):
        consts = SolutionConstants(C3=ref.C3, C5=C5, K=ref.K)
        assert bits(c5_nonnegativity_bound(ref.params, consts)) == bits(
            full_grid_scan(ref.params, consts))

    @pytest.mark.parametrize("case", range(len(GENERAL)))
    def test_general_tuples(self, case):
        params, C3, C5 = self.GENERAL[case]
        consts = SolutionConstants(C3=C3, C5=C5, K=k_for_equal_boundaries(params, C3))
        got = c5_nonnegativity_bound(params, consts)
        assert bits(got) == bits(full_grid_scan(params, consts))

    @pytest.mark.parametrize("block_elems", [None, 1, 201, 403])
    def test_tied_minimum_straddles_block_border(self, ref, monkeypatch, block_elems):
        # the last row of the first block and the first row of the second
        # are planted bitwise equal and below every other row; the first in
        # row-major order must win
        if block_elems is not None:
            monkeypatch.setattr(temperature, "_SCAN_BLOCK_ELEMS", block_elems)
        taus = np.linspace(0.0, 10.0, 201)
        eta = np.linspace(0.0, 1.0, 201)
        border = max(1, self.border_row(len(eta)))
        tied = taus[border - 1:border + 1]
        real = temperature.theta_general

        def planted(tau, eta, params, consts):
            vals = real(tau, eta, params, consts)
            return np.where(np.isin(tau, tied), real(0.0, eta, params, consts) - 1.0, vals)

        monkeypatch.setattr(temperature, "theta_general", planted)
        rows = temperature.theta_general(tied[:, None], eta[None, :], ref.params, ref.consts)
        assert np.array_equal(rows[0].view(np.int64), rows[1].view(np.int64))
        got = c5_nonnegativity_bound(ref.params, ref.consts)
        assert bits(got) == bits(full_grid_scan(ref.params, ref.consts))
        assert got.argmin[0] == tied[0]

    def test_first_nan_wins(self, ref, monkeypatch):
        # NaNs on either side of the last block border, after a finite
        # minimum in the first block: np.argmin over the whole grid reports
        # the first NaN, and the last block's NaN must not replace it
        taus = np.linspace(0.0, 10.0, 201)
        eta = np.linspace(0.0, 1.0, 201)
        rows = self.border_row(len(eta))
        last = rows * ((len(taus) - 1) // rows)  # first row of the last block
        assert last > rows
        nan_at = [(taus[last - 1], eta[7]), (taus[last], eta[3])]
        real = temperature.theta_general

        def planted(tau, eta, params, consts):
            vals = real(tau, eta, params, consts)
            for t, e in nan_at:
                vals = np.where((tau == t) & (eta == e), np.nan, vals)
            return vals

        monkeypatch.setattr(temperature, "theta_general", planted)
        want = full_grid_scan(ref.params, ref.consts)
        assert math.isnan(want.min_value) and want.argmin == nan_at[0]
        assert bits(c5_nonnegativity_bound(ref.params, ref.consts)) == bits(want)
