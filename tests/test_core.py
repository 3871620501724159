import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ringheat import flow
from ringheat.core import (
    C5_ABS_MAX,
    RING_SLACK,
    PhysicalParams,
    ReducedParams,
    ReferenceCase,
    SolutionConstants,
    ValidationError,
    _require_domain,
    from_reduced,
    reduce_params,
    reference_case_K,
    to_reduced,
    unit_embedding,
)
from ringheat.dualnum import Dual


def phys(**kw):
    base = dict(rho=1.0, Cp=3.0, k_cond=24.0, mu=1.0, mu0=0.5, T0=1.0,
                R10=math.sqrt(2.0), R20=1.0)
    base.update(kw)
    return PhysicalParams(**base)


class TestParams:
    def test_nu_ratios_exact(self):
        p = phys(rho=4.0, mu=2.0, mu0=-1.0)
        assert p.nu == 0.5
        assert p.nu0 == -0.25

    @pytest.mark.parametrize("field,bad", [
        ("rho", -1.0), ("Cp", 0.0), ("k_cond", -2.0), ("mu", 0.0),
        ("T0", 0.0), ("R20", -0.5),
    ])
    def test_positivity_validation_names_field(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            phys(**{field: bad})

    def test_radius_ordering(self):
        with pytest.raises(ValidationError, match="R10"):
            phys(R10=0.9)

    def test_negative_mu0_allowed(self):
        assert phys(mu0=-3.0).nu0 == -3.0

    def test_reduced_validation(self):
        with pytest.raises(ValidationError, match="A"):
            ReducedParams(A=0.0, B=1.0, eps=0.0, a=1.0)
        # a ring has R10 > R20, so a width of 0 is rejected like a negative one
        for a in (-0.1, 0.0):
            with pytest.raises(ValidationError, match="^a must be > 0$"):
                ReducedParams(A=1.0, B=1.0, eps=0.0, a=a)

    @pytest.mark.parametrize("field", ["A", "B", "eps", "a"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_reduced_rejects_non_finite(self, field, bad):
        kw = dict(A=1.0, B=1.0, eps=0.0, a=1.0)
        kw[field] = bad
        with pytest.raises(ValidationError, match=f"^{field} must be a finite number"):
            ReducedParams(**kw)

    @pytest.mark.parametrize("field", ["rho", "Cp", "k_cond", "mu", "mu0", "T0", "R10", "R20"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_physical_rejects_non_finite(self, field, bad):
        with pytest.raises(ValidationError, match=f"^{field} must be a finite number"):
            phys(**{field: bad})

    def test_constants_require_positive_C3(self):
        with pytest.raises(ValidationError, match="C3"):
            SolutionConstants(C3=0.0, C5=1.0, K=0.0)

    @pytest.mark.parametrize("field, at, past", [
        # the CLI's bound too, so run_suite and solve_general reject what it rejects
        ("C5", -C5_ABS_MAX, 1e301),
        # verify's tau-derivatives square (tau + C3) ** 3
        ("C3", 2.3756689782295768e51, 2.375668978229577e51),
        # 16*(1 + eps^2) is bounded like C5
        ("eps", -2.5e149, 2.5000000000000004e149),
    ], ids=["C5", "C3", "eps"])
    def test_magnitude_bounds(self, field, at, past):
        make, kw = ((ReducedParams, dict(A=1.0, B=1.0, eps=0.0, a=1.0)) if field == "eps"
                    else (SolutionConstants, dict(C3=0.125, C5=1.0, K=0.0)))
        assert getattr(make(**{**kw, field: at}), field) == at
        with pytest.raises(ValidationError, match=f"^{field} must "):
            make(**{**kw, field: past})


#: (x, allow_zero) the domain guard lets through
_IN_DOMAIN = [
    (math.nan, False),
    (np.array([1.0, np.nan]), False),
    (np.array([]), False),
    (np.array(2.0), False),
    (3, False),
    (Dual(np.array([1.0, 2.0]), np.array([-5.0, 0.0])), False),
    (0.0, True),
    (0, True),
    (np.array([0.0, 1.0]), True),
    (Dual(np.array([0.0, 1.0]), 1.0), True),
]
#: and the ones it rejects
_OUT_OF_DOMAIN = [
    (0.0, False),
    (-1.0, False),
    (np.array([1.0, 0.0]), False),
    (np.array(-2.0), False),
    (0, False),
    (-3, False),
    (Dual(np.array([1.0, -2.0]), np.array([0.0, 0.0])), False),
    (Dual(Dual(np.array([0.0]), 1.0), 1.0), False),
    (np.array([0.0, -1e-300]), True),
    (-1, True),
]


class TestDomainGuard:
    @pytest.mark.parametrize("x, allow_zero", _IN_DOMAIN)
    def test_passes(self, x, allow_zero):
        assert _require_domain(x, "x must be > 0 (C3={})", 0.125, allow_zero=allow_zero) is None

    @pytest.mark.parametrize("x, allow_zero", _OUT_OF_DOMAIN)
    def test_rejects_with_the_formatted_message(self, x, allow_zero):
        with pytest.raises(ValidationError) as exc:
            _require_domain(x, "x must be > 0 (C3={}, a={})", 0.125, 1, allow_zero=allow_zero)
        assert str(exc.value) == "x must be > 0 (C3=0.125, a=1)"


class TestReduceParams:
    def test_eps_is_viscosity_ratio(self):
        # nu0 = 0.5, nu = 1
        assert reduce_params(phys(mu0=0.5)).eps == 0.5

    def test_a_from_radii(self):
        assert reduce_params(phys(R10=math.sqrt(2.0))).a == pytest.approx(1.0, abs=1e-15)

    def test_reference_groups(self):
        # rho*Cp*R20^2*T0 = 3*mu^2 and k*R20^2*T0 = 24*mu^3 give A = 3/4, B = 6
        rp = reduce_params(phys(rho=1.0, Cp=3.0, k_cond=24.0, mu=1.0))
        assert rp.A == 0.75
        assert rp.B == 6.0
        rp2 = reduce_params(phys(rho=2.0, Cp=6.0, k_cond=192.0, mu=2.0, mu0=1.0,
                                 R20=1.0, T0=1.0))
        assert rp2.A == pytest.approx(0.75)
        assert rp2.B == pytest.approx(6.0)

    @given(st.floats(min_value=0.25, max_value=4.0))
    def test_scaling_viscosities(self, lam):
        base = reduce_params(phys())
        scaled = reduce_params(phys(mu=lam, mu0=0.5 * lam))
        assert scaled.eps == pytest.approx(base.eps, rel=1e-12)
        assert scaled.A == pytest.approx(base.A / lam ** 2, rel=1e-12)
        assert scaled.B == pytest.approx(base.B / lam ** 3, rel=1e-12)

    def test_unit_embedding_roundtrip(self):
        rp = ReducedParams(A=1.7, B=3.3, eps=-0.4, a=2.5)
        back = reduce_params(unit_embedding(rp))
        assert back.A == pytest.approx(rp.A, rel=1e-14)
        assert back.B == pytest.approx(rp.B, rel=1e-14)
        assert back.eps == pytest.approx(rp.eps, rel=1e-14)
        assert back.a == pytest.approx(rp.a, rel=1e-14)


class TestCoordinateMaps:
    def test_boundaries_at_t0(self):
        p = phys()
        assert to_reduced(0.0, p.R20, p) == (0.0, 0.0)
        tau, eta = to_reduced(0.0, p.R10, p)
        assert tau == 0.0
        assert eta == pytest.approx(reduce_params(p).a, abs=1e-15)

    def test_interior_point(self):
        # nu = 1, R20 = 1: R2^2(1) = 9, so r = 3 maps to eta = 0
        p = phys(R10=4.0)
        tau, eta = to_reduced(1.0, 3.0, p)
        assert tau == 1.0
        assert eta == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            to_reduced(-0.1, 1.0, phys())
        with pytest.raises(ValidationError):
            from_reduced(-0.1, 0.0, phys())
        with pytest.raises(ValidationError):
            from_reduced(0.1, -0.5, phys())

    def test_outside_ring_warns_but_evaluates(self):
        p = phys()
        with pytest.warns(RuntimeWarning):
            tau, eta = to_reduced(0.0, 10.0, p)
        assert eta > reduce_params(p).a

    def test_inverse_trivial_points(self):
        p = phys()
        assert from_reduced(0.0, 0.0, p) == (0.0, p.R20)
        t, r = from_reduced(0.0, reduce_params(p).a, p)
        assert t == 0.0
        assert r == pytest.approx(p.R10, rel=1e-15)

    def test_inner_wall_roundtrips(self):
        # to_reduced of the inner wall rounds eta below 0 at some times, by
        # far less than RING_SLACK, and from_reduced maps it back
        p = unit_embedding(ReferenceCase().params)
        t = np.linspace(0.0, 10.0, 101)
        _, r2 = flow.radii(t, p)
        tau, eta = to_reduced(t, r2, p)
        assert np.count_nonzero(eta < 0.0) > 0
        assert np.min(eta) >= -RING_SLACK
        _, r = from_reduced(tau, eta, p)
        assert np.max(np.abs(r - r2) / r2) <= 1e-15

    @pytest.mark.parametrize("eta", [math.nextafter(-RING_SLACK, -math.inf), -1e-9,
                                     np.array([0.0, -2e-12, 0.5])])
    def test_eta_past_ring_slack_rejected(self, eta):
        with pytest.raises(ValidationError, match="^eta must be >= 0$"):
            from_reduced(0.1, eta, phys())

    def test_roundtrip_100_random_points(self):
        p = phys(rho=1.3, mu=0.7, R10=3.0, R20=1.2, Cp=2.0, k_cond=5.0)
        rng = np.random.default_rng(42)
        t = 10.0 * rng.random(100)
        r1, r2 = np.sqrt(8 * p.nu * t + p.R10 ** 2), np.sqrt(8 * p.nu * t + p.R20 ** 2)
        r = r2 + (r1 - r2) * rng.random(100)
        tau, eta = to_reduced(t, r, p)
        tb, rb = from_reduced(tau, eta, p)
        assert np.max(np.abs(tb - t) / np.maximum(np.abs(t), 1e-30)) < 1e-12
        assert np.max(np.abs(rb - r) / r) < 1e-12

    @given(st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=5.0))
    def test_map_identity(self, t, eta_frac):
        # 8*tau + eta + 1 = r^2/R20^2 wherever the map is applied
        p = phys(R10=3.0, R20=1.5)
        eta = eta_frac * reduce_params(p).a / 5.0
        _, r = from_reduced(p.nu * t / p.R20 ** 2, eta, p)
        tau2, eta2 = to_reduced(t, float(r), p)
        lhs = 8.0 * tau2 + eta2 + 1.0
        assert lhs == pytest.approx(float(r) ** 2 / p.R20 ** 2, rel=1e-12)


class TestConstants:
    def test_reference_case_K_exact_rational(self):
        # at C3 = 1/8 the exp(1 - 1/(4*C3)) term has coefficient 4*(8*C3-1) = 0
        # and exp(1 - 1/(8*C3)) = exp(0) = 1, so the formula is rational
        C3 = Fraction(1, 8)
        num = Fraction(10, 9) * C3 ** 4
        den = 0 - (16 * C3 - 1) * 1
        assert num / den == Fraction(-5, 6 ** 2 * 8 ** 3)
        assert abs(reference_case_K(0.125) - float(Fraction(-5, 18432))) < 1e-19

    def test_reference_case_K_matches_printed_decimal(self):
        assert abs(reference_case_K(0.125) - (-0.00027127)) < 1e-8

    def test_rational_constants_exactly_representable(self, ref):
        # both exactly rational constants survive the float round trip
        assert Fraction(ref.C3) == Fraction(1, 8)
        assert Fraction(-5, 18432) == Fraction(ref.K).limit_denominator(10 ** 9)

    def test_reference_case_K_highprecision_oracle(self):
        # 50-digit evaluation of the same closed form
        mpmath.mp.dps = 50
        for c3 in (Fraction(1, 16), Fraction(1, 5), Fraction(3, 10)):
            c = mpmath.mpf(c3.numerator) / c3.denominator
            num = mpmath.mpf(10) / 9 * c ** 4
            den = (4 * (8 * c - 1) * mpmath.e ** (1 - 1 / (4 * c))
                   - (16 * c - 1) * mpmath.e ** (1 - 1 / (8 * c)))
            assert reference_case_K(float(c3)) == pytest.approx(float(num / den), rel=1e-13)

    def test_reference_case_K_singular_denominator(self):
        # as C3 -> 0+ both exponentials vanish, so the denominator underflows
        with pytest.raises(ValidationError, match="denominator of the amplitude formula vanishes"):
            reference_case_K(0.003)

    @pytest.mark.parametrize("C3", [1e80, math.inf], ids=["C3-4th-power-overflows", "inf"])
    def test_reference_case_K_takes_the_one_C3_rule(self, C3):
        # the rule SolutionConstants and k_for_equal_boundaries apply: no raw
        # OverflowError from C3 ** 4, no nan from inf / inf
        with pytest.raises(ValidationError, match=r"^C3 must keep \(C3\^3\)\^2 finite"):
            reference_case_K(C3)

    def test_reference_case_tuple(self, ref):
        assert ref.K == -5.0 / 18432.0
        assert ref.params == ReducedParams(A=0.75, B=6.0, eps=0.5, a=1.0)
        assert ref.consts.C3 == 0.125
        assert ReferenceCase(C5=2.0).consts.C5 == 2.0
        with pytest.raises(TypeError):  # C5 is the one field; the rest are fixed
            ReferenceCase(K=0.0)
