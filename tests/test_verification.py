import math
import random
import types
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.integrate import quad as scipy_quad

from conftest import (ENGINE_AGREEMENT_TOL, FD, OVERFLOWING_MEMBER, assert_overflowing_start,
                      general_family)
from ringheat import dualnum, flow, temperature, verification
from ringheat.core import ReducedParams, SolutionConstants, ValidationError
from ringheat.dualnum import value
from ringheat.temperature import (
    theta_general,
    theta_reference,
    theta_simple,
)
from ringheat.verification import (
    DerivativeEngine,
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

DUAL = DerivativeEngine()
#: the verification grid of the reference case's strip [0, 1]
GRID = standard_grid(1.0)


def zero_field(tau, eta):
    """b2 = 0: the generator coefficient of the pure translations."""
    return 0.0


class TestEngine:
    def test_modes_agree_on_closed_forms(self, ref):
        fields = [
            partial(theta_simple, params=ref.params, level=ref.C5),
            partial(theta_general, params=ref.params, consts=ref.consts),
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

    def test_modes_agree_on_standard_grid_not_on_kinked_field(self, ref):
        def kinked(tau, eta):
            # z^2 for eta > 0.5, else 0, written array-safe: the second
            # derivative jumps at eta = 0.5 where engine and oracle disagree
            z = eta - 0.5
            return z * z * (value(z) > 0.0)

        def partials(engine, fld):
            args = np.meshgrid(*standard_grid(1.0), indexing="ij")
            return engine.d1(fld, args, 0), engine.d1(fld, args, 1), engine.d2(fld, args, 1)

        def worst_gap(fld):
            return max(float(np.max(np.abs(d - f)))
                       for d, f in zip(partials(DUAL, fld), partials(FD, fld)))

        for fld in (partial(theta_simple, params=ref.params, level=ref.C5),
                    partial(theta_general, params=ref.params, consts=ref.consts),
                    partial(theta_reference, C5=ref.C5)):
            assert worst_gap(fld) <= ENGINE_AGREEMENT_TOL
        assert worst_gap(kinked) > ENGINE_AGREEMENT_TOL


def exact_bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestNestedPass:
    """`DerivativeEngine.d1_d2` gives `d1` and `d2` from one nested pass, bit
    for bit, on every field `run_suite` takes an eta (or I1) pair of."""

    WIDE = ReducedParams(A=1.3, B=2.1, eps=-0.7, a=2.0)

    @classmethod
    def cases(cls, ref):
        wide_consts = SolutionConstants(
            C3=0.3, C5=0.8, K=temperature.k_for_equal_boundaries(cls.WIDE, 0.3))
        mesh = lambda a: tuple(np.meshgrid(*standard_grid(a), indexing="ij"))
        return [
            (partial(theta_simple, params=ref.params, level=ref.C5), mesh(1.0), 1),
            (partial(theta_simple, params=cls.WIDE, level=0.8), mesh(2.0), 1),
            (partial(theta_general, params=ref.params, consts=ref.consts), mesh(1.0), 1),
            (partial(theta_general, params=cls.WIDE, consts=wide_consts), mesh(2.0), 1),
            (lambda tau, eta: theta_reference(tau, eta, ref.C5), mesh(1.0), 1),
            (partial(flow.exact_omega, eps=ref.params.eps), mesh(1.0), 1),
            (partial(flow.exact_omega, eps=cls.WIDE.eps), mesh(2.0), 1),
            (lambda i1: theta_simple(0.0, i1 - 1.0, ref.params, ref.C5),
             (np.linspace(1.0, 81.0, 41),), 0),
        ]

    def test_pair_equals_engine_bit_for_bit(self, ref):
        for fld, args, i in self.cases(ref):
            p1, p2 = DUAL.d1_d2(fld, args, i)
            assert np.array_equal(exact_bits(p1), exact_bits(DUAL.d1(fld, args, i)))
            assert np.array_equal(exact_bits(p2), exact_bits(DUAL.d2(fld, args, i)))

    def test_field_without_the_variable_gives_zeros(self):
        args = tuple(np.meshgrid(*GRID, indexing="ij"))
        for p in DUAL.d1_d2(lambda tau, eta: tau * tau, args, 1):
            assert p.shape == args[0].shape and not np.any(p)
        assert dualnum.d1_d2(lambda x: 3.0, 2.0) == (0.0, 0.0)
        assert DUAL.d1_d2(lambda tau, eta: 3.0, (0.5, 0.25), 1) == (0.0, 0.0)


class TestShaped:
    """`_shaped` hands back a float array of the arguments' shape that no
    argument shares memory with, and a float for float arguments."""

    ARGS = tuple(np.meshgrid(*GRID, indexing="ij"))

    def check_fresh(self, out):
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.shape == self.ARGS[0].shape and out.flags.writeable
        assert not any(np.shares_memory(out, a) for a in self.ARGS)

    def test_owned_derivative_array_is_kept(self):
        fld = lambda tau, eta: tau * eta * eta
        y = dualnum.d1(verification._section(fld, self.ARGS, 1), self.ARGS[1])
        out = verification._shaped(y, self.ARGS)
        assert out is y
        self.check_fresh(out)

    def test_linear_field_derivative_is_broadcast_and_copied(self):
        # f = 2*tau + 3*eta: the eta-derivative arrives as the float 3.0
        fld = lambda tau, eta: 2.0 * tau + 3.0 * eta
        y = dualnum.d1(verification._section(fld, self.ARGS, 1), self.ARGS[1])
        assert y == 3.0 and not isinstance(y, np.ndarray)
        out = DUAL.d1(fld, self.ARGS, 1)
        self.check_fresh(out)
        assert np.all(out == 3.0)

    def test_view_is_copied(self):
        base = np.ones((2,) + self.ARGS[0].shape)
        out = verification._shaped(base[0], self.ARGS)
        self.check_fresh(out)
        assert not np.shares_memory(out, base)

    def test_float_arguments_give_a_float(self):
        fld = lambda tau, eta: tau * eta * eta
        for out in (DUAL.d1(fld, (0.5, 2.0), 1), *DUAL.d1_d2(fld, (0.5, 2.0), 1)):
            assert type(out) is float
        assert DUAL.d1_d2(fld, (0.5, 2.0), 1) == (2.0, 1.0)


class TestMesh:
    """`_mesh` builds what np.meshgrid(..., indexing="ij") builds, as new
    C-contiguous float arrays."""

    def test_mesh_is_meshgrid_bit_for_bit(self):
        tau = GRID[0]
        for grid in (GRID, standard_grid(2.0), (tau, [0.0, 1.0]), ([0, 1, 2], [0.5])):
            want = np.meshgrid(*(np.asarray(g, dtype=float) for g in grid), indexing="ij")
            for got, w in zip(verification._mesh(grid), want, strict=True):
                assert got.dtype == np.float64
                assert got.flags.c_contiguous and got.flags.writeable
                assert np.array_equal(exact_bits(got), exact_bits(w))


class TestTemperatureEquation:
    def test_simple_solution_residual(self, ref):
        rep = temperature_equation_residual(
            partial(theta_simple, params=ref.params, level=0.9), ref.params, GRID)
        assert rep.value < 1e-9
        assert rep.passed
        assert rep.n_samples == 24 * 21

    def test_general_solution_residual(self, ref):
        rep = temperature_equation_residual(
            partial(theta_general, params=ref.params, consts=ref.consts), ref.params, GRID)
        assert rep.value < 1e-9

    def test_general_solution_any_K(self, ref):
        # the exponential mode solves the homogeneous equation for every K
        consts = SolutionConstants(C3=0.125, C5=1.0, K=0.37)
        rep = temperature_equation_residual(
            partial(theta_general, params=ref.params, consts=consts), ref.params, GRID)
        assert rep.value < 1e-9

    def test_nonreference_parameters(self):
        params = ReducedParams(A=1.3, B=2.1, eps=-0.7, a=2.0)
        consts = SolutionConstants(C3=0.3, C5=0.8, K=0.05)
        rep = temperature_equation_residual(
            partial(theta_general, params=params, consts=consts), params,
            standard_grid(params.a))
        assert rep.value < 1e-9

    def test_perturbed_field_residual_hand_oracle(self, ref):
        # adding eta^2 contributes -B*d/deta(s*2*eta) = -2*B*(8*tau + 2*eta + 1)
        base = partial(theta_general, params=ref.params, consts=ref.consts)
        fld = lambda tau, eta: base(tau, eta) + eta ** 2
        rep0 = temperature_equation_residual(fld, ref.params, grid=([0.0], [0.0]))
        assert rep0.value == pytest.approx(2.0 * ref.params.B, abs=1e-9)
        rep1 = temperature_equation_residual(fld, ref.params, grid=([0.5], [0.25]))
        assert rep1.value == pytest.approx(
            abs(-2.0 * ref.params.B * (8.0 * 0.5 + 2.0 * 0.25 + 1.0)), abs=1e-9)

    def test_nan_residual_fails(self, ref):
        # NaN compares false against everything; the reduction must still
        # report it as the worst residual and fail
        rep = temperature_equation_residual(lambda t, e: float("nan") * t, ref.params, GRID)
        assert math.isnan(rep.value)
        assert rep.worst_point == (0.0, 0.0)
        assert not rep.passed

    def test_empty_grid_rejected(self, ref):
        fld = partial(theta_general, params=ref.params, consts=ref.consts)
        with pytest.raises(ValidationError):
            temperature_equation_residual(fld, ref.params, grid=([], [0.0]))

    # fd values on arrays may differ from scalar ones by the difference
    # quotient's roundoff, since numpy's vector exp need not round like its
    # scalar one
    @pytest.mark.parametrize("engine, atol", [(DUAL, 1e-15), (FD, 1e-9)], ids=["dual", "fd"])
    def test_engine_on_arrays_matches_scalars(self, ref, engine, atol):
        fld = partial(theta_general, params=ref.params, consts=ref.consts)
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
        rep = temperature_equation_residual(fld, ref.params, GRID)
        # residual magnitude grows with tau and eta, so the worst point is the corner
        assert rep.worst_point == (10.0, 1.0)


class TestReferenceEquation:
    def test_reference_solution_residual(self):
        grid = (np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 10))
        rep = reference_equation_residual(grid=grid)
        assert rep.value < 1e-9

    def test_constant_field_residual_is_source(self, monkeypatch):
        # a constant in place of theta_reference leaves the source 80/(3*s^2)
        monkeypatch.setattr(verification.temperature, "theta_reference",
                            lambda tau, eta, C5: 5.0 / 6.0)
        rep = reference_equation_residual(grid=([0.0], [0.0]))
        assert rep.value == pytest.approx(80.0 / 3.0, rel=1e-13)

    def test_coefficients_consistent_with_general_equation(self, ref):
        # dividing the general equation by A at the reference constants
        assert ref.params.B / ref.params.A == pytest.approx(8.0, abs=1e-12)
        assert 16.0 * (1.0 + ref.params.eps ** 2) / ref.params.A == pytest.approx(
            80.0 / 3.0, abs=1e-12)


class TestFlowResiduals:
    @pytest.mark.parametrize("eps", [0.5, 0.0, -1.2])
    def test_exact_branch_everything_small(self, eps):
        reports = flow_residuals(eps, GRID)
        assert reports["azimuthal_momentum"].value < 1e-10
        assert reports["boundary_flux"].value < 1e-12
        assert reports["flux_evolution"].value < 1e-10
        assert reports["ring_scale"].value < 1e-12
        assert all(r.passed for r in reports.values())

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("eps", [0.5, 0.0, -1.2])
    def test_wall_flux_equals_a_pass_on_the_walls_bit_for_bit(self, eps, a, monkeypatch):
        # boundary_flux takes omega_eta from the interior mesh's first and
        # last eta columns; its residual must be the one a separate d1 pass
        # on the (tau, {0, a}) mesh gives, to the bit, at the same points
        kept = {}
        real = verification._report

        def keep(name, residual, coords, tol):
            kept[name] = residual, coords
            return real(name, residual, coords, tol)

        monkeypatch.setattr(verification, "_report", keep)
        grid = standard_grid(a)
        flow_residuals(eps, grid)
        TW, EW = np.meshgrid(grid[0], [0.0, a], indexing="ij")
        sw = 8.0 * TW + 1.0 + EW
        omega_eta = DUAL.d1(partial(flow.exact_omega, eps=eps), (TW, EW), 1)
        walls, coords = kept["boundary_flux"]
        assert np.array_equal(exact_bits(walls),
                              exact_bits(omega_eta + eps * flow.PSI / (sw * sw)))
        for c, w in zip(coords, (TW, EW), strict=True):
            assert np.array_equal(exact_bits(c), exact_bits(w))

    def test_grid_off_the_inner_wall_is_rejected(self):
        # the inner wall is read from the grid's first eta
        with pytest.raises(ValidationError, match="grid's first eta, which must be 0.0"):
            flow_residuals(0.5, (GRID[0], np.linspace(0.1, 1.0, 21)))


def per_tau_quad_integral(eps, tau, a, engine):
    """The flux-evolution eta integral as one adaptive scipy `quad` per
    tau, each integrand evaluation calling the engine on one scalar eta:
    an oracle that shares neither the rule nor the vectorisation with the
    Gauss-Legendre integral of `flow_residuals`."""

    def omega(tau, eta):
        return flow.exact_omega(tau, eta, eps)

    return np.array([
        scipy_quad(lambda e: omega(t, e) ** 2 + 4.0 * eps * engine.d1(omega, (t, e), 1),
             0.0, a, epsabs=1e-12, epsrel=1e-12)[0]
        for t in np.asarray(tau, dtype=float).tolist()])


@pytest.fixture
def quad_calls(monkeypatch):
    """Record every call of `verification.quad` as a namespace holding the
    rule's node count, its estimate, the number of nodes passed to each
    integrand call, and the number of dual-engine (`dualnum.d1`) calls the
    integrand made."""
    calls = []
    real = verification.quad
    real_d1 = dualnum.d1
    engine_calls = [0]

    def d1(*args):
        engine_calls[0] += 1
        return real_d1(*args)

    def spy(f, lo, hi, n):
        call = types.SimpleNamespace(n=n, nodes=[], engine_calls=0, estimate=None)

        def counted(x):
            call.nodes.append(len(x))
            before = engine_calls[0]
            out = f(x)
            call.engine_calls += engine_calls[0] - before
            return out

        call.estimate = real(counted, lo, hi, n)
        calls.append(call)
        return call.estimate

    monkeypatch.setattr(dualnum, "d1", d1)
    monkeypatch.setattr(verification, "quad", spy)
    return calls


class TestFluxEvolutionQuadrature:
    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("eps", [0.5, 0.0, -1.2])
    def test_vector_integral_matches_per_tau_oracle(self, eps, a, quad_calls):
        grid = standard_grid(a)
        flow_residuals(eps, grid)
        coarse, fine = quad_calls
        oracle = per_tau_quad_integral(eps, grid[0], a, DUAL)
        assert np.max(np.abs(fine.estimate - oracle)) <= 1e-15

    def test_engine_runs_once_per_batch_of_nodes(self, quad_calls):
        # each rule passes all its nodes to one integrand call, and the
        # dual engine evaluates them together rather than one node at a time
        flow_residuals(0.5, GRID)
        assert len(quad_calls) == 2
        for call in quad_calls:
            assert call.nodes == [call.n]
            assert call.n >= 21
            assert call.engine_calls == 1

    def test_unconverged_integral_fails_the_check(self, monkeypatch):
        # the 42-node rule disagrees with the 21-node one at every tau
        real = verification.quad

        def disagreeing(f, lo, hi, n):
            return real(f, lo, hi, n) + (1e-6 if n == 42 else 0.0)

        monkeypatch.setattr(verification, "quad", disagreeing)
        reports = flow_residuals(0.5, GRID)
        assert math.isnan(reports["flux_evolution"].value)
        assert not reports["flux_evolution"].passed
        assert all(reports[k].passed for k in
                   ("azimuthal_momentum", "boundary_flux", "ring_scale"))


class TestSymbolicFlowBranch:
    """The exact flow branch substituted by sympy: an oracle that shares
    nothing with the dual engine or the quadrature."""

    @pytest.fixture
    def branch(self):
        sp = pytest.importorskip("sympy")
        tau, eta, eps = sp.symbols("tau eta epsilon", real=True)
        a = sp.symbols("a", positive=True)
        psi = sp.Integer(4)
        xi = 1 + 2 * psi * tau  # dxi/dtau = 2*Psi, xi(0) = 1
        omega = 4 * eps / (8 * tau + 1 + eta)
        return sp, types.SimpleNamespace(tau=tau, eta=eta, eps=eps, a=a, psi=psi,
                                         xi=xi, omega=omega)

    def test_closed_forms_are_the_codes(self, branch):
        sp, b = branch
        omega = sp.lambdify((b.tau, b.eta, b.eps), b.omega)
        xi = sp.lambdify(b.tau, b.xi)
        for tau, eta, eps in [(0.0, 0.0, 0.5), (0.3, 0.7, -1.2), (10.0, 2.0, 0.9)]:
            assert flow.exact_omega(tau, eta, eps) == pytest.approx(omega(tau, eta, eps),
                                                                    rel=1e-15)
            assert flow.xi(tau) == pytest.approx(xi(tau), rel=1e-15)
        assert flow.PSI == float(b.psi)

    def test_flux_evolution_balance_is_zero(self, branch):
        sp, b = branch
        integral = sp.integrate(b.omega ** 2 + 4 * b.eps * sp.diff(b.omega, b.eta),
                                (b.eta, 0, b.a))
        lnf = sp.log(1 + b.a / b.xi)
        term1 = b.a * b.psi * (b.psi - 4) / (b.xi * (b.xi + b.a) * lnf)
        assert sp.simplify(-(term1 + integral / lnf)) == 0

    @pytest.mark.parametrize("wall", ["inner", "outer"])
    def test_wall_flux_relation_is_zero(self, branch, wall):
        sp, b = branch
        rel = sp.diff(b.omega, b.eta) + b.eps * b.psi / (b.xi + b.eta) ** 2
        at = 0 if wall == "inner" else b.a
        assert sp.simplify(rel.subs(b.eta, at)) == 0

    def test_azimuthal_momentum_is_zero(self, branch):
        sp, b = branch
        s = 8 * b.tau + 1 + b.eta
        w = b.omega
        rel = (sp.diff(w, b.tau) + 2 * b.psi * w / s - 4 * s * sp.diff(w, b.eta, 2)
               - 8 * sp.diff(w, b.eta))
        assert sp.simplify(rel) == 0


class TestDeterminingEquation:
    def test_simple_profile_solves_it(self, ref):
        # source factor -(C2+C4) = 1 reproduces the inhomogeneous equation
        b2 = partial(theta_simple, params=ref.params, level=ref.C5)
        rep = determining_equation_residual(b2, 0.0, 1.0, -2.0, ref.params, GRID)
        assert rep.value < 1e-9

    def test_zero_b2_zero_source(self, ref):
        rep = determining_equation_residual(zero_field, 0.0, 1.0, -1.0, ref.params, GRID)
        assert rep.value == 0.0

    def test_zero_b2_unit_source(self, ref):
        rep = determining_equation_residual(zero_field, 0.0, 1.0, 0.0, ref.params,
                                            grid=([0.0], [0.0]))
        # residual = 16*(1+eps^2)/s^2 = 20 at the origin
        assert rep.value == pytest.approx(20.0, rel=1e-13)

    def test_time_dependent_source_term(self, ref):
        # C1 != 0 activates the (tau - (A/B)*eta) factor; b2 = 0 leaves just the source
        rep = determining_equation_residual(zero_field, 2.0, 0.0, 0.0, ref.params,
                                            grid=([1.0], [0.0]))
        expected = 16.0 * 1.25 / 81.0 * (-(2.0 / 2.0) * (1.0 - 0.0))
        assert rep.value == pytest.approx(abs(expected), rel=1e-12)


class TestSymbolicDeterminingEquation:
    """The generator's second prolongation applied to the reduced equation by
    sympy: a symbolic oracle, beside the dual-number residuals, that
    `operator_coefficients` generates a symmetry for every C1..C4 exactly
    when b2 solves `determining_equation_residual`'s equation."""

    @pytest.mark.parametrize("A, B, eps", [("3/4", "6", "1/2"), ("13/10", "21/10", "-7/10")],
                             ids=["reference", "general"])
    def test_prolongation_leaves_the_determining_equation(self, A, B, eps):
        sp = pytest.importorskip("sympy")
        A, B, eps = (sp.Rational(x) for x in (A, B, eps))
        tau, eta, th, p, r = sp.symbols("tau eta theta p r")  # p, r: theta_eta, theta_etaeta
        C1, C2, C3, C4 = sp.symbols("C1:5")
        b2 = sp.Function("b2")(tau, eta)
        theta = sp.Function("theta")(tau, eta)
        xi1, xi2, eta1 = operator_coefficients(C1, C2, C3, C4, sp.Function("b2"),
                                               ReducedParams(A=A, B=B, eps=eps, a=sp.Integer(1)))
        # the code's float literals (0.5, 8.0) are binary fractions: exact as rationals
        X1, X2, phi = (sp.nsimplify(e, rational=True)
                       for e in (xi1(tau), xi2(tau, eta), eta1(tau, eta, theta)))
        assert not X1.has(eta)

        s = 8 * tau + eta + 1
        q = 16 * (1 + eps ** 2)
        th_t, th_e, th_ee = theta.diff(tau), theta.diff(eta), theta.diff(eta, 2)
        # second prolongation (Olver, Applications of Lie Groups to
        # Differential Equations, Thm. 2.36); xi1 does not depend on eta
        e_t = phi.diff(tau) - th_t * X1.diff(tau) - th_e * X2.diff(tau)
        e_e = phi.diff(eta) - th_e * X2.diff(eta)
        e_ee = e_e.diff(eta) - th_ee * X2.diff(eta)
        # F = A*theta_tau - B*(theta_eta + s*theta_etaeta) - q/s^2 depends
        # on tau and eta explicitly through s alone
        dF_ds = -B * th_ee + 2 * q / s ** 3
        prX = (8 * X1 + X2) * dF_ds + A * e_t - B * e_e - B * s * e_ee
        on_solutions = (prX.subs(th_ee, r).subs(th_e, p)
                        .subs(th_t, (B * (p + s * r) + q / s ** 2) / A).subs(theta, th))
        assert not on_solutions.has(sp.Derivative(theta, tau, eta))

        for jet in (th, p, r):
            assert sp.simplify(on_solutions.diff(jet)) == 0
        left = on_solutions.subs({th: 0, p: 0, r: 0})
        determining = (A * b2.diff(tau) - B * (b2.diff(eta) + s * b2.diff(eta, 2))
                       + q / s ** 2 * ((C2 + C4) + C1 / 2 * (tau - A / B * eta)))
        assert sp.simplify(left - determining) == 0

        # ... and the code's residual is that equation, here at a polynomial b2
        params = ReducedParams(A=float(A), B=float(B), eps=float(eps), a=1.0)
        poly = tau ** 2 * eta - 3 * eta ** 3 + tau
        consts = {C1: 0.5, C2: 1.0, C4: -2.5}
        want = sp.lambdify((tau, eta), left.subs(b2, poly).doit().subs(consts))
        for t, e in [(0.0, 0.0), (0.3, 0.7), (5.0, 1.0)]:
            rep = determining_equation_residual(
                lambda tau, eta: tau * tau * eta - 3.0 * eta ** 3 + tau,
                consts[C1], consts[C2], consts[C4], params, ([t], [e]))
            assert rep.value == pytest.approx(abs(want(t, e)), rel=1e-12, abs=1e-13)


class TestSymmetryMachinery:
    def test_translation_annihilates_I1_exactly(self, ref):
        I1, I2 = translation_invariants()
        val = invariant_annihilation((0.0, 0.0, 0.125, 0.0, zero_field), I1,
                                     params=ref.params, grid=GRID).value
        assert val == 0.0
        # I2 = Theta is annihilated too since eta1 = 0
        assert invariant_annihilation((0.0, 0.0, 0.125, 0.0, zero_field), I2,
                                      params=ref.params, grid=GRID).value == 0.0

    def test_scaling_invariants_annihilated(self, ref):
        J1, J2 = scaling_invariants(ref.params, ref.consts)
        b2 = partial(theta_simple, params=ref.params, level=ref.C5)
        coeffs = (0.0, 1.0, 0.125, -2.0, b2)
        assert invariant_annihilation(coeffs, J1, params=ref.params, grid=GRID).value < 1e-9
        assert invariant_annihilation(coeffs, J2, params=ref.params, grid=GRID).value < 1e-8

    def test_annihilation_independent_of_theta_for_J1(self, ref):
        J1, _ = scaling_invariants(ref.params, ref.consts)
        b2 = partial(theta_simple, params=ref.params, level=ref.C5)
        xi1, xi2, eta1 = operator_coefficients(0.0, 1.0, 0.125, -2.0, b2, ref.params)
        TT, EE = np.meshgrid(*GRID, indexing="ij")
        # X(J1) at every grid point for each Theta sample, one column each
        vals = np.stack([
            xi1(TT) * dualnum.d1(lambda t: J1(t, EE, th), TT)
            + xi2(TT, EE) * dualnum.d1(lambda e: J1(TT, e, th), EE)
            + eta1(TT, EE, th) * dualnum.d1(lambda x: J1(TT, EE, x), th)
            for th in verification.THETA_SAMPLES], axis=-1).reshape(-1, 3)
        assert vals.shape[1] == len(verification.THETA_SAMPLES)
        assert float(np.var(vals, axis=1).max()) < 1e-14

    @pytest.mark.parametrize("case", ["reference", "general"])
    def test_directional_pass_agrees_with_three_partials(self, ref, case):
        # X(J) from one directional pass against the sum of J's three
        # partials, each from its own d1 pass, on the same (tau, eta, Theta)
        # mesh; the translation (I1, I2) and J1 cancel exactly in the pass
        if case == "reference":
            params, consts = ref.params, ref.consts
        else:
            params = ReducedParams(A=1.3, B=2.1, eps=-0.7, a=2.0)
            consts = SolutionConstants(C3=0.3, C5=0.8,
                                       K=temperature.k_for_equal_boundaries(params, 0.3))
        grid = standard_grid(params.a)
        translation = (0.0, 0.0, consts.C3, 0.0, zero_field)
        scaling = (0.0, 1.0, consts.C3, -2.0,
                   partial(theta_simple, params=params, level=consts.C5))
        I1, I2 = translation_invariants()
        J1, J2 = scaling_invariants(params, consts)
        TT, EE, TH = np.meshgrid(*grid, verification.THETA_SAMPLES, indexing="ij")
        for coeffs, J, exact in ((translation, I1, True), (translation, I2, True),
                                 (scaling, J1, True), (scaling, J2, False)):
            xi1, xi2, eta1 = operator_coefficients(*coeffs, params)
            partials = (dualnum.d1(lambda t: J(t, EE, TH), TT),
                        dualnum.d1(lambda e: J(TT, e, TH), EE),
                        dualnum.d1(lambda x: J(TT, EE, x), TH))
            oracle = np.max(np.abs(xi1(TT) * partials[0] + xi2(TT, EE) * partials[1]
                                   + eta1(TT, EE, TH) * partials[2]))
            got = invariant_annihilation(coeffs, J, params, grid).value
            assert abs(got - oracle) <= 1e-12, (J, got, oracle)
            if exact:
                assert got == 0.0, J

    def test_operator_coefficient_structure(self, ref):
        xi1, xi2, eta1 = operator_coefficients(0.0, 1.0, 0.125, -2.0, zero_field, ref.params)
        assert xi1(2.0) == 2.125
        assert xi2(0.0, 0.5) == 1.5 - 1.0
        assert eta1(0.0, 0.0, 3.0) == -6.0

    def test_general_coefficients_with_C1(self, ref):
        xi1, xi2, eta1 = operator_coefficients(2.0, 0.0, 0.125, 0.0, zero_field, ref.params)
        assert xi1(1.0) == pytest.approx(1.0 + 0.125)
        assert xi2(1.0, 0.5) == pytest.approx(2.0 * (4.0 + 0.5 + 1.0) - 1.0)
        assert eta1(1.0, 2.0, 1.0) == pytest.approx(-(1.0 + 0.125 * 2.0))


class TestReducedOde:
    def test_simple_profile_solves_ode(self, ref):
        phi = lambda i1: theta_simple(0.0, i1 - 1.0, ref.params, 0.7)
        rep = reduced_ode_residual(phi, ref.params, np.linspace(1.0, 81.0, 41))
        assert rep.value < 1e-10

    def test_constant_profile_leaves_source(self, ref):
        rep = reduced_ode_residual(lambda i1: 2.0, ref.params, [1.0])
        assert rep.value == pytest.approx(20.0, rel=1e-13)

    def test_linear_profile_at_reference(self, ref):
        # B - 8A = 0 at the reference constants, so phi = I1 leaves only the source
        rep = reduced_ode_residual(lambda i1: i1, ref.params, [1.0])
        assert rep.value == pytest.approx(20.0, rel=1e-13)


class TestFluxDiscrepancy:
    def test_inner_flux_agrees(self):
        assert published_flux_discrepancy()["inner_max_gap"] < 1e-10

    def test_outer_flux_sign_flip_at_tau0(self):
        rep = published_flux_discrepancy()
        pub, der = rep["tau0_published_outer"], rep["tau0_derived_outer"]
        assert pub == pytest.approx(0.20833, abs=1e-5)
        assert der == pytest.approx(-0.19646, abs=1e-5)
        assert math.copysign(1.0, pub) != math.copysign(1.0, der)
        assert rep["tau0_outer_gap"] == pytest.approx(0.405, abs=1e-3)

    def test_exact_gap_at_tau0(self):
        # published minus exact outer flux at tau = 0 as an exact number: the
        # exact flux is d(theta_reference)/d(eta) at (0, 1), derived by sympy
        sp = pytest.importorskip("sympy")
        tau, eta, C5 = sp.symbols("tau eta C5", real=True)
        c = 8 * tau + 1
        s = c + eta
        theta = C5 / 2 - sp.Rational(5, 6) * (
            2 / s + ((eta ** 2 - c ** 2) / c ** 4) * sp.exp(-eta / c))
        derived = sp.diff(theta, eta).subs({tau: 0, eta: 1})
        published = (sp.Rational(5, 3) / (8 * tau + 2) ** 2
                     + sp.Rational(5, 6) / (8 * tau + 2) ** 3
                     * (1 - (8 * tau + 1) * (8 * tau + 3)) / (8 * tau + 1) ** 2).subs(tau, 0)
        exact_gap = 5 / (3 * sp.E) - sp.Rational(5, 24)
        assert published == sp.Rational(5, 24)
        assert sp.simplify(published - derived - exact_gap) == 0
        want = float(sp.N(exact_gap, 40))
        assert want == 0.40479906861907056
        assert abs(verification.published_gap_at(0.0) - want) <= math.ulp(want)

    def test_closed_form_flux_meets_the_engine(self):
        # the report reads the closed-form flux alone; its dual-engine oracle,
        # the eta derivative of theta_reference (which does not depend on C5),
        # at every tau of the inner-gap scan and both walls
        TT, EE = np.meshgrid(np.linspace(0.0, 1.0, 21), [0.0, 1.0], indexing="ij")
        derived = DUAL.d1(theta_reference, (TT, EE), 1)
        assert np.max(np.abs(derived - temperature.reference_flux(TT, EE))) <= 1e-13

    def test_gap_decays(self):
        gaps = np.abs([verification.published_gap_at(t)
                       for t in np.linspace(0.0, 1.0, 21).tolist()])
        assert np.all(np.diff(gaps) < 0.0)
        assert abs(verification.published_gap_at(100.0)) < 1e-4

    def test_gap_at_matches_report(self):
        rep = published_flux_discrepancy()
        assert verification.published_gap_at(0.0) == rep["tau0_outer_gap"]
        assert verification.published_gap_at(100.0) == rep["tau100_outer_gap"]


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

    def test_nan_trace_deviation_fails(self):
        # an accepted input whose eta = 0 wall trace and theta_general both
        # overflow to inf at tau = 0.1 and 1: their deviation is NaN there,
        # which a builtin max over the two walls' maxima dropped, reading 0
        params = ReducedParams(A=0.33235688020525067, B=0.11456999105116863,
                               eps=-0.3473331907796533, a=5.616872374886077)
        consts = SolutionConstants(C3=0.016319410426740805, C5=-3.966496628338829,
                                   K=2.1477799921533747e288)
        # run_suite keeps numpy's overflow warnings, errors in this suite, to itself
        checks = {c.name: c for c in run_suite(params, consts).checks}
        trace = checks["trace_vs_restriction"]
        assert math.isnan(trace.value)
        assert not trace.passed

    #: the number of values each row without coordinates reduces
    VALUES_REDUCED = {
        "boundary_equality_tau0": 1, "boundary_difference_C": 1,
        "trace_vs_restriction": 2 * 4, "coordinate_identity": 50, "coordinate_roundtrip": 2 * 50,
        "dimensional_equivalence": 50, "area_conservation": 1,
        "angular_momentum_conservation": 1, "stress_free_boundaries": 2 * 4,
        "asymptote_level": 41, "reference_K_rational": 1, "reference_K_printed": 1,
        "reference_equation_coefficients": 2, "general_equals_reference": 30 * 30,
        "initial_profile_identity": 30, "nonnegativity_at_c5_threshold": 1,
    }

    @pytest.mark.parametrize("case", ["reference", "general"])
    def test_residual_checks_keep_their_worst_points(self, ref, case):
        # each residual check is its function's own record, renamed; every
        # other row is reduced without coordinates, so it has no worst point
        # and counts the values it reduced
        if case == "reference":
            params, consts = ref.params, ref.consts
        else:
            params = ReducedParams(A=1.3, B=2.1, eps=-0.7, a=2.0)
            consts = SolutionConstants(C3=0.3, C5=0.8,
                                       K=temperature.k_for_equal_boundaries(params, 0.3))
        grid = standard_grid(params.a)
        simple = partial(theta_simple, params=params, level=consts.C5)
        direct = {f"flow_{k}": r for k, r in flow_residuals(params.eps, grid).items()}
        direct["pde_theta_simple"] = temperature_equation_residual(simple, params, grid)
        direct["pde_theta_general"] = temperature_equation_residual(
            partial(theta_general, params=params, consts=consts), params, grid)
        direct["determining_equation"] = determining_equation_residual(
            simple, 0.0, 1.0, -2.0, params, grid)
        direct["reduced_ode_profile"] = reduced_ode_residual(
            lambda i1: theta_simple(0.0, i1 - 1.0, params, consts.C5), params,
            np.linspace(1.0, 81.0, 41))
        # the annihilation checks: the direct call's X(J) on (tau, eta, Theta),
        # under the suite's own tolerances
        I1, _ = translation_invariants()
        direct["translation_annihilation"] = replace(invariant_annihilation(
            (0.0, 0.0, consts.C3, 0.0, zero_field), I1, params, grid), tol=0.0)
        J1, J2 = scaling_invariants(params, consts)
        for name, J, tol in (("scaling_annihilation_J1", J1, 1e-9),
                             ("scaling_annihilation_J2", J2, 1e-8)):
            direct[name] = replace(invariant_annihilation(
                (0.0, 1.0, consts.C3, -2.0, simple), J, params, grid), tol=tol)
        if case == "reference":
            direct["pde_theta_reference"] = reference_equation_residual(grid, C5=consts.C5)
        checks = run_suite(params, consts).checks
        assert len(checks) == (28 if case == "reference" else 21)
        assert set(direct) <= {c.name for c in checks}
        for c in checks:
            want = direct.get(c.name)
            if want is None:
                assert (c.worst_point, c.n_samples) == ((), self.VALUES_REDUCED[c.name]), c.name
            else:
                assert c.worst_point and c.n_samples > 1, c.name
                assert (c.value, c.tol, c.worst_point, c.n_samples) == (
                    want.value, want.tol, want.worst_point, want.n_samples), c.name
        for name in ("translation_annihilation", "scaling_annihilation_J1",
                     "scaling_annihilation_J2"):
            # one (tau, eta, Theta) triple among 24 x 21 x 3 samples
            assert len(direct[name].worst_point) == 3
            assert direct[name].n_samples == 24 * 21 * len(verification.THETA_SAMPLES) == 1512


class TestPassCount:
    def test_reference_suite_makes_17_derivative_passes(self, ref, monkeypatch):
        # d1: the tau partial of each of the five PDE-type fields, the two
        # flux-evolution rules and the ring scale;
        # d1_d2: the eta pair of the five fields and the reduced ODE's pair;
        # directional: one X(J) per annihilation check
        counts = dict.fromkeys(("d1", "d1_d2", "directional"), 0)
        for name in counts:
            def counted(*args, _name=name, _real=getattr(dualnum, name)):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(dualnum, name, counted)
        run_suite(ref.params, ref.consts)
        assert counts == {"d1": 8, "d1_d2": 6, "directional": 3}


class TestGeneralFamilyCensus:
    """The suite's verdict over the whole general family, as a record: every
    failure below is a finite-tau limit or an absolute tolerance meeting
    roundoff, not a wrong closed form (see ROADMAP item 2)."""

    #: index of each failing tuple of the census -> its failing checks
    FAILING = {
        1: ["asymptote_level"], 7: ["asymptote_level"], 11: ["asymptote_level"],
        34: ["asymptote_level"], 44: ["asymptote_level"], 47: ["asymptote_level"],
        53: ["pde_theta_general"], 68: ["asymptote_level"], 73: ["asymptote_level"],
        75: ["asymptote_level"], 76: ["asymptote_level"], 84: ["asymptote_level"],
        86: ["asymptote_level"], 97: ["asymptote_level"], 102: ["asymptote_level"],
        109: ["pde_theta_general"], 116: ["asymptote_level", "pde_theta_general"],
        124: ["asymptote_level", "pde_theta_general"], 125: ["asymptote_level"],
        129: ["asymptote_level"], 137: ["asymptote_level"],
        140: ["asymptote_level", "pde_theta_general"],
    }

    @staticmethod
    def census_tuples():
        """The census's 150 (params, consts): A, B, a and C3 log-uniform, eps
        and C5 uniform, drawn in the order A, B, eps, a, C3, C5 from
        random.Random(5); K makes the wall temperatures equal at tau = 0."""
        rng = random.Random(5)

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        for _ in range(150):
            A, B = log_uniform(0.1, 10.0), log_uniform(0.3, 50.0)
            eps, a = rng.uniform(-2.0, 2.0), log_uniform(0.1, 5.0)
            C3, C5 = log_uniform(0.05, 1.0), rng.uniform(0.0, 5.0)
            params = ReducedParams(A=A, B=B, eps=eps, a=a)
            yield params, SolutionConstants(
                C3=C3, C5=C5, K=temperature.k_for_equal_boundaries(params, C3))

    def test_census_pins_every_failure(self):
        failing = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, (params, consts) in enumerate(self.census_tuples()):
                names = sorted(c.name for c in run_suite(params, consts).checks if not c.passed)
                if names:
                    failing[i] = names
        assert failing == self.FAILING

    @settings(max_examples=50, deadline=None)
    @given(case=general_family())
    # a member whose theta(0, eta) overflows on the standard grid
    @example(case=OVERFLOWING_MEMBER)
    def test_suite_values_are_nonnegative_floats_or_fail(self, case):
        # run_suite does not raise, a RuntimeWarning included, except for its
        # documented rejection of a start that overflows
        try:
            suite = run_suite(*case)
        except ValidationError as err:
            assert_overflowing_start(err, *case)
            return
        for c in suite.checks:
            assert (isinstance(c.value, float) and c.value >= 0.0) or not c.passed, c
