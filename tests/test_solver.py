import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_banded

from ringheat import solver
from ringheat.core import (
    ReducedParams,
    SolutionConstants,
    ValidationError,
)
from ringheat.solver import (
    DivergenceError,
    Grid1D,
    SolverConfig,
    convergence_study,
    march,
    solve_general,
    solve_reference,
    thomas_solve,
    N_SNAPSHOTS,
    PUBLISHED_FLUX_ERROR_FLOOR,
)
from ringheat.temperature import k_for_equal_boundaries, theta_reference, theta_simple


def const_field(c):
    return lambda tau, eta: np.full_like(np.asarray(eta, dtype=float), c)


class TestGridAndConfig:
    def test_grid_nodes(self):
        g = Grid1D(10, a=2.0)
        assert g.h == 0.2
        assert np.allclose(g.nodes, np.linspace(0.0, 2.0, 11))

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            Grid1D(4)
        with pytest.raises(ValidationError):
            Grid1D(16, a=0.0)

    @pytest.mark.parametrize("kw", [
        dict(dt=-0.1), dict(t_end=-1.0), dict(scheme="rk4"),
        dict(bc_mode="mixed"), dict(dt_over_h=0.0),
    ])
    def test_config_validation(self, kw):
        with pytest.raises(ValidationError):
            SolverConfig(**kw)


def indexed_thomas(lower, diag, upper, rhs):
    """The indexed-numpy Thomas loop `thomas_solve` replaced, frozen here as
    the bit-identity oracle: `thomas_solve` must return exactly its floats."""
    n = diag.size
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        m = diag[i] - lower[i - 1] * cp[i - 1]
        cp[i] = upper[i] / m if i < n - 1 else 0.0
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / m
    x = np.empty(n)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


@st.composite
def dominant_systems(draw):
    """(lower, diag, upper, rhs) of a strictly diagonally dominant system, n in [2, 300]."""
    n = draw(st.integers(min_value=2, max_value=300))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    lower = draw(hnp.arrays(np.float64, n - 1, elements=unit))
    upper = draw(hnp.arrays(np.float64, n - 1, elements=unit))
    rhs = draw(hnp.arrays(np.float64, n, elements=unit))
    margin = draw(hnp.arrays(np.float64, n, elements=st.floats(0.1, 4.0)))
    sign = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    off = np.abs(np.append(lower, 0.0)) + np.abs(np.append(0.0, upper))
    return lower, sign * (off + margin), upper, rhs


class TestThomas:
    @settings(max_examples=60, deadline=None)
    @given(system=dominant_systems())
    @example(system=(np.array([0.5]), np.array([2.0, -3.0]), np.array([-1.0]),
                     np.array([1.0, 0.25])))
    def test_matches_banded_oracle(self, system):
        lower, diag, upper, rhs = system
        x = thomas_solve(lower, diag, upper, rhs)
        ab = np.zeros((3, diag.size))
        ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
        want = solve_banded((1, 1), ab, rhs)
        # relative to the solution's scale: a component near 0 by
        # cancellation has no meaningful relative error of its own
        np.testing.assert_allclose(x, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))
        assert np.array_equal(x, indexed_thomas(lower, diag, upper, rhs))

    def test_against_dense_solve(self):
        rng = np.random.default_rng(3)
        n = 40
        lower = -rng.random(n - 1)
        upper = -rng.random(n - 1)
        diag = 2.0 + rng.random(n)  # diagonally dominant
        rhs = rng.standard_normal(n)
        A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        x = thomas_solve(lower, diag, upper, rhs)
        assert np.allclose(A @ x, rhs, atol=1e-12)


class TestReferenceSolve:
    def test_t_end_zero_returns_ic_exactly(self):
        res = solve_reference(Grid1D(64), SolverConfig(t_end=0.0))
        assert res.error_inf == 0.0
        assert res.error_l2 == 0.0
        assert len(res.snapshots) == 1

    def test_requires_unit_domain(self):
        with pytest.raises(ValidationError):
            solve_reference(Grid1D(16, a=2.0), SolverConfig())

    def test_derived_neumann_second_order(self):
        errs = []
        for n in (64, 128):
            res = solve_reference(Grid1D(n), SolverConfig(t_end=0.25, bc_mode="derived"))
            errs.append(res.error_inf)
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_dirichlet_second_order(self):
        errs = []
        for n in (64, 128):
            res = solve_reference(Grid1D(n), SolverConfig(t_end=0.25, bc_mode="dirichlet"))
            errs.append(res.error_inf)
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_published_flux_error_plateaus(self):
        errs = [solve_reference(Grid1D(n), SolverConfig(t_end=0.25, bc_mode="paper")).error_inf
                for n in (64, 128, 256)]
        # frozen regression: the plateau sits just under 0.5 and refinement
        # moves it by well under 1%
        assert all(e > PUBLISHED_FLUX_ERROR_FLOOR for e in errs)
        assert max(errs) / min(errs) < 1.01

    def test_deterministic(self):
        r1 = solve_reference(Grid1D(64), SolverConfig(t_end=0.25))
        r2 = solve_reference(Grid1D(64), SolverConfig(t_end=0.25))
        assert len(r1.snapshots) == len(r2.snapshots)
        for (t1, v1), (t2, v2) in zip(r1.snapshots, r2.snapshots):
            assert t1 == t2
            assert np.array_equal(v1, v2)

    def test_snapshots_bracket_the_run(self):
        res = solve_reference(Grid1D(32), SolverConfig(t_end=0.25))
        times = [t for t, _ in res.snapshots]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.25)
        assert times == sorted(times)


class TestGeneralSolve:
    def test_reference_constants_second_order(self, ref):
        cfg = SolverConfig(t_end=0.25, bc_mode="dirichlet")
        results = convergence_study([32, 64, 128, 256], cfg, ref.params, ref.consts)
        for res in results[1:]:
            assert 1.8 <= res.observed_order <= 2.2

    def test_K_zero_converges_to_simple_profile(self, ref):
        consts = SolutionConstants(C3=0.125, C5=ref.C5, K=0.0)
        res = solve_general(ref.params, consts, Grid1D(128),
                            SolverConfig(t_end=0.25, bc_mode="dirichlet"))
        tau_f, theta_f = res.snapshots[-1]
        exact = theta_simple(tau_f, Grid1D(128).nodes, ref.params, 0.5 * ref.C5)
        assert float(np.max(np.abs(theta_f - exact))) < 1e-6
        errs = [solve_general(ref.params, consts, Grid1D(n),
                              SolverConfig(t_end=0.25, bc_mode="dirichlet")).error_inf
                for n in (64, 128)]
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_eps_zero_converges(self, ref):
        from ringheat.temperature import k_for_equal_boundaries
        params = ReducedParams(A=0.75, B=6.0, eps=0.0, a=1.0)
        consts = SolutionConstants(C3=0.125, C5=ref.C5,
                                   K=k_for_equal_boundaries(params, 0.125))
        errs = [solve_general(params, consts, Grid1D(n),
                              SolverConfig(t_end=0.25, bc_mode="dirichlet")).error_inf
                for n in (64, 128)]
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_wide_ring_negative_eps_second_order(self):
        from ringheat.temperature import k_for_equal_boundaries
        params = ReducedParams(A=1.4, B=3.0, eps=-0.6, a=2.0)
        consts = SolutionConstants(C3=0.25, C5=1.2,
                                   K=k_for_equal_boundaries(params, 0.25))
        cfg = SolverConfig(t_end=0.25, bc_mode="dirichlet")
        results = convergence_study([32, 64, 128], cfg, params, consts)
        assert results[-1].grid.a == 2.0
        for res in results[1:]:
            assert 1.8 <= res.observed_order <= 2.2

    def test_rejects_neumann_modes(self, ref):
        # only the reference case has Neumann data; K = 0 is another member
        consts = SolutionConstants(C3=0.125, C5=ref.C5, K=0.0)
        for mode in ("derived", "paper"):
            with pytest.raises(ValidationError, match="dirichlet"):
                solve_general(ref.params, consts, Grid1D(16), SolverConfig(bc_mode=mode))

    def test_grid_domain_must_match(self, ref):
        with pytest.raises(ValidationError):
            solve_general(ref.params, ref.consts, Grid1D(16, a=2.0),
                          SolverConfig(bc_mode="dirichlet"))


class TestOneSolvePath:
    #: error_inf, error_l2 of solve_reference at t_end = 0.25, recorded
    #: before the reference march became a call of solve_general
    PINNED = {
        (64, "derived"): (0.00011911353204518971, 0.00011605311811737787),
        (64, "paper"): (0.49857190307199056, 0.4931905783040202),
        (64, "dirichlet"): (4.2824615892333995e-07, 3.1033762291514103e-07),
        (128, "derived"): (2.9742735583593305e-05, 2.901568549576502e-05),
        (128, "paper"): (0.498393466120291, 0.4931226213773505),
        (128, "dirichlet"): (1.0707701936230052e-07, 7.758810829183876e-08),
    }

    #: error_inf, error_l2 of a Dirichlet solve_general at t_end = 0.25 for
    #: a non-reference tuple (the benchmark's converge-general seed-1 draw,
    #: K = k_for_equal_boundaries), recorded with the indexed Thomas loop
    GENERAL = dict(A=0.6343642441124012, B=7.237168684686163,
                   eps=0.763774618976614, C3=0.15101380514788434,
                   C5=1.990870174183882)
    PINNED_GENERAL = {
        64: (5.619613566709702e-07, 4.078733838572661e-07),
        128: (1.4051956753746708e-07, 1.0197137370088761e-07),
    }

    @pytest.mark.parametrize("n, mode", sorted(PINNED))
    def test_reference_norms_pinned(self, n, mode):
        res = solve_reference(Grid1D(n), SolverConfig(t_end=0.25, bc_mode=mode))
        assert (res.error_inf, res.error_l2) == self.PINNED[n, mode]

    @pytest.mark.parametrize("n", sorted(PINNED_GENERAL))
    def test_general_norms_pinned(self, n):
        g = self.GENERAL
        params = ReducedParams(A=g["A"], B=g["B"], eps=g["eps"], a=1.0)
        consts = SolutionConstants(C3=g["C3"], C5=g["C5"],
                                   K=k_for_equal_boundaries(params, g["C3"]))
        res = solve_general(params, consts, Grid1D(n),
                            SolverConfig(t_end=0.25, bc_mode="dirichlet"))
        assert (res.error_inf, res.error_l2) == self.PINNED_GENERAL[n]

    def test_march_solves_through_the_module_hook(self, monkeypatch):
        # the benchmark times the elimination by wrapping solver.thomas_solve,
        # so march must look it up there once per step
        calls = []
        real = solver.thomas_solve

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(solver, "thomas_solve", counting)
        solve_reference(Grid1D(64), SolverConfig())
        # nsteps = t_end / (dt_over_h * h) = 0.25 / (0.125 / 64)
        assert len(calls) == 128

    @pytest.mark.parametrize("mode", ["derived", "paper", "dirichlet"])
    def test_general_at_reference_is_the_reference_march(self, ref, mode):
        cfg = SolverConfig(t_end=0.25, bc_mode=mode)
        a = solve_reference(Grid1D(64), cfg)
        b = solve_general(ref.params, ref.consts, Grid1D(64), cfg)
        assert len(a.snapshots) == len(b.snapshots) == N_SNAPSHOTS
        for (t1, v1), (t2, v2) in zip(a.snapshots, b.snapshots):
            assert t1 == t2
            assert np.array_equal(v1, v2)

    def test_result_keeps_its_exact_field(self):
        res = solve_reference(Grid1D(32), SolverConfig(t_end=0.25), C5=2.0)
        tau_f, theta_f = res.final
        err = np.max(np.abs(theta_f - res.exact(tau_f, res.grid.nodes)))
        assert float(err) == res.error_inf
        assert res.exact(0.0, 0.5) == theta_reference(0.0, 0.5, 2.0)


class TestSchemes:
    def test_euler_first_order_in_time(self):
        # fine grid, coarse dt: halving dt roughly halves the error
        errs = [solve_reference(Grid1D(256), SolverConfig(dt=dt, t_end=0.25,
                                                          scheme="euler")).error_inf
                for dt in (0.025, 0.0125)]
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_cn_beats_euler_at_same_dt(self):
        cn = solve_reference(Grid1D(256), SolverConfig(dt=0.0125, t_end=0.25)).error_inf
        eu = solve_reference(Grid1D(256), SolverConfig(dt=0.0125, t_end=0.25,
                                                       scheme="euler")).error_inf
        assert cn < eu / 10.0


class TestMarchProperties:
    def test_patch_test_linear_profile_exact(self):
        # constant D, no source, matching Neumann data: linear profile is a
        # discrete steady state, reproduced to roundoff
        beta = 0.7
        res = march(Grid1D(16), SolverConfig(t_end=0.5),
                    const_field(3.0), const_field(0.0),
                    lambda eta: 0.2 + beta * eta,
                    ("flux", lambda tau: beta), ("flux", lambda tau: beta),
                    exact=lambda tau, eta: 0.2 + beta * eta)
        assert res.error_inf < 1e-13

    def test_maximum_principle_constant_state(self):
        res = march(Grid1D(16), SolverConfig(t_end=1.0),
                    lambda tau, eta: 8.0 * (8.0 * tau + eta + 1.0),
                    const_field(0.0),
                    lambda eta: np.full_like(np.asarray(eta, dtype=float), 0.37),
                    ("flux", lambda tau: 0.0), ("flux", lambda tau: 0.0),
                    exact=const_field(0.37))
        assert res.error_inf < 1e-13

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_error_names_step(self):
        with pytest.raises(DivergenceError, match="step 1"):
            march(Grid1D(16), SolverConfig(t_end=0.1),
                  const_field(1.0), const_field(0.0),
                  lambda eta: np.where(np.asarray(eta) == 0.0, np.inf, 0.0),
                  ("flux", lambda tau: 0.0), ("flux", lambda tau: 0.0))


class TestConvergenceStudy:
    def test_orders_near_two(self):
        results = convergence_study([64, 128, 256], SolverConfig(t_end=0.25))
        assert results[0].observed_order is None
        for res in results[1:]:
            assert 1.8 <= res.observed_order <= 2.2

    def test_single_level_errors_only(self):
        results = convergence_study([64], SolverConfig(t_end=0.25))
        assert len(results) == 1
        assert results[0].observed_order is None
        assert results[0].error_inf > 0.0

    def test_dt_tied_to_h(self):
        results = convergence_study([16, 32], SolverConfig(t_end=0.25, dt=123.0))
        # the study overrides any explicit dt with dt_over_h * h
        assert results[0].config.dt is None
