import math
import multiprocessing
import os
import re
import signal
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_banded

from conftest import OVERFLOWING_MEMBER, assert_overflowing_start, general_family

from ringheat import solver
from ringheat.core import (
    ReducedParams,
    ReferenceCase,
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
from ringheat.temperature import (
    k_for_equal_boundaries,
    published_flux_inner,
    published_flux_outer,
    reference_flux,
    theta_reference,
    theta_simple,
)


def _member(A, B, eps, a, C3, C5):
    """(params, consts) of a general-family tuple with equal initial wall temperatures."""
    params = ReducedParams(A=A, B=B, eps=eps, a=a)
    return params, SolutionConstants(C3=C3, C5=C5, K=k_for_equal_boundaries(params, C3))


REF = ReferenceCase()


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

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_grid_rejects_non_finite_width(self, a):
        # both pass a <= 0: nan would build nan nodes, inf an inf h and,
        # with a RuntimeWarning, nan nodes
        with pytest.raises(ValidationError, match=rf"^a must be a finite number > 0, got {a!r}$"):
            Grid1D(16, a=a)

    def test_grid_size_cap(self):
        # the cap is checked before any node array exists
        assert Grid1D(solver.MAX_CELLS).n_cells == solver.MAX_CELLS
        for n in (solver.MAX_CELLS + 1, 10 ** 8):
            with pytest.raises(ValidationError, match="n_cells must be <= 65536"):
                Grid1D(n)

    @pytest.mark.parametrize("n, t_end, case", [
        pytest.param(solver.MAX_CELLS, 0.25, (REF.params, REF.consts), id="65536-0.25"),
        pytest.param(8192, 2.0, (REF.params, REF.consts), id="8192-2.0"),
        # the CI a = 2 ring: a general level's setup evaluates theta_general
        # over its nodes, so the budget must come before that too
        pytest.param(solver.MAX_CELLS, 0.25,
                     _member(A=1.3, B=3.5, eps=-0.7, a=2.0, C3=0.15, C5=1.5),
                     id="65536-0.25-wide"),
    ])
    def test_node_step_budget(self, n, t_end, case, monkeypatch):
        # under MAX_STEPS, over MAX_NODE_STEPS: rejected before any allocation
        # of its nodes; a study's 64-cell general level may take its own
        real = Grid1D.nodes.fget
        monkeypatch.setattr(Grid1D, "nodes", property(
            lambda g: real(g) if g.n_cells < n else pytest.fail("allocated")))
        msg = "exceeds the budget of 1000000000 node updates"
        with pytest.raises(ValidationError, match=msg):
            solve_general(*case, n, SolverConfig(t_end=t_end))
        with pytest.raises(ValidationError, match=msg):
            convergence_study([64, n], SolverConfig(t_end=t_end), *case)

    @pytest.mark.parametrize("kw", [
        dict(dt=-0.1), dict(t_end=-1.0), dict(scheme="rk4"),
        dict(bc_mode="mixed"),
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

    @pytest.mark.parametrize("layout", [
        pytest.param(lambda v: np.repeat(v, 2)[::2], id="strided"),
        pytest.param(lambda v: np.broadcast_to(v, v.shape), id="read_only"),
        pytest.param(lambda v: v.astype(np.float32), id="float32"),
        pytest.param(lambda v: v.astype(">f8"), id="big_endian"),
    ])
    def test_band_layouts_match_oracle(self, layout):
        # the bands are read through memoryviews: a layout .tolist() took
        # must give the floats it gave
        rng = np.random.default_rng(7)
        n = 33
        bands = [layout(v) for v in (-rng.random(n - 1), 3.0 + rng.random(n),
                                     -rng.random(n - 1), rng.standard_normal(n))]
        x = thomas_solve(*bands)
        want = indexed_thomas(*(np.array(v, dtype=float) for v in bands))
        assert x.dtype == np.float64
        assert np.array_equal(x, want)

    @settings(max_examples=60, deadline=None)
    @given(system=dominant_systems(), scale=st.floats(0.5, 2.0))
    def test_factored_sweep_matches_the_elimination(self, system, scale):
        # two systems factored at once, along the step axis, then swept
        lower, diag, upper, rhs = system
        bands = [np.stack([v, v * scale]) for v in (lower, diag, upper)]
        n = diag.size
        out = np.empty((2, 2 * n - 1))
        solver._factor(*bands, out)
        for step in range(2):
            lo, b, c = (v[step] for v in bands)
            x = thomas_solve(lo, b, c, rhs, factors=(out[step, :n], out[step, n:]))
            assert np.array_equal(x, thomas_solve(lo, b, c, rhs))
            assert np.array_equal(x, indexed_thomas(lo, b, c, rhs))

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
        res = solve_reference(64, SolverConfig(t_end=0.0))
        assert res.error_inf == 0.0
        assert res.error_l2 == 0.0
        assert len(res.snapshots) == 1

    def test_derived_neumann_second_order(self):
        errs = []
        for n in (64, 128):
            res = solve_reference(n, SolverConfig(t_end=0.25, bc_mode="derived"))
            errs.append(res.error_inf)
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_dirichlet_second_order(self):
        errs = []
        for n in (64, 128):
            res = solve_reference(n, SolverConfig(t_end=0.25, bc_mode="dirichlet"))
            errs.append(res.error_inf)
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_published_flux_error_plateaus(self):
        errs = [solve_reference(n, SolverConfig(t_end=0.25, bc_mode="paper")).error_inf
                for n in (64, 128, 256)]
        # frozen regression: the plateau sits just under 0.5 and refinement
        # moves it by well under 1%
        assert all(e > PUBLISHED_FLUX_ERROR_FLOOR for e in errs)
        assert max(errs) / min(errs) < 1.01

    @pytest.mark.parametrize("n", [64, 128])
    def test_paper_minus_derived_is_the_gap_march(self, n):
        # the march is linear in its data, so paper minus derived is the
        # march of the flux gap (published minus exact, at both walls) with
        # no source and zero initial data on the same diffusivity
        config = SolverConfig(t_end=0.25)
        paper = solve_reference(n, replace(config, bc_mode="paper"))
        derived = solve_reference(n, config)
        case = ReferenceCase()
        grid, (dif, *_) = solver._level(case.params, case.consts, n, config)
        gap = march(grid, config, dif, lambda tau, eta: 0.0,
                    ("flux", lambda tau: published_flux_inner(tau) - reference_flux(tau, 0.0)),
                    ("flux", lambda tau: published_flux_outer(tau) - reference_flux(tau, 1.0)),
                    const_field(0.0))
        assert len(gap.snapshots) == len(paper.snapshots) == len(derived.snapshots)
        for (tp, p), (td, d), (tg, g) in zip(paper.snapshots, derived.snapshots, gap.snapshots):
            assert tp == td == tg
            assert np.max(np.abs((p - d) - g)) <= 1e-13

    def test_deterministic(self):
        r1 = solve_reference(64, SolverConfig(t_end=0.25))
        r2 = solve_reference(64, SolverConfig(t_end=0.25))
        assert len(r1.snapshots) == len(r2.snapshots)
        for (t1, v1), (t2, v2) in zip(r1.snapshots, r2.snapshots):
            assert t1 == t2
            assert np.array_equal(v1, v2)

    def test_snapshots_bracket_the_run(self):
        res = solve_reference(32, SolverConfig(t_end=0.25))
        times = [t for t, _ in res.snapshots]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.25)
        assert times == sorted(times)


class TestGeneralSolve:
    @pytest.mark.parametrize("bc_mode", ["derived", "dirichlet"])
    def test_overflowing_wall_data_rejected_before_the_march(self, bc_mode, monkeypatch):
        # a ring with a = 1e100: its walls' data overflow at tau = 1e103,
        # which a march would reach only after its whole step budget
        params, consts = _member(A=1.0, B=8.0, eps=0.5, a=1e100, C3=0.125, C5=1.0)
        monkeypatch.setattr(solver, "march", lambda *args: pytest.fail("marched"))
        msg = r"^tau_end = 1e\+103 is too large: a closed form overflows"
        with pytest.raises(ValidationError, match=msg):
            solve_general(params, consts, 8, SolverConfig(t_end=1e103, dt=1e97, bc_mode=bc_mode))
        with pytest.raises(ValidationError, match=msg):
            convergence_study([8, 16], SolverConfig(t_end=1e103, bc_mode=bc_mode), params, consts)

    def test_reference_constants_second_order(self, ref):
        cfg = SolverConfig(t_end=0.25, bc_mode="dirichlet")
        results = convergence_study([32, 64, 128, 256], cfg, ref.params, ref.consts)
        for res in results[1:]:
            assert 1.8 <= res.observed_order <= 2.2

    def test_K_zero_converges_to_simple_profile(self, ref):
        consts = SolutionConstants(C3=0.125, C5=ref.C5, K=0.0)
        res = solve_general(ref.params, consts, 128,
                            SolverConfig(t_end=0.25, bc_mode="dirichlet"))
        tau_f, theta_f = res.snapshots[-1]
        exact = theta_simple(tau_f, res.grid.nodes, ref.params, 0.5 * ref.C5)
        assert float(np.max(np.abs(theta_f - exact))) < 1e-6
        errs = [solve_general(ref.params, consts, n,
                              SolverConfig(t_end=0.25, bc_mode="dirichlet")).error_inf
                for n in (64, 128)]
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_eps_zero_converges(self, ref):
        from ringheat.temperature import k_for_equal_boundaries
        params = ReducedParams(A=0.75, B=6.0, eps=0.0, a=1.0)
        consts = SolutionConstants(C3=0.125, C5=ref.C5,
                                   K=k_for_equal_boundaries(params, 0.125))
        errs = [solve_general(params, consts, n,
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

    def test_paper_mode_needs_the_reference_case(self, ref):
        # the published fluxes are the reference case's; K = 0 is another
        # member, whose exact Neumann data 'derived' takes
        consts = SolutionConstants(C3=0.125, C5=ref.C5, K=0.0)
        with pytest.raises(ValidationError, match="bc_mode 'paper'"):
            solve_general(ref.params, consts, 16, SolverConfig(bc_mode="paper"))
        res = solve_general(ref.params, consts, 64, SolverConfig(bc_mode="derived"))
        assert res.error_inf < 2e-4  # ~1.4e-3 at 16 cells, second order

    @pytest.mark.parametrize("case, orders", [
        # the observed orders over 64..512
        (_member(A=0.9, B=5.0, eps=0.4, a=1.0, C3=0.15, C5=2.0), (2.0016, 2.0009, 2.0004)),
        (_member(A=1.3, B=3.5, eps=-0.7, a=2.0, C3=0.15, C5=2.0), (1.9966, 1.9984, 1.9993)),
    ])
    def test_derived_second_order_off_the_reference_case(self, case, orders):
        results = convergence_study([64, 128, 256, 512], SolverConfig(t_end=0.25), *case)
        assert [r.observed_order for r in results[1:]] == pytest.approx(orders, abs=1e-4)

    @pytest.mark.parametrize("mode", ["derived", "dirichlet"])
    @settings(max_examples=10, deadline=None)
    @given(case=general_family())
    # two members where a correct 'dirichlet' march leaves [1.8, 2.2] at
    # 128 -> 256: a leading error term that nearly cancels (orders 3.74,
    # 3.78, 2.26, 2.00 over 32..512), and errors ~3e-12, where roundoff and
    # not h sets them (order 1.65)
    @example(case=_member(A=1.0, B=math.exp(3.90625), eps=0.0, a=math.exp(1.25),
                          C3=1.0, C5=0.0))
    @example(case=_member(A=0.1518242257262645, B=18.881172109981883, eps=0.7737539301649563,
                          a=0.11780220925658379, C3=0.9480540685721588, C5=4.823788905627834))
    # a member whose theta(0, eta) overflows on the grid: the study rejects
    # it before any march
    @example(case=OVERFLOWING_MEMBER)
    def test_whole_family_finite_deterministic_second_order(self, mode, case):
        params, consts = case
        cfg = SolverConfig(t_end=0.25, bc_mode=mode)
        try:
            coarse, fine = convergence_study([128, 256], cfg, params, consts)
        except ValidationError as err:
            assert_overflowing_start(err, params, consts)
            return
        again = solve_general(params, consts, fine.grid.n_cells, cfg)
        for res in (coarse, fine):
            assert all(np.isfinite(v).all() for _, v in res.snapshots)
            assert np.isfinite([res.error_inf, res.error_l2]).all()
        assert (again.error_inf, again.error_l2) == (fine.error_inf, fine.error_l2)
        for (t1, v1), (t2, v2) in zip(again.snapshots, fine.snapshots, strict=True):
            assert t1 == t2 and np.array_equal(v1, v2)
        # at least second order, down to errors of 1e-10 of the field
        scale = max(float(np.max(np.abs(v))) for _, v in fine.snapshots)
        assert fine.observed_order >= 1.8 or fine.error_inf <= 1e-10 * scale

    @pytest.mark.parametrize("mode", ["derived", "dirichlet"])
    def test_overflowing_start_is_rejected(self, mode):
        # the study stops before any march, naming K, C3 and the first
        # eta = 91/128 where theta(0, eta) is nan
        params, consts = OVERFLOWING_MEMBER
        cfg = SolverConfig(t_end=0.25, bc_mode=mode)
        with pytest.raises(ValidationError, match=r"^constants\.K = -0\.0 and constants\.C3 = "
                           r".* overflow theta\(0, eta\) at eta = 0\.7109375$"):
            convergence_study([128, 256], cfg, params, consts)

    def test_grid_spans_the_ring(self):
        # a level is a cell count; its grid's length is params.a
        params, consts = _member(A=1.3, B=3.5, eps=-0.7, a=2.0, C3=0.15, C5=1.5)
        res = solve_general(params, consts, 16, SolverConfig(bc_mode="dirichlet"))
        assert res.grid.a == 2.0
        assert res.grid.nodes[-1] == 2.0


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
        res = solve_reference(n, SolverConfig(t_end=0.25, bc_mode=mode))
        assert (res.error_inf, res.error_l2) == self.PINNED[n, mode]

    @pytest.mark.parametrize("n", sorted(PINNED_GENERAL))
    def test_general_norms_pinned(self, n):
        g = self.GENERAL
        params = ReducedParams(A=g["A"], B=g["B"], eps=g["eps"], a=1.0)
        consts = SolutionConstants(C3=g["C3"], C5=g["C5"],
                                   K=k_for_equal_boundaries(params, g["C3"]))
        res = solve_general(params, consts, n,
                            SolverConfig(t_end=0.25, bc_mode="dirichlet"))
        assert (res.error_inf, res.error_l2) == self.PINNED_GENERAL[n]

    def test_march_solves_through_the_module_hook(self, monkeypatch):
        # the benchmark times the elimination by wrapping solver.thomas_solve,
        # so march must look it up there once per step, with the helper too
        calls = []
        real = solver.thomas_solve

        def counting(*args, factors=None):
            calls.append(factors is not None)
            return real(*args, factors=factors)

        monkeypatch.setattr(solver, "thomas_solve", counting)
        solve_reference(64, SolverConfig())
        # nsteps = t_end / (dt_over_h * h) = 0.25 / (0.125 / 64)
        assert calls == [False] * 128
        calls.clear()
        force_the_helper(monkeypatch, block=10)
        solve_reference(64, SolverConfig())
        # the marcher factors the first block itself
        assert calls == [False] * 10 + [True] * 118

    @pytest.mark.parametrize("mode", ["derived", "paper", "dirichlet"])
    def test_general_at_reference_is_the_reference_march(self, ref, mode):
        cfg = SolverConfig(t_end=0.25, bc_mode=mode)
        a = solve_reference(64, cfg)
        b = solve_general(ref.params, ref.consts, 64, cfg)
        assert len(a.snapshots) == len(b.snapshots) == N_SNAPSHOTS
        for (t1, v1), (t2, v2) in zip(a.snapshots, b.snapshots):
            assert t1 == t2
            assert np.array_equal(v1, v2)

    def test_result_keeps_its_exact_field(self):
        res = solve_reference(32, SolverConfig(t_end=0.25), C5=2.0)
        tau_f, theta_f = res.snapshots[-1]
        err = np.max(np.abs(theta_f - res.exact(tau_f, res.grid.nodes)))
        assert float(err) == res.error_inf
        assert res.exact(0.0, 0.5) == theta_reference(0.0, 0.5, 2.0)

    def test_norms_of_errors_whose_squares_overflow(self):
        # a C5 this large leaves errors near 1e154, whose squares overflow:
        # error_l2 is still finite, below error_inf, and no warning is raised
        res = solve_reference(12, SolverConfig(t_end=0.03125),
                              C5=2.3666423509319384e+169)
        tau_f, theta_f = res.snapshots[-1]
        err = theta_f - res.exact(tau_f, res.grid.nodes)
        assert res.error_inf == float(np.max(np.abs(err))) > 1e154
        assert 0.0 < res.error_l2 <= res.error_inf

    @pytest.mark.parametrize("t_end", [1e-300, 5e-324])
    def test_norms_of_errors_whose_squares_underflow(self, t_end):
        # a march this short leaves errors near 1e-300 (or subnormal), whose
        # squares underflow to 0: error_l2 is still nonzero and bounded by
        # sqrt(a) * error_inf
        res = solve_reference(8, SolverConfig(t_end=t_end))
        assert 0.0 < res.error_inf < 1e-290
        assert 0.0 < res.error_l2 <= math.sqrt(res.grid.a) * res.error_inf


def stepwise_march(grid, config, diffusivity, source, bc_inner, bc_outer, exact):
    """The one-step-at-a-time march loop that block assembly replaced, frozen
    here as the bit-identity oracle: `march` must return exactly its
    snapshots and norms.  Returns (snapshots, error_inf, error_l2)."""
    h = grid.h
    n = grid.n_cells
    dt = config.dt if config.dt is not None else config.dt_over_h * h
    eta = grid.nodes
    theta = np.array(exact(0.0, eta), dtype=float)
    snapshots = [(0.0, theta.copy())]
    nsteps = max(1, int(round(config.t_end / dt)))
    dt = config.t_end / nsteps
    snap_at = set(np.linspace(0, nsteps, N_SNAPSHOTS).round().astype(int))
    faces_lo = eta - 0.5 * h
    faces_hi = eta + 0.5 * h
    kind_in, data_in = bc_inner
    kind_out, data_out = bc_outer
    cn = config.scheme == "cn"
    lower = np.empty(n)
    upper = np.empty(n)
    diag = np.empty(n + 1)
    rhs = np.empty(n + 1)
    j = slice(1, n)
    jm = slice(0, n - 1)
    jp = slice(2, n + 1)
    for k in range(nsteps):
        tau_n = k * dt
        tau_new = tau_n + dt if k + 1 < nsteps else config.t_end
        tau_c = tau_n + 0.5 * dt if cn else tau_n + dt
        d_lo = diffusivity(tau_c, faces_lo)
        d_hi = diffusivity(tau_c, faces_hi)
        s_val = source(tau_c, eta)
        r = dt / (2.0 * h * h) if cn else dt / (h * h)
        diag[j] = 1.0 + r * (d_lo[j] + d_hi[j])
        lower[jm] = -r * d_lo[j]
        upper[j] = -r * d_hi[j]
        if cn:
            rhs[j] = (theta[j]
                      + r * (d_lo[j] * (theta[jm] - theta[j])
                             + d_hi[j] * (theta[jp] - theta[j]))
                      + dt * s_val[j])
        else:
            rhs[j] = theta[j] + dt * s_val[j]
        if kind_in == "flux":
            g0 = float(data_in(tau_c))
            w = d_lo[0] + d_hi[0]
            diag[0] = 1.0 + r * w
            upper[0] = -r * w
            rhs[0] = theta[0] - 2.0 * dt * d_lo[0] * g0 / h + dt * s_val[0]
            if cn:
                rhs[0] += r * w * (theta[1] - theta[0])
        else:
            diag[0] = 1.0
            upper[0] = 0.0
            rhs[0] = float(data_in(tau_new))
        if kind_out == "flux":
            g1 = float(data_out(tau_c))
            w = d_lo[n] + d_hi[n]
            diag[n] = 1.0 + r * w
            lower[n - 1] = -r * w
            rhs[n] = theta[n] + 2.0 * dt * d_hi[n] * g1 / h + dt * s_val[n]
            if cn:
                rhs[n] += r * w * (theta[n - 1] - theta[n])
        else:
            diag[n] = 1.0
            lower[n - 1] = 0.0
            rhs[n] = float(data_out(tau_new))
        theta = indexed_thomas(lower, diag, upper, rhs)
        if (k + 1) in snap_at:
            snapshots.append((tau_new, theta.copy()))
    err = theta - np.asarray(exact(config.t_end, eta), dtype=float)
    wts = np.full(n + 1, h)
    wts[0] = wts[-1] = 0.5 * h
    return snapshots, float(np.max(np.abs(err))), float(np.sqrt(np.sum(wts * err * err)))


class TestBlockAssembly:
    """`march` assembles a block of steps at once; every float must match the
    stepwise loop's."""

    #: a general Dirichlet tuple on a = 2 whose dt = 0.0123 does not divide
    #: t_end = 0.3, so the march rounds to 24 steps of 0.0125
    WIDE = (ReducedParams(A=1.3, B=3.5, eps=-0.7, a=2.0), 0.2, 1.5)

    @staticmethod
    def check_against_stepwise(monkeypatch, solve):
        # run `solve`, capture the arguments solve_general hands to march,
        # and replay them through the frozen stepwise loop
        seen = []
        real = solver.march

        def capture(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "march", capture)
        res = solve()
        snapshots, e_inf, e_l2 = stepwise_march(*seen[0])
        assert [t for t, _ in res.snapshots] == [t for t, _ in snapshots]
        for (_, got), (_, want) in zip(res.snapshots, snapshots):
            assert np.array_equal(got, want)
        assert (res.error_inf, res.error_l2) == (e_inf, e_l2)

    @pytest.mark.parametrize("scheme", ["cn", "euler"])
    @pytest.mark.parametrize("mode", ["derived", "paper", "dirichlet"])
    def test_reference_case_matches_stepwise(self, monkeypatch, mode, scheme):
        cfg = SolverConfig(t_end=0.25, bc_mode=mode, scheme=scheme)
        self.check_against_stepwise(monkeypatch,
                                    lambda: solve_reference(64, cfg))

    @pytest.mark.parametrize("scheme", ["cn", "euler"])
    def test_general_wide_ring_uneven_dt_matches_stepwise(self, monkeypatch, scheme):
        params, C3, C5 = self.WIDE
        consts = SolutionConstants(C3=C3, C5=C5, K=k_for_equal_boundaries(params, C3))
        cfg = SolverConfig(dt=0.0123, t_end=0.3, bc_mode="dirichlet", scheme=scheme)
        self.check_against_stepwise(
            monkeypatch, lambda: solve_general(params, consts, 48, cfg))

    # 12 cells to t_end = 0.3: k*dt + dt misses t_end by an ulp at the last
    # step, which both loops label t_end, and where Dirichlet rows take their data
    @pytest.mark.parametrize("scheme", ["cn", "euler"])
    def test_last_step_at_t_end_matches_stepwise(self, monkeypatch, scheme):
        cfg = SolverConfig(t_end=0.3, bc_mode="dirichlet", scheme=scheme)
        self.check_against_stepwise(monkeypatch,
                                    lambda: solve_reference(12, cfg))

    # 24 cells are 25 nodes and marches 48 steps at t_end = 0.25, so these
    # blocks hold more steps than the march, exactly all of them, all but
    # one (one step past a block boundary), and one step each.  Its h = 1/24
    # is not a power of two, so dividing by h rounds.
    @pytest.mark.parametrize("block", [49, 48, 47, 1])
    @pytest.mark.parametrize("mode", ["derived", "paper", "dirichlet"])
    def test_block_boundaries_match_stepwise(self, monkeypatch, mode, block):
        monkeypatch.setattr(solver, "BLOCK_ELEMS", block * 25)
        cfg = SolverConfig(t_end=0.25, bc_mode=mode)
        self.check_against_stepwise(monkeypatch,
                                    lambda: solve_reference(24, cfg))

    def test_coefficients_assembled_once_per_block(self, monkeypatch):
        # 32 steps in blocks of 10: four diffusivity calls per face pair
        monkeypatch.setattr(solver, "BLOCK_ELEMS", 10 * 17)
        shapes = []

        def dif(tau, eta):
            shapes.append(np.broadcast(tau, eta).shape)
            return np.full(np.broadcast(tau, eta).shape, 2.0)

        march(Grid1D(16), SolverConfig(t_end=0.25), dif, const_field(0.0),
              ("flux", lambda tau: 0.0), ("flux", lambda tau: 0.0), const_field(0.0))
        assert shapes == [(10, 17)] * 6 + [(2, 17)] * 2

    # Grid1D(16) at t_end = 0.1 marches 13 steps of dt = 0.1/13; the source
    # turns infinite once tau_c = (k + 1/2)*dt passes 0.06, first at k = 8,
    # so theta first goes non-finite at step 9.  Blocks of 5 put that step
    # inside the second block; the default block holds all 13 steps.
    @pytest.mark.parametrize("block", [None, 5])
    def test_divergence_in_mid_block_names_the_step(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(solver, "BLOCK_ELEMS", block * 17)
        with pytest.raises(DivergenceError, match="step 9 of 13"):
            march(Grid1D(16), SolverConfig(t_end=0.1),
                  const_field(1.0),
                  lambda tau, eta: np.where(tau > 0.06, np.inf, 0.0) + 0.0 * eta,
                  ("flux", lambda tau: 0.0), ("flux", lambda tau: 0.0), const_field(0.0))


def force_the_helper(monkeypatch, block):
    """Have every march of more than `block` steps factor ahead in a helper
    of `block`-step blocks, on any machine with fork."""
    monkeypatch.setattr(solver, "PIPELINE_NODE_STEPS", 0)
    monkeypatch.setattr(solver, "PIPELINE_BLOCK_STEPS", block)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def factored_steps(monkeypatch):
    """A list that gets, per step solved, whether its factors came from the helper."""
    real, seen = solver.thomas_solve, []

    def recording(*args, factors=None):
        seen.append(factors is not None)
        return real(*args, factors=factors)

    monkeypatch.setattr(solver, "thomas_solve", recording)
    return seen


def outcome(run):
    """run()'s result, or the type and message of the exception it raised."""
    try:
        return run()
    except Exception as e:
        return type(e), str(e)


class TestFactorsAhead:
    """A march past PIPELINE_NODE_STEPS has a forked helper factor each
    block of steps ahead; every float, and every error, must be the
    serial march's."""

    WIDE = TestBlockAssembly.WIDE

    def wide(self, mode):
        params, C3, C5 = self.WIDE
        consts = SolutionConstants(C3=C3, C5=C5, K=k_for_equal_boundaries(params, C3))
        return lambda: solve_general(params, consts, 24, SolverConfig(t_end=0.25, bc_mode=mode))

    # 24 cells march 48 steps (24 on the a = 2 ring), so helper blocks of 10
    # leave a short last block and put the snapshots at steps 12, 24 and 36
    # (6 and 18) inside blocks
    @pytest.mark.parametrize("scheme", ["cn", "euler"])
    @pytest.mark.parametrize("mode", ["derived", "paper", "dirichlet"])
    def test_reference_matches_stepwise(self, monkeypatch, mode, scheme):
        force_the_helper(monkeypatch, block=10)
        seen = factored_steps(monkeypatch)
        cfg = SolverConfig(t_end=0.25, bc_mode=mode, scheme=scheme)
        TestBlockAssembly.check_against_stepwise(monkeypatch, lambda: solve_reference(24, cfg))
        assert seen == [False] * 10 + [True] * 38
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mode", ["derived", "dirichlet"])
    def test_wide_general_ring_matches_the_serial_march(self, monkeypatch, mode):
        serial = self.wide(mode)()
        force_the_helper(monkeypatch, block=10)
        seen = factored_steps(monkeypatch)
        res = self.wide(mode)()
        assert seen == [False] * 10 + [True] * 14
        assert [t for t, _ in res.snapshots] == [t for t, _ in serial.snapshots]
        for (_, got), (_, want) in zip(res.snapshots, serial.snapshots):
            assert np.array_equal(got, want)
        assert (res.error_inf, res.error_l2) == (serial.error_inf, serial.error_l2)

    # Grid1D(16) marches 40 steps of dt = 2**-10, so cn's r = 1/8 and a
    # diffusivity of -4 makes 1 + r*w exactly 0; the fields turn at tau = 24*dt,
    # which steps 25..40 (tau_c = (k + 1/2)*dt) see, in the helper's third
    # block.  Blocks of 5 steps in the marcher make it meet a diffusivity
    # that raises only there, after the helper has stopped at its block.
    @staticmethod
    def turning(after, before=1.0):
        def field(tau, eta):
            return np.where(tau > 24 * 2.0 ** -10, after, before) + 0.0 * eta
        return field

    @staticmethod
    def raising_past(tau_turn, exc):
        def field(tau, eta):
            if np.max(tau) > tau_turn:
                raise exc
            return np.ones(np.broadcast(tau, eta).shape)
        return field

    FAILURES = {
        "zero-pivot": (lambda c: (c.turning(-4.0), const_field(0.0), ("flux", lambda tau: 0.0)),
                       DivergenceError, "zero pivot at step 25 of 40"),
        "non-finite-bands": (lambda c: (c.turning(np.inf), const_field(0.0),
                                        ("flux", lambda tau: 0.0)),
                             DivergenceError, "non-finite solution at step 25 of 40"),
        "non-finite-source": (lambda c: (const_field(1.0), c.turning(np.inf, 0.0),
                                         ("flux", lambda tau: 0.0)),
                              DivergenceError, "non-finite solution at step 25 of 40"),
        "overflowing-wall-data": (
            lambda c: (const_field(1.0), const_field(0.0),
                       ("flux", lambda tau: math.exp(tau * 3e4))),
            ValidationError, "is too large"),
        "overflowing-diffusivity": (
            lambda c: (c.raising_past(24 * 2.0 ** -10, OverflowError("D")), const_field(0.0),
                       ("flux", lambda tau: 0.0)),
            ValidationError, "is too large"),
    }

    @pytest.mark.filterwarnings("ignore:invalid value")  # inf bands meet a zero difference
    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_failures_match_the_serial_march(self, monkeypatch, case):
        build, exc, match = self.FAILURES[case]
        monkeypatch.setattr(solver, "BLOCK_ELEMS", 5 * 17)

        def run():
            dif, src, wall = build(self)
            return march(Grid1D(16), SolverConfig(dt=2.0 ** -10, t_end=40 * 2.0 ** -10),
                         dif, src, wall, ("flux", lambda tau: 0.0), const_field(0.0))

        serial = outcome(run)
        force_the_helper(monkeypatch, block=10)
        seen = factored_steps(monkeypatch)
        assert outcome(run) == serial
        assert serial[0] is exc and re.search(match, serial[1])
        assert True in seen  # the helper factored steps before the failure
        assert multiprocessing.active_children() == []

    def test_helper_leaves_an_interrupt_to_the_marcher(self, monkeypatch):
        # the helper is forked from this process, so it assembles with this
        # diffusivity, which interrupts the helper alone
        parent = os.getpid()

        def interrupting(tau, eta):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)  # as Ctrl-C reaches both
            return np.full(np.broadcast(tau, eta).shape, 2.0)

        def run():
            return march(Grid1D(16), SolverConfig(t_end=0.25), interrupting, const_field(0.0),
                         ("flux", lambda tau: 0.0), ("flux", lambda tau: 0.0),
                         TestPolynomialOracle.quadratic)

        serial = run()
        force_the_helper(monkeypatch, block=10)
        seen = factored_steps(monkeypatch)
        res = run()
        assert seen == [False] * 10 + [True] * 22
        assert np.array_equal(res.snapshots[-1][1], serial.snapshots[-1][1])

    def test_helper_does_not_outlive_an_interrupt(self, monkeypatch):
        force_the_helper(monkeypatch, block=10)
        seen = factored_steps(monkeypatch)

        def interrupted(tau):
            if len(seen) > 15:
                raise KeyboardInterrupt
            return 0.0

        with pytest.raises(KeyboardInterrupt):
            march(Grid1D(16), SolverConfig(t_end=0.25), const_field(1.0), const_field(0.0),
                  ("flux", interrupted), ("flux", lambda tau: 0.0), const_field(0.0))
        assert True in seen
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("why", ["one-cpu", "no-fork", "below-threshold", "one-block"])
    def test_marches_alone(self, monkeypatch, why):
        force_the_helper(monkeypatch, block=10)
        if why == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        elif why == "no-fork":
            real = multiprocessing.get_context

            def get_context(method=None):
                if method == "fork":
                    raise ValueError("cannot find context for 'fork'")
                return real(method)

            monkeypatch.setattr(multiprocessing, "get_context", get_context)
        elif why == "below-threshold":
            # 48 steps, 38 of them past the first block, on 25 nodes
            monkeypatch.setattr(solver, "PIPELINE_NODE_STEPS", 38 * 25 + 1)
        else:
            monkeypatch.setattr(solver, "PIPELINE_BLOCK_STEPS", 48)
        seen = factored_steps(monkeypatch)
        solve_reference(24, SolverConfig(t_end=0.25))
        assert seen == [False] * 48

    def test_study_levels_march_alone(self, monkeypatch):
        # the study forks a child for its coarser levels: no level starts a helper
        force_the_helper(monkeypatch, block=10)
        monkeypatch.setattr(solver, "_FactorsAhead", lambda *args: pytest.fail("helper started"))
        results = convergence_study([16, 32], SolverConfig(t_end=0.25), REF.params, REF.consts)
        assert [r.grid.n_cells for r in results] == [16, 32]


class TestSchemes:
    def test_euler_first_order_in_time(self):
        # fine grid, coarse dt: halving dt roughly halves the error
        errs = [solve_reference(256, SolverConfig(dt=dt, t_end=0.25,
                                                          scheme="euler")).error_inf
                for dt in (0.025, 0.0125)]
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_cn_beats_euler_at_same_dt(self):
        cn = solve_reference(256, SolverConfig(dt=0.0125, t_end=0.25)).error_inf
        eu = solve_reference(256, SolverConfig(dt=0.0125, t_end=0.25,
                                                       scheme="euler")).error_inf
        assert cn < eu / 10.0


class TestMarchProperties:
    def test_patch_test_linear_profile_exact(self):
        # constant D, no source, matching Neumann data: linear profile is a
        # discrete steady state, reproduced to roundoff
        beta = 0.7
        res = march(Grid1D(16), SolverConfig(t_end=0.5),
                    const_field(3.0), const_field(0.0),
                    ("flux", lambda tau: beta), ("flux", lambda tau: beta),
                    exact=lambda tau, eta: 0.2 + beta * eta)
        assert res.error_inf < 1e-13

    def test_maximum_principle_constant_state(self):
        res = march(Grid1D(16), SolverConfig(t_end=1.0),
                    lambda tau, eta: 8.0 * (8.0 * tau + eta + 1.0),
                    const_field(0.0),
                    ("flux", lambda tau: 0.0), ("flux", lambda tau: 0.0),
                    exact=const_field(0.37))
        assert res.error_inf < 1e-13

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_error_names_step(self):
        # the march starts from exact at tau = 0, infinite at eta = 0
        with pytest.raises(DivergenceError, match="step 1"):
            march(Grid1D(16), SolverConfig(t_end=0.1),
                  const_field(1.0), const_field(0.0),
                  ("flux", lambda tau: 0.0), ("flux", lambda tau: 0.0),
                  lambda tau, eta: np.where((tau == 0.0) & (np.asarray(eta) == 0.0), np.inf, 0.0))

    def test_starts_from_the_exact_field(self):
        exact = TestPolynomialOracle.quadratic
        grid = Grid1D(16)
        res = march(grid, SolverConfig(t_end=0.1), TestPolynomialOracle.diffusivity,
                    const_field(0.0), ("flux", lambda tau: 0.0), ("flux", lambda tau: 0.0),
                    exact)
        assert res.snapshots[0][0] == 0.0
        assert np.array_equal(res.snapshots[0][1], np.asarray(exact(0.0, grid.nodes)))

    @pytest.mark.parametrize("kw", [dict(dt=1e30, t_end=1e30), dict(dt=1e20, t_end=1e20),
                                    dict(dt=1e30, t_end=1e30, scheme="euler")])
    def test_zero_pivot_is_a_divergence(self, kw):
        # a huge dt cancels a pivot of the elimination to exactly 0
        with pytest.raises(DivergenceError, match="^zero pivot at step 1 of 1"):
            solve_reference(16, SolverConfig(**kw))


class TestPolynomialOracle:
    """Fields the march reproduces without the paper's closed forms.  D is
    linear in tau and eta, as the equation's own (B/A)*(8*tau + eta + 1) is;
    then a theta linear in tau and quadratic in eta makes every part of a
    step exact (face differences, the centred flux difference, the ghost
    node, the theta-method with its coefficients at tau_n + w*dt), so only
    rounding remains.  A steady cubic in eta isolates the boundary closure:
    the ghost node's theta(h) - theta(-h) = 2*h*theta_eta + h^3*theta_etaetaeta/3
    leaves an h^3 term in the error with flux walls, which Richardson
    extrapolation exposes."""

    @staticmethod
    def diffusivity(tau, eta):
        return 8.0 * (8.0 * tau + eta + 1.0)

    @staticmethod
    def quadratic(tau, eta):
        return 1.0 + 0.3 * tau + tau * (0.7 * eta - 0.4 * eta ** 2) + 0.2 * eta ** 2

    @staticmethod
    def quadratic_eta(tau, eta):
        return tau * (0.7 - 0.8 * eta) + 0.4 * eta

    def quadratic_source(self, tau, eta):
        # theta_tau - d/deta(D*theta_eta), with D_eta = 8
        return (0.3 + 0.7 * eta - 0.4 * eta ** 2 - 8.0 * self.quadratic_eta(tau, eta)
                - self.diffusivity(tau, eta) * (0.4 - 0.8 * tau))

    @pytest.mark.parametrize("n", [8, 16, 64])
    @pytest.mark.parametrize("inner, outer", [("flux", "flux"), ("value", "value"),
                                              ("flux", "value")])
    @pytest.mark.parametrize("scheme", ["cn", "euler"])
    def test_quadratic_field_to_roundoff(self, scheme, inner, outer, n):
        def wall(kind, eta):
            f = self.quadratic_eta if kind == "flux" else self.quadratic
            return kind, lambda tau: f(tau, eta)

        res = march(Grid1D(n), SolverConfig(t_end=0.5, scheme=scheme), self.diffusivity,
                    self.quadratic_source, wall(inner, 0.0), wall(outer, 1.0), self.quadratic)
        assert len(res.snapshots) == N_SNAPSHOTS
        for tau, theta in res.snapshots:
            assert np.max(np.abs(theta - self.quadratic(tau, res.grid.nodes))) <= 1e-12

    @pytest.mark.parametrize("kind, extrapolated_order", [("flux", 3.0), ("value", 4.0)])
    def test_steady_cubic_orders(self, kind, extrapolated_order):
        # theta = 0.5 + 0.3*eta^3 to tau = 0.25: flux data 0 and 0.9, values 0.5 and 0.8
        def cubic(eta):
            return 0.5 + 0.3 * eta ** 3

        def source(tau, eta):
            return -(7.2 * eta ** 2 + self.diffusivity(tau, eta) * 1.8 * eta)

        lo, hi = {"flux": (0.0, 0.9), "value": (0.5, 0.8)}[kind]
        final = {}
        for n in (16, 32, 64, 128, 256):
            res = march(Grid1D(n), SolverConfig(), self.diffusivity, source,
                        (kind, lambda tau: lo), (kind, lambda tau: hi),
                        lambda tau, eta: cubic(eta))
            final[n] = res.snapshots[-1][1]
        levels = sorted(final)
        exact = {n: cubic(np.linspace(0.0, 1.0, n + 1)) for n in levels}
        plain = [np.max(np.abs(final[n] - exact[n])) for n in levels]
        extrapolated = [np.max(np.abs((4.0 * final[2 * n][::2] - final[n]) / 3.0 - exact[n]))
                        for n in levels[:-1]]
        orders = lambda errs: [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert orders(plain) == pytest.approx([2.0] * 4, abs=0.01)
        assert orders(extrapolated) == pytest.approx([extrapolated_order] * 3, abs=0.06)


class TestConvergenceStudy:
    def test_orders_near_two(self):
        results = convergence_study([64, 128, 256], SolverConfig(t_end=0.25),
                                    REF.params, REF.consts)
        assert results[0].observed_order is None
        for res in results[1:]:
            assert 1.8 <= res.observed_order <= 2.2

    def test_single_level_errors_only(self):
        msg = "^convergence needs at least 2 grid levels, e.g. --grid 64,128,256$"
        for levels in ([64], []):
            with pytest.raises(ValidationError, match=msg):
                convergence_study(levels, SolverConfig(t_end=0.25), REF.params, REF.consts)

    def test_result_keeps_the_exact_field_at_t_end(self):
        # t_end = 0.05 on 16 cells: k*dt + dt misses t_end by an ulp at the
        # last step, which is labelled t_end itself; the norms are its errors
        for config in (SolverConfig(t_end=0.05), SolverConfig(t_end=0.0)):
            res = solve_reference(16, config)
            assert res.snapshots[-1][0] == config.t_end
            exact_end = res.exact(config.t_end, res.grid.nodes)
            assert res.error_inf == float(np.max(np.abs(res.snapshots[-1][1] - exact_end)))

    def test_repeated_level_rejected_before_any_check(self, monkeypatch):
        # log(h/h) = 0 would make the order NaN; the 4-cell level would fail
        # its own check, so the repeat is caught first, and nothing forks
        monkeypatch.setattr(os, "fork", None)
        for levels in ([64, 64], [4, 4], [32, 64, 32]):
            with pytest.raises(ValidationError, match="^levels must be distinct"):
                convergence_study(levels, SolverConfig(t_end=0.25), REF.params, REF.consts)

    def test_descending_levels(self):
        results = convergence_study([128, 64], SolverConfig(t_end=0.25), REF.params, REF.consts)
        assert [r.grid.n_cells for r in results] == [128, 64]
        assert 1.8 <= results[1].observed_order <= 2.2

    def test_dt_tied_to_h(self):
        # each level's dt is dt_over_h * h; an explicit dt is an error, not dropped
        with pytest.raises(ValidationError, match="^dt must not be set"):
            convergence_study([16, 32], SolverConfig(t_end=0.25, dt=123.0), REF.params, REF.consts)

    @pytest.mark.parametrize("errors, orders", [
        ({16: 0.0, 32: 4e-3, 64: 1e-3}, [None, None, pytest.approx(2.0)]),
        ({16: 4e-3, 32: 0.0, 64: 1e-3}, [None, None, None]),
    ], ids=["coarser-zero", "finer-zero"])
    def test_zero_error_leaves_no_order(self, monkeypatch, errors, orders):
        # log(0) is -inf with a RuntimeWarning, and x / 0.0 raises
        # ZeroDivisionError: neither is an order
        real = solver.march

        def with_errors(grid, config, *args):
            res = real(grid, config, *args)
            res.error_inf = errors[grid.n_cells]
            return res

        monkeypatch.setattr(solver, "march", with_errors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = convergence_study([16, 32, 64], SolverConfig(t_end=0.05),
                                        REF.params, REF.consts)
        assert [r.observed_order for r in results] == orders


def per_level_oracle(levels, config, params, consts):
    """The one-level-at-a-time study, frozen here as the oracle of the
    forked one: results and observed orders must equal its exactly."""
    config = replace(config, dt=None)
    results = [solve_general(params, consts, n, config) for n in levels]
    for prev, res in zip(results, results[1:]):
        res.observed_order = float(np.log(prev.error_inf / res.error_inf)
                                   / np.log(prev.grid.h / res.grid.h))
    return results


def general_case():
    return _member(a=1.0, **TestOneSolvePath.GENERAL)


@pytest.fixture
def marched_in(monkeypatch):
    """Record, per level, the pid of the process that marched it."""
    real = solver.march

    def recording(grid, config, *args):
        res = real(grid, config, *args)
        res.pid = os.getpid()  # pickled back with the result
        return res

    monkeypatch.setattr(solver, "march", recording)
    return lambda results: [res.pid for res in results]


def failing_at(monkeypatch, failures):
    """Make march raise failures[n_cells] at those levels; in a forked
    child too, which inherits the patch."""
    real = solver.march

    def failing(grid, config, *args):
        if grid.n_cells in failures:
            raise failures[grid.n_cells]
        return real(grid, config, *args)

    monkeypatch.setattr(solver, "march", failing)


@pytest.fixture
def no_fork(monkeypatch):
    """A platform without 'fork': convergence_study marches every level here."""
    real = multiprocessing.get_context

    def get_context(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(os, "fork", None)


class TestForkedStudy:
    CASES = {
        "reference-derived": (None, [32, 64, 128], SolverConfig(t_end=0.25)),
        "reference-unsorted": (None, [64, 128, 16, 32], SolverConfig(t_end=0.25, bc_mode="paper")),
        "general-unsorted": ("general", [64, 16, 128, 32],
                             SolverConfig(t_end=0.25, bc_mode="dirichlet")),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_per_level_oracle(self, case, ref, marched_in):
        which, levels, config = self.CASES[case]
        params, consts = general_case() if which else (ref.params, ref.consts)
        results = convergence_study(levels, config, params, consts)
        expect = per_level_oracle(levels, config, params, consts)
        assert [r.grid.n_cells for r in results] == levels
        for res, exp in zip(results, expect):
            assert len(res.snapshots) == len(exp.snapshots)
            for (t1, v1), (t2, v2) in zip(res.snapshots, exp.snapshots):
                assert t1 == t2
                assert np.array_equal(v1, v2)
            assert (res.error_inf, res.error_l2) == (exp.error_inf, exp.error_l2)
            assert res.observed_order == exp.observed_order
            assert res.exact(0.1, 0.5) == exp.exact(0.1, 0.5)
        # the finest level marched here, the others in one other process
        pids = marched_in(results)
        fine = levels.index(max(levels))
        assert pids[fine] == os.getpid()
        others = {pid for i, pid in enumerate(pids) if i != fine}
        assert len(others) == 1 and os.getpid() not in others
        assert multiprocessing.active_children() == []

    def test_coarse_failure_reaches_the_caller(self, monkeypatch):
        failing_at(monkeypatch, {32: DivergenceError("non-finite solution at step 7 of 64")})
        with pytest.raises(DivergenceError, match="^non-finite solution at step 7 of 64$"):
            convergence_study([16, 32, 64], SolverConfig(t_end=0.25), REF.params, REF.consts)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("levels, first", [([16, 64, 32], 16), ([64, 16, 32], 64),
                                               ([32, 64, 16], 32)])
    def test_first_failing_level_in_given_order_wins(self, monkeypatch, levels, first):
        # the finest level (64) marches in this process, the rest in the child
        failing_at(monkeypatch, {n: ValidationError(f"level {n}") for n in (16, 32, 64)})
        with pytest.raises(ValidationError, match=f"^level {first}$"):
            convergence_study(levels, SolverConfig(t_end=0.25), REF.params, REF.consts)
        assert multiprocessing.active_children() == []

    def test_over_budget_names_the_first_level(self, monkeypatch):
        # both levels exceed MAX_STEPS; serially the 64-cell level fails
        # first, and the check runs before anything is forked
        monkeypatch.setattr(os, "fork", None)
        with pytest.raises(ValidationError, match=r"= 5\.12e\+06 steps exceeds"):
            convergence_study([64, 128], SolverConfig(t_end=1e4), REF.params, REF.consts)

    def test_checks_before_marching_keep_serial_order(self, monkeypatch):
        monkeypatch.setattr(os, "fork", None)
        params, consts = general_case()
        # the paper-mode rejection of level 64 (768000 steps, in budget) comes
        # before level 128's budget (1536000 steps)
        with pytest.raises(ValidationError, match="bc_mode 'paper'"):
            convergence_study([64, 128], SolverConfig(t_end=1500.0, bc_mode="paper"),
                              params, consts)
        with pytest.raises(ValidationError, match="n_cells must be >= 8"):
            convergence_study([4, 64], SolverConfig(t_end=1e4), REF.params, REF.consts)

    def test_without_fork_every_level_marches_here(self, no_fork, ref, marched_in):
        levels, config = [64, 16, 32], SolverConfig(t_end=0.25)
        results = convergence_study(levels, config, REF.params, REF.consts)
        expect = per_level_oracle(levels, config, ref.params, ref.consts)
        assert [(r.error_inf, r.observed_order) for r in results] == \
            [(e.error_inf, e.observed_order) for e in expect]
        assert marched_in(results) == [os.getpid()] * 3

    def test_march_arguments_built_once_per_level(self, monkeypatch, no_fork):
        # the checks before marching build each level's grid and arguments,
        # and the march takes those
        real, built = solver._level, []

        def counting(params, consts, n_cells, config):
            built.append(n_cells)
            return real(params, consts, n_cells, config)

        monkeypatch.setattr(solver, "_level", counting)
        for params, consts in ((REF.params, REF.consts), general_case()):
            built.clear()
            convergence_study([64, 16, 32], SolverConfig(t_end=0.05), params, consts)
            assert built == [64, 16, 32]

    def test_child_that_dies_is_an_error(self, monkeypatch):
        real = solver.march

        def dying(grid, config, *args):
            if grid.n_cells == 16:
                os._exit(3)
            return real(grid, config, *args)

        monkeypatch.setattr(solver, "march", dying)
        with pytest.raises(RuntimeError, match="exited without sending"):
            convergence_study([16, 32], SolverConfig(t_end=0.25), REF.params, REF.consts)
        assert multiprocessing.active_children() == []

    def test_child_leaves_an_interrupt_to_the_caller(self, monkeypatch, ref):
        real = solver.march

        def interrupted(grid, config, *args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)  # as Ctrl-C reaches both
            return real(grid, config, *args)

        parent = os.getpid()
        monkeypatch.setattr(solver, "march", interrupted)
        levels, config = [16, 32], SolverConfig(t_end=0.25)
        results = convergence_study(levels, config, REF.params, REF.consts)
        expect = per_level_oracle(levels, config, ref.params, ref.consts)
        assert [r.error_inf for r in results] == [e.error_inf for e in expect]

    def test_child_does_not_outlive_an_interrupt(self, monkeypatch):
        real = solver.march

        def slow_or_interrupted(grid, config, *args):
            if grid.n_cells == 16:
                time.sleep(60)  # the child, still marching when the caller stops
            elif grid.n_cells == 32:
                raise KeyboardInterrupt
            return real(grid, config, *args)

        monkeypatch.setattr(solver, "march", slow_or_interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            convergence_study([16, 32], SolverConfig(t_end=0.25), REF.params, REF.consts)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30
