import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ringheat import cli
from ringheat.cli import main
from ringheat.core import ValidationError


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def read_csv(path):
    # an empty cell reads as None
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(x) if x else None for x in ln.split(","))))
            for ln in lines[1:]]
    return header, rows


class TestVerify:
    def test_default_run_passes(self, capsys):
        rc, out, _ = run(["verify"], capsys)
        assert rc == 0
        assert "all checks passed" in out
        assert "0.40480" in out  # the outer-flux gap is reported

    #: every check of the reference case, in order; any other tuple runs the first 21
    CHECK_NAMES = [
        "flow_azimuthal_momentum", "flow_boundary_flux", "flow_flux_evolution",
        "flow_ring_scale", "pde_theta_simple", "pde_theta_general", "determining_equation",
        "translation_annihilation", "scaling_annihilation_J1", "scaling_annihilation_J2",
        "reduced_ode_profile", "boundary_equality_tau0", "boundary_difference_C",
        "trace_vs_restriction", "coordinate_identity", "coordinate_roundtrip",
        "dimensional_equivalence", "area_conservation", "angular_momentum_conservation",
        "stress_free_boundaries", "asymptote_level",
        "reference_K_rational", "reference_K_printed", "reference_equation_coefficients",
        "pde_theta_reference", "general_equals_reference", "initial_profile_identity",
        "nonnegativity_at_c5_threshold"]

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc, out, _ = run(["verify", "--out", str(report)], capsys)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["all_passed"]
        inc = data["inconsistency"]
        assert list(inc) == ["tau0_published_outer", "tau0_derived_outer", "tau0_outer_gap",
                             "inner_max_gap", "tau100_outer_gap"]
        assert inc["tau0_outer_gap"] == pytest.approx(0.405, abs=1e-3)
        # each figure printed is its JSON value in the printed format
        printed = re.search(r"published (\S+), derived (\S+), gap (\S+) .*\n"
                            r".*: (\S+)\n.*: (\S+) ", out).groups()
        assert list(printed) == [format(v, f) for v, f in zip(
            inc.values(), ("+.5f", "+.5f", ".5f", ".3e", ".3e"))]
        names = {c["name"] for c in data["checks"]}
        assert "boundary_difference_C" in names
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"reduced": {"A": 1.3, "B": 2.1, "eps": -0.7, "a": 2.0},
                                   "constants": {"C3": 0.3, "C5": 0.8}}))
        rc, _, _ = run(["verify", "--config", str(cfg), "--out", str(tmp_path / "g.json")],
                       capsys)
        assert rc == 0
        general = json.loads((tmp_path / "g.json").read_text())
        for checks, n in ((data["checks"], 28), (general["checks"], 21)):
            assert [c["name"] for c in checks] == self.CHECK_NAMES[:n]
            assert all(set(c) == {"name", "value", "tol", "passed", "note"} for c in checks)

    def test_eps_zero_config_passes(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"reduced": {"A": 0.75, "B": 6.0, "eps": 0.0, "a": 1.0}}))
        rc, out, _ = run(["verify", "--config", str(cfg)], capsys)
        assert rc == 0

    def test_tampered_K_fails(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "reduced": {"A": 0.75, "B": 6.0, "eps": 0.5, "a": 1.0},
            "constants": {"C3": 0.125, "K": -5.0 / 18432.0 + 1e-3},
        }))
        rc, out, _ = run(["verify", "--config", str(cfg)], capsys)
        assert rc == 1
        lines = {ln.split()[0]: ln for ln in out.splitlines() if " PASS" in ln or " FAIL" in ln}
        assert "FAIL" in lines["boundary_difference_C"]
        assert "PASS" in lines["pde_theta_general"]  # any K solves the equation

    @pytest.mark.parametrize("reduced, C3, failed", [
        # Theta_general reaches 2e20 on the grid, where its PDE residual is 1.1e8,
        # and is still -8.8e10 at tau = 1e4
        ({"A": 4.18, "B": 0.308, "eps": 1.06, "a": 0.411}, 0.0525,
         {"pde_theta_general", "asymptote_level"}),
        # the decay to C5/2 is too slow for tau = 1e4 (1.71e-4 against 1e-4)
        ({"A": 0.114, "B": 3.25, "eps": 1.6, "a": 1}, 0.5, {"asymptote_level"}),
    ])
    def test_known_failing_tuples(self, tmp_path, capsys, reduced, C3, failed):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"reduced": reduced, "constants": {"C3": C3, "C5": 1}}))
        rc, out, _ = run(["verify", "--config", str(cfg)], capsys)
        assert rc == 1
        assert {ln.split()[0] for ln in out.splitlines() if ln.split()[3:4] == ["FAIL"]} == failed

    def test_thin_ring_reaches_a_verdict(self, tmp_path, capsys):
        # just above that width, sampled points near the inner wall round to
        # an eta just below 0; the suite runs to its verdict, and the area
        # check, which cannot resolve so thin a ring, stays a visible failure
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"reduced": {"A": 0.75, "B": 6.0, "eps": 0.5, "a": 1e-14}}))
        rc, out, err = run(["verify", "--config", str(cfg)], capsys)
        assert rc == 1
        failed = [ln.split()[0] for ln in out.splitlines() if ln.endswith(" FAIL")]
        assert failed == ["area_conservation"]
        assert err == ""


class TestSolve:
    def test_csv_contract_and_accuracy(self, tmp_path, capsys):
        out_path = tmp_path / "solve.csv"
        rc, out, _ = run(["solve", "--grid", "128", "--tau-end", "0.25",
                          "--bc-mode", "derived", "--out", str(out_path)], capsys)
        assert rc == 0
        header, rows = read_csv(out_path)
        assert header == ["tau", "eta", "theta_numeric", "theta_exact", "abs_err"]
        final_err = max(r["abs_err"] for r in rows if r["tau"] == 0.25)
        assert final_err < 1e-4
        assert "error_inf=" in out

    def test_t_end_zero_numeric_equals_exact(self, tmp_path, capsys):
        out_path = tmp_path / "zero.csv"
        rc, _, _ = run(["solve", "--grid", "16", "--tau-end", "0",
                        "--out", str(out_path)], capsys)
        assert rc == 0
        _, rows = read_csv(out_path)
        assert all(r["theta_numeric"] == r["theta_exact"] for r in rows)
        assert all(r["abs_err"] == 0.0 for r in rows)

    def test_paper_mode_warns(self, tmp_path, capsys):
        rc, _, err = run(["solve", "--grid", "16", "--bc-mode", "paper",
                          "--out", str(tmp_path / "p.csv")], capsys)
        assert rc == 0
        assert "inconsistent" in err

    def test_lf_line_endings_and_17_digits(self, tmp_path, capsys):
        out_path = tmp_path / "solve.csv"
        run(["solve", "--grid", "16", "--out", str(out_path)], capsys)
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        # a round-trip-exact irrational node coordinate appears in full
        assert b"0.0625" in raw

    def test_deterministic_rerun_bit_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["solve", "--grid", "32", "--out", str(p1)], capsys)
        run(["solve", "--grid", "32", "--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_decimals_round_trip_exactly(self, tmp_path, capsys):
        from ringheat.temperature import theta_reference

        out_path = tmp_path / "zero.csv"
        run(["solve", "--grid", "16", "--tau-end", "0", "--out", str(out_path)], capsys)
        _, rows = read_csv(out_path)
        # parsing the 17-digit text recovers the computed doubles bit for bit
        for r in rows:
            assert r["theta_exact"] == float(theta_reference(r["tau"], r["eta"]))

    @pytest.mark.parametrize("grid, tau_end", [("16", "0.25"), ("16", "0.05"), ("32", "0.7"),
                                               ("12", "0.3"), ("8", "0.1")])
    def test_exact_column_at_every_snapshot_tau(self, tmp_path, capsys, monkeypatch,
                                                grid, tau_end):
        # past 0.25, k*dt + dt misses tau_end by an ulp at the last step: the
        # last block still sits at tau_end, where the printed norms were taken
        from ringheat import temperature

        real = temperature.theta_reference
        calls = []

        def counting(tau, eta, *args, **kwargs):
            calls.append(tau)
            return real(tau, eta, *args, **kwargs)

        monkeypatch.setattr(temperature, "theta_reference", counting)
        out_path = tmp_path / "solve.csv"
        rc, out, _ = run(["solve", "--grid", grid, "--tau-end", tau_end,
                          "--out", str(out_path)], capsys)
        assert rc == 0
        _, rows = read_csv(out_path)
        for r in rows:
            assert r["theta_exact"] == float(real(r["tau"], r["eta"]))
        last = rows[-int(grid) - 1:]
        assert {r["tau"] for r in last} == {float(tau_end)}
        assert float(out.split()[0].removeprefix("error_inf=")) == max(r["abs_err"] for r in last)
        # the initial data, the norms at t_end, then one evaluation per snapshot
        assert calls == [0.0, float(tau_end)] + [r["tau"] for r in rows[::int(grid) + 1]]

    def test_euler_scheme_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "euler.csv"
        rc, _, _ = run(["solve", "--grid", "64", "--scheme", "euler",
                        "--tau-end", "0.25", "--out", str(out_path)], capsys)
        assert rc == 0
        _, rows = read_csv(out_path)
        final_err = max(r["abs_err"] for r in rows if r["tau"] == 0.25)
        assert final_err < 5e-3  # first order in time, still converged

    def test_general_constants_run_in_derived_mode(self, tmp_path, capsys):
        # the default bc_mode feeds the exact general-family wall flux
        from ringheat.core import ReducedParams, SolutionConstants
        from ringheat.temperature import k_for_equal_boundaries, theta_general

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"reduced": {"A": 1.5, "B": 6.0, "eps": 0.5, "a": 1.0}}))
        out_path = tmp_path / "x.csv"
        rc, _, _ = run(["solve", "--config", str(cfg), "--grid", "16",
                        "--out", str(out_path)], capsys)
        assert rc == 0
        _, rows = read_csv(out_path)
        params = ReducedParams(A=1.5, B=6.0, eps=0.5, a=1.0)
        consts = SolutionConstants(C3=0.125, C5=5.0 / 3.0,
                                   K=k_for_equal_boundaries(params, 0.125))
        for r in rows:
            assert r["theta_exact"] == float(theta_general(r["tau"], r["eta"], params, consts))

    def test_configured_K_runs_the_general_solve(self, tmp_path, capsys):
        # reference (A, B, eps, a, C3) with a K of its own is not the
        # reference case: the exact column is theta_general at that K
        from ringheat.core import ReducedParams, SolutionConstants
        from ringheat.temperature import theta_general

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"constants": {"C3": 0.125, "K": 0.37}}))
        out_path = tmp_path / "k.csv"
        rc, _, _ = run(["solve", "--config", str(cfg), "--grid", "16", "--tau-end", "0.05",
                        "--bc-mode", "dirichlet", "--out", str(out_path)], capsys)
        assert rc == 0
        _, rows = read_csv(out_path)
        params = ReducedParams(A=0.75, B=6.0, eps=0.5, a=1.0)
        consts = SolutionConstants(C3=0.125, C5=5.0 / 3.0, K=0.37)
        for r in rows:
            assert r["theta_exact"] == float(theta_general(r["tau"], r["eta"], params, consts))
        assert rows[0]["theta_exact"] != 0.0  # the reference field vanishes there

    def test_configured_K_runs_derived_and_rejects_paper(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"constants": {"C3": 0.125, "K": 0.37}}))
        rc, _, _ = run(["solve", "--config", str(cfg), "--grid", "16",
                        "--bc-mode", "derived", "--out", str(tmp_path / "x.csv")], capsys)
        assert rc == 0  # REJECTED's paper-configured-K row is the 'paper' half

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"solver": {"grid": 64}}))
        out_path = tmp_path / "s.csv"
        run(["solve", "--config", str(cfg), "--grid", "16", "--tau-end", "0",
             "--out", str(out_path)], capsys)
        _, rows = read_csv(out_path)
        assert len(rows) == 17  # 16 cells -> 17 nodes, single snapshot at tau = 0


class TestProfile:
    def test_reference_profile_boundaries(self, tmp_path, capsys):
        out_path = tmp_path / "prof.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"profile": {"tau": [0.0, 0.125, 1.0, 1e4],
                                               "n_eta": 101}}))
        rc, _, _ = run(["profile", "--config", str(cfg), "--out", str(out_path)], capsys)
        assert rc == 0
        header, rows = read_csv(out_path)
        assert header == ["tau", "eta", "theta"]
        assert len(rows) == 4 * 101
        t0 = [r for r in rows if r["tau"] == 0.0]
        assert abs(t0[0]["theta"]) < 1e-12 and abs(t0[-1]["theta"]) < 1e-12
        big = [r for r in rows if r["tau"] == 1e4]
        assert all(abs(r["theta"] - 5.0 / 6.0) < 1e-4 for r in big)

    def test_dimensional_columns_with_physical_block(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "physical": {"rho": 1.0, "Cp": 3.0, "k_cond": 24.0, "mu": 1.0,
                         "mu0": 0.5, "T0": 1.0, "R10": 2.0 ** 0.5, "R20": 1.0},
            "profile": {"tau": [0.0], "n_eta": 21},
        }))
        out_path = tmp_path / "prof.csv"
        rc, _, _ = run(["profile", "--config", str(cfg), "--out", str(out_path)], capsys)
        assert rc == 0
        header, rows = read_csv(out_path)
        assert header == ["tau", "eta", "theta", "t", "r", "T"]
        # dimensional output at t = 0 reproduces T0 * Theta(0, .)
        assert all(abs(r["T"] - 1.0 * r["theta"]) < 1e-12 for r in rows)
        assert all(r["t"] == 0.0 for r in rows)

    def test_c5_flag_shifts_level(self, tmp_path, capsys):
        out_path = tmp_path / "prof.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"profile": {"tau": [1e4], "n_eta": 5}}))
        rc, _, _ = run(["profile", "--config", str(cfg), "--c5", "2.0",
                        "--out", str(out_path)], capsys)
        _, rows = read_csv(out_path)
        assert all(abs(r["theta"] - 1.0) < 1e-4 for r in rows)


class TestConvergence:
    def test_derived_mode_passes(self, capsys):
        rc, out, _ = run(["convergence", "--grid", "64,128,256"], capsys)
        assert rc == 0
        assert "error_inf" in out

    def test_paper_mode_expected_failure(self, capsys):
        rc, out, _ = run(["convergence", "--grid", "64,128,256",
                          "--bc-mode", "paper"], capsys)
        assert rc == 1
        assert "plateau" in out
        assert out.endswith("instead of converging at order 2.\n")

    def test_euler_paper_mode_expected_failure(self, capsys):
        # euler's own band does not let the published-flux plateau pass
        rc, out, _ = run(["convergence", "--grid", "64,128,256", "--scheme", "euler",
                          "--bc-mode", "paper"], capsys)
        assert rc == 1
        assert "expected failure: the published outer flux is inconsistent" in out
        # the order it fails to reach is euler's, the centre of its band
        assert out.endswith("instead of converging at order 1.\n")

    # each study is judged by its own scheme's band: implicit Euler with dt
    # tied to h converges at order 1, so it passes inside [0.8, 1.2]
    @pytest.mark.parametrize("extra, config", [
        (["--grid", "32,64,128"], None),
        (["--grid", "16,32,64", "--bc-mode", "dirichlet"],
         {"reduced": {"A": 1.3, "B": 2.1, "eps": -0.7, "a": 2.0},
          "constants": {"C3": 0.3, "C5": 0.8}}),
    ], ids=["reference-derived", "general-dirichlet"])
    def test_euler_study_passes_in_its_band(self, extra, config, tmp_path, capsys):
        if config is not None:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(config))
            extra = extra + ["--config", str(cfg)]
        rc, out, err = run(["convergence", "--scheme", "euler"] + extra, capsys)
        assert rc == 0 and err == ""
        orders = [float(ln.split()[3]) for ln in out.splitlines()[2:4]]
        assert len(orders) == 2 and all(0.8 <= o <= 1.2 for o in orders)
        assert "order outside" not in out

    def test_zero_error_levels_have_no_order(self, capsys):
        # both levels' errors are exactly 0.0 here, and their ratio raised
        # ZeroDivisionError: no order is observed, so the study fails
        rc, out, err = run(["convergence", "--grid", "8,9", "--tau-end",
                            "1.21154754723797e-110", "--c5", "0"], capsys)
        assert rc == 1
        table = [ln.split() for ln in out.splitlines() if ln.split()[:1] in (["8"], ["9"])]
        assert [row[2:] for row in table] == [["0.000000e+00", "-"]] * 2
        assert "order outside [1.8, 2.2]" in out
        assert err == ""

    def test_table_csv(self, tmp_path, capsys):
        out_path = tmp_path / "conv.csv"
        rc, _, _ = run(["convergence", "--grid", "32,64", "--out", str(out_path)], capsys)
        assert rc == 0
        header, rows = read_csv(out_path)
        assert header == ["n_cells", "h", "error_inf", "observed_order"]
        assert rows[1]["observed_order"] == pytest.approx(2.0, abs=0.2)

    def test_first_level_order_is_blank_not_nan(self, tmp_path, capsys):
        # the first level has no order; the table prints '-' in its 4th
        # column and the CSV leaves its cell empty
        out_path = tmp_path / "conv.csv"
        rc, out, _ = run(["convergence", "--grid", "16,32", "--out", str(out_path)], capsys)
        assert rc == 0
        text = out_path.read_text(encoding="utf-8")
        assert "nan" not in out.lower() and "nan" not in text.lower()
        table = [ln.split() for ln in out.splitlines() if ln.split()[:1] in (["16"], ["32"])]
        assert [len(row) for row in table] == [4, 4]
        assert table[0][3] == "-"
        assert float(table[1][3]) == pytest.approx(2.0, abs=0.2)
        assert text.splitlines()[1].endswith(",")

    def test_levels_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"solver": {"grid": [32, 64]}}))
        rc, out, _ = run(["convergence", "--config", str(cfg)], capsys)
        assert rc == 0
        assert "32" in out and "64" in out

    def test_general_constants_default_mode(self, tmp_path, capsys):
        # the benchmark's converge-general tuple (seed 1) without --bc-mode:
        # exact Neumann data, second order
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "reduced": {"A": 0.6343642441124012, "B": 7.237168684686163,
                        "eps": 0.763774618976614, "a": 1.0},
            "constants": {"C3": 0.15101380514788434, "C5": 1.990870174183882},
        }))
        rc, _, _ = run(["solve", "--config", str(cfg), "--grid", "64",
                        "--out", str(tmp_path / "s.csv")], capsys)
        assert rc == 0
        rc, out, _ = run(["convergence", "--config", str(cfg), "--grid", "64,128,256,512"],
                         capsys)
        assert rc == 0
        orders = [float(ln.split()[3]) for ln in out.splitlines()[2:5]]
        assert len(orders) == 3 and all(1.8 <= o <= 2.2 for o in orders)

    def test_general_constants_dirichlet_study(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "reduced": {"A": 1.4, "B": 3.0, "eps": -0.6, "a": 2.0},
            "constants": {"C3": 0.25, "C5": 1.2},
        }))
        rc, out, _ = run(["convergence", "--config", str(cfg), "--grid", "32,64",
                          "--bc-mode", "dirichlet"], capsys)
        assert rc == 0


_REDUCED = {"A": 0.75, "B": 6.0, "eps": 0.5, "a": 1.0}
_PHYSICAL = {"rho": 1.0, "Cp": 3.0, "k_cond": 24.0, "mu": 1.0, "mu0": 0.5, "T0": 1.0,
             "R10": 2.0 ** 0.5, "R20": 1.0}
#: The kind of value each (block, key) of cli._KEYS takes.
KINDS = {(block, key): {"grid": "count", "n_eta": "count", "tau": "list of reals",
                        "scheme": "string", "bc_mode": "string", "path": "string"}.get(key, "real")
         for block, keys in cli._KEYS.items() for key in sorted(keys)}
_SOLVE16 = ["solve", "--grid", "16"]


def assert_rejected(argv, config, fragments, tmp_path, capsys):
    """The rejected-input contract: argv with config (a dict, raw bytes, or None
    for no --config) and --out (unless argv has one or config sets output.path)
    exits 2 with no stdout, no file but the config left in tmp_path, and one
    stderr line `error: ...` holding each fragment; one starting `error: ` is
    its prefix, or with its newline all of it (TMP: tmp_path)."""
    out_given = "--out" in argv
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    if config is not None:
        path = tmp_path / "c.json"
        path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        argv += ["--config", str(path)]
    if not (out_given or isinstance(config, dict) and "path" in config.get("output", {})):
        argv += ["--out", str(tmp_path / "o")]
    rc, stdout, err = run(argv, capsys)
    assert (rc, stdout) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    for fragment in (f.replace("TMP", str(tmp_path)) for f in fragments):
        assert err.startswith(fragment) if fragment.startswith("error: ") else fragment in err
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["c.json"])


def _wrong_type(kinds, values):
    """A row, block.key-<value's name>, for each value at each (block, key) of
    KINDS whose kind is in kinds, in a config with a parameter block; a list
    of reals gets the value as its second element."""
    rows = []
    for (block, key), kind in KINDS.items():
        for name, value in values.items() if kind in kinds else ():
            field = f"{block}.{key}"
            if kind == "list of reals":
                value, field = [0.0, value], f"{field}[1]"
            cfg = {"physical": dict(_PHYSICAL)} if block != "reduced" else {block: dict(_REDUCED)}
            cfg.setdefault(block, {})[key] = value
            argv = ["profile"] if block == "profile" else _SOLVE16
            rows.append((f"{block}.{key}-{name}", argv, cfg,
                         [f"{key} must be " if kind == "string" else f"{field} must be a number"]))
    return rows


_HUGE_K = "constants.K = 1e+308 and constants.C3 = 0.125 overflow theta(0, eta) at eta = 0.0"
#: Every rejected input: the test each key names (Class.test or test) holds its
#: rows (id, argv, config, fragments), or one row without an id, so without
#: parameters; positional ids (argv0-...) are those pytest gave the cases.
REJECTED = {
    # a = 2**-51 and 8e-15: 1 + a/xi rounds to 1 at the grid's xi = 81, so the
    # flux balance would divide 0 by 0
    "TestVerify.test_ring_too_thin_to_verify_exit_2": [
        ("physical", ["verify"], {"physical": {**dict.fromkeys(_PHYSICAL, 1), "mu0": 0,
                                               "R10": 1.0000000000000002}},
         ["error: physical.R10 = ", "too thin to verify"]),
        ("reduced", ["verify"], {"reduced": {**_REDUCED, "a": 8e-15}},
         ["error: reduced.a = ", "too thin to verify"])],
    "TestVerify.test_malformed_config_exit_2": [
        (None, ["verify"], b"{not json", ["error: config TMP/c.json is not valid JSON: "])],
    # json.load raises ValueError, RecursionError or UnicodeDecodeError, not JSONDecodeError
    "TestVerify.test_unparsable_config_exit_2": [
        (name, ["solve"], raw, ["error: config TMP/c.json is not valid JSON: "])
        for name, raw in [("4301+-digit-int", b'{"solver": {"grid": ' + b"9" * 5000 + b"}}"),
                          ("deep-nesting", b"[" * 100000), ("not-utf-8", b'{"reduced": "\xff"}')]],
    "TestVerify.test_both_parameter_blocks_exit_2": [
        (None, ["verify"], {"reduced": _REDUCED, "physical": _PHYSICAL},
         ["error: give exactly one of the 'physical' and 'reduced' blocks\n"])],
    "TestVerify.test_unknown_config_key_exit_2": [
        (None, ["verify"], {"reduced": {**_REDUCED, "oops": 3}},
         ["error: unknown keys in 'reduced' block: ['oops']\n"])],
    # ((1 + a)/C3)^(8A/B) overflows, so no K equalises the walls
    "TestSolve.test_singular_equal_boundary_K_is_one_error": [
        (None, _SOLVE16, {"reduced": {"A": 10.0, "B": 0.3, "eps": 0.5, "a": 5.0},
                          "constants": {"C3": 0.05}},
         ["error: equal-boundary condition is singular at C3=0.05 (slope=nan)\n"])],
    # a time before the expansion starts is bad, singular (-C3 = -0.125) or not; json
    # writes inf and nan as Infinity and NaN, which json.load reads back into a NaN profile
    "TestProfile.test_negative_time_request_exit_2": [
        (repr(tau), ["profile"], {"profile": {"tau": [0.5, tau], "n_eta": 5}},
         [f"error: profile.tau[1] must be finite and >= 0, got {tau!r}\n"])
        for tau in (-0.2, -0.01)],
    "TestProfile.test_non_finite_time_request_exit_2": [
        (repr(tau), ["profile"], {"profile": {"tau": [tau]}},
         [f"error: profile.tau[0] must be finite and >= 0, got {tau!r}\n"])
        for tau in (float("inf"), float("nan"))],
    # numpy overflows theta(0, eta) to inf (K = 1e308), then to nan (K = 1e300 with C3 =
    # 1e-5), without raising; its scan names K before any profile row is computed
    "TestProfile.test_non_finite_profile_exit_2": [
        (name, ["profile"], {"constants": c, "profile": {"tau": [0.0, 1.0], "n_eta": 3}},
         [f"error: constants.K = {c['K']!r} and constants.C3 = ", "overflow theta(0, eta)"])
        for name, c in [("inf", {"K": 1e308}), ("nan", {"K": 1e300, "C3": 1e-5})]],
    # theta = C5/2 is finite, T = T0*theta overflows; checked per profile.tau
    "TestProfile.test_non_finite_dimensional_profile_exit_2": [
        (None, ["profile"], {"physical": {**_PHYSICAL, "T0": 1e9},
                             "constants": {"C5": 1e300, "K": 0.0},
                             "profile": {"tau": [0.0, 1.0], "n_eta": 3}},
         ["error: profile.tau[0] = 0.0 gives a non-finite T"])],
    # at t_end = 0 every error is 0, and equal grids have no h ratio: no order to observe
    "TestConvergence.test_t_end_zero_exit_2": [
        (None, ["convergence", "--grid", "16,32", "--tau-end", "0"], None,
         ["error: t_end must be > 0 for a convergence study"])],
    "TestConvergence.test_repeated_level_exit_2": [
        (None, ["convergence", "--grid", "64,64"], None, ["error: levels must be distinct"])],
    "TestConvergence.test_single_level_usage_error": [
        (None, ["convergence", "--grid", "64"], None, ["at least 2"])],
    "test_bad_solver_block_exit_2": [
        (f"solver{i}-{key}", _SOLVE16, {"solver": {key: bad}}, [key])
        for i, (key, bad) in enumerate([("scheme", "rk4"), ("bc_mode", "mixed"), ("dt", -0.1)])],
    # a count that int() would truncate is rejected, not run: a fraction and a
    # bool at each count, and in a study's list of cell counts
    "test_non_integral_count_exit_2": [
        (f"argv{i}-cfg{i}-{field}", argv, cfg, [f"{field} must be an integer"])
        for i, (argv, cfg, field) in enumerate(
            [(["convergence"], {"solver": {"grid": [bad, 64]}}, "solver.grid")
             for bad in (64.9, True)]
            + [(["profile" if block == "profile" else "solve"], {block: {key: bad}},
                f"{block}.{key}")
               for (block, key), kind in KINDS.items() if kind == "count"
               for bad in (True, 16.5)])],
    # JSON's 1e309 reads as inf: each physical value is named, not the reduced
    # group it would make non-finite
    "test_non_finite_physical_exit_2": [
        (f"{argv[0]}-{key}", argv,
         json.dumps({"physical": {**_PHYSICAL, key: "X"}}).replace('"X"', "1e309").encode(),
         [f"error: {key} must be a finite number\n"])
        for argv in (["verify"], ["profile"], _SOLVE16, ["convergence", "--grid", "16,32"])
        for key in _PHYSICAL],
    # a ring has R10 > R20: a width of 0 is rejected, whether or not K is given
    "test_zero_width_ring_exit_2": [
        (f"{argv[0]}-{'K' if consts else 'derived-K'}", argv,
         {"reduced": {**_REDUCED, "a": 0}, **consts}, ["error: a must be > 0\n"])
        for argv in (["verify"], ["profile"], _SOLVE16, ["convergence", "--grid", "16,32"])
        for consts in ({}, {"constants": {"K": 0.0}})],
    # a bool is a JSON boolean, not the number float() would make of it
    "test_non_number_real_exit_2": _wrong_type(
        {"real", "list of reals"}, {"true": True, "false": False, "string": "0.5", "list": [1.0]}),
    # R20 ** 2 and mu ** 3 overflow; mu ** 2 and R20 ** 2 underflow to a 0 divisor
    "test_physical_out_of_float_range_exit_2": [
        (name, ["profile"], {"physical": {**_PHYSICAL, **phys}},
         ["error: physical parameters", "float range"])
        for name, phys in [("R20-squared", {"R10": 2e200, "R20": 1e200}),
                           ("mu-cubed", {"mu": 1e120}), ("mu-squared-zero", {"mu": 1e-200}),
                           ("R20-squared-zero", {"R10": 1e-160, "R20": 1e-170})]],
    # float() of a JSON integer beyond the double range raises OverflowError
    "test_huge_integer_real_exit_2": [
        (None, ["profile"], {"constants": {"K": 10 ** 400}}, ["constants.K is too large"])],
    "test_step_budget_exit_2": [
        # 1e4 / (h/8) at h = 1/128: 10,240,000 steps, about 10x the budget
        ("argv0-solver0-1.024e+07", ["solve", "--tau-end", "1e4", "--grid", "128"],
         {"solver": {}}, ["t_end", "dt", "= 1.024e+07 steps"]),
        # 0.25 / 5e-324 overflows to inf; int() of it used to escape as OverflowError
        ("argv1-solver1-inf", _SOLVE16, {"solver": {"dt": 5e-324}},
         ["t_end", "dt", "= inf steps"])],
    "test_non_finite_input_exit_2": [
        (f"argv{i}-{field}", argv, None, [field, "finite"]) for i, (argv, field) in enumerate([
            (["solve", "--tau-end", "nan"], "t_end"), (["solve", "--tau-end", "inf"], "t_end"),
            (["convergence", "--grid", "16,32", "--tau-end=-inf"], "t_end"),
            (["profile", "--c5", "nan"], "C5"), (["profile", "--c5", "inf"], "C5"),
            (["verify", "--c5", "nan"], "C5")])],
    "test_float_overflow_exit_2": [
        # P ** 3 in theta_general
        ("profile-tau", ["profile"], {"profile": {"tau": [0.0, 1e103]}},
         ["profile.tau[1] = 1e+103"]),
        # eps ** 2 in the equal-boundary K and in every closed form
        ("verify-eps", ["verify"], {"reduced": {**_REDUCED, "eps": 1e155}}, ["eps"]),
        ("solve-eps", _SOLVE16 + ["--bc-mode", "dirichlet"],
         {"reduced": {**_REDUCED, "eps": -2e154}, "constants": {"K": 0.0}}, ["eps"]),
        # verify's tau-derivatives of the source overflow from |eps| ~ 6e150, and
        # a march diverges after raw warnings from ~9e152
        *[(f"{argv[0]}-eps-{eps:g}", argv, {"reduced": {**_REDUCED, "eps": eps}},
           [f"error: eps must keep 16*(1 + eps^2) at most 1e+300 (|eps| < ~2.5e149), "
            f"got {eps!r}\n"])
          for argv, eps in [(["verify"], 6e150), (_SOLVE16, 1.5e153),
                            (["convergence", "--grid", "16,32"], 1.5e153)]],
        # verify's derivatives of theta_simple overflow where eps^2*(B + 8A)^3
        # passes ~6.9e304, inside the 16*(1 + eps^2) bound
        ("verify-eps-B-plus-8A", ["verify"], {"reduced": {"A": 100, "B": 8, "eps": 1.2e148,
                                                           "a": 1.0}},
         ["error: eps must keep eps^2*(B + 8A)^3 at most 1e+304, got eps = 1.2e+148 with "
          "B + 8A = 808.0\n"]),
        # C3 ** 3 in the equal-boundary K, (tau + C3) ** 3 in theta_general
        ("verify-C3", ["verify"], {"constants": {"C3": 1e103}}, ["C3"]),
        ("solve-C3", _SOLVE16 + ["--bc-mode", "dirichlet"],
         {"constants": {"C3": 6e102, "K": 0.0}}, ["C3"]),
        # verify's tau-derivatives square (tau + C3) ** 3; one C3 rule for all four
        *[(f"{argv[0]}-C3-cube-squared", argv, {"constants": {"C3": 3e51}},
           ["error: C3 must keep (C3^3)^2 finite (C3 < ~2.37e51), got 3e+51\n"])
          for argv in (["verify"], ["profile"], _SOLVE16, ["convergence", "--grid", "16,32"])],
        # c ** 5 in reference_flux
        ("solve-tau_end", _SOLVE16 + ["--tau-end", "1e103"], {"solver": {"dt": 1e103}},
         ["tau_end = 1e+103"]),
        # K * (...) in theta_general's initial data, where numpy overflows to
        # inf: every subcommand scans theta(0, eta) before it computes anything
        *[(f"{argv[0]}-K", argv, {"constants": {"K": 1e308}}, [_HUGE_K]) for argv in [
            _SOLVE16 + ["--tau-end", "0.01", "--bc-mode", "dirichlet"],
            ["convergence", "--grid", "16,32", "--bc-mode", "dirichlet"],
            ["verify"], ["profile"]]],
        # P ** 3 in a wide ring's derived wall flux: a study says so with a solve's line
        *[(f"{cmd}-tau_end-wide", [cmd, "--grid", grid, "--tau-end", "1e103"],
           {"reduced": {"A": 1.0, "B": 8.0, "eps": 0.5, "a": 1e100},
            "constants": {"C3": 0.125, "C5": 1.0}},
           ["error: tau_end = 1e+103 is too large: a closed form overflows the float range "
            "on the way to it\n"]) for cmd, grid in [("solve", "8"), ("convergence", "8,16")]]],
    # B*C3 underflows to 0 in the equal-boundary K's exponents: no K
    # equalises the walls, and that is one error line, not a ZeroDivisionError
    "test_underflowing_B_times_C3_exit_2": [
        (argv[0], argv, {"reduced": {**_REDUCED, "B": 1e-320}, "constants": {"C3": 1e-5}},
         ["error: equal-boundary condition is singular at C3=1e-05 (slope=nan)\n"])
        for argv in (["verify"], ["profile"], _SOLVE16, ["convergence", "--grid", "16,32"])],
    # a subnormal slope makes the equal-boundary K overflow: the same one line
    "test_overflowing_equal_boundary_K_exit_2": [
        (argv[0], argv, {"reduced": {"A": 0.1, "B": 1.0, "eps": 0.0, "a": 1.0},
                         "constants": {"C3": 0.0001342207152716012}},
         ["error: equal-boundary condition is singular at C3=0.0001342207152716012 "
          "(slope=-2.55408898013754e-310)\n"])
        for argv in (["verify"], ["profile"], _SOLVE16, ["convergence", "--grid", "16,32"])],
    # each is rejected before its grid is allocated
    "test_size_bounds_exit_2": [
        *[(name, argv, {}, ["n_cells must be <= 65536"]) for name, argv in [
            ("solve-1e8-cells", ["solve", "--grid", "100000000", "--tau-end", "1e-9"]),
            ("solve-2^20-cells", ["solve", "--grid", "1048576", "--tau-end", "0.1"]),
            ("convergence-cells", ["convergence", "--grid", "64,65537"])]],
        ("solve-node-steps", ["solve", "--grid", "65536", "--tau-end", "0.25"], {},
         ["of 1000000000 node updates"]),
        ("profile-n_eta", ["profile"], {"profile": {"n_eta": 10 ** 8}},
         ["profile.n_eta must be >= 2 and <= 65537"])],
    "test_setting_that_would_not_run_exit_2": [
        # solve marches one grid; it used to march the first of a list and drop the rest
        ("solve-grid-list-flag", ["solve", "--grid", "16,32"], {}, ["solver.grid"]),
        ("solve-grid-list-file", ["solve"], {"solver": {"grid": [16, 32]}}, ["solver.grid"]),
        # a fixed dt would not shrink with h, so a study does not take one
        ("convergence-dt", ["convergence", "--grid", "16,32"], {"solver": {"dt": 1e300}}, ["dt"]),
        # removed keys: free boundaries fix p_inf at 0, CSV is the only format, grid has levels
        ("p_inf", ["verify"], {"physical": {**_PHYSICAL, "p_inf": 7.5}}, ["'p_inf'"]),
        ("format", ["profile"], {"output": {"format": "csv"}}, ["'format'"]),
        ("levels", ["convergence"], {"solver": {"levels": [16, 32]}}, ["'levels'"])],
    # profile-solver and solve-profile used to ignore the block and write the same CSV
    "test_block_the_subcommand_does_not_read_exit_2": [
        (f"{argv[0]}-{block}", argv, {block: cfg},
         [f"error: unknown config blocks for {argv[0]}: ['{block}']\n"])
        for argv, block, cfg in [
            (["verify"], "solver", {"grid": 16}), (["verify"], "profile", {"tau": [1.0]}),
            (["profile"], "solver", {"tau_end": 5.0, "grid": [1, 2, 3], "scheme": "euler"}),
            (_SOLVE16 + ["--tau-end", "0.01"], "profile", {"tau": [1.0], "n_eta": 7}),
            (["convergence", "--grid", "16,32"], "profile", {"n_eta": 7})]],
    # --grid is read as the JSON list [<text>]: a stray comma is an error, not a skipped value
    "test_malformed_grid_flag_exit_2": [
        (name, ["solve", f"--grid={grid}", "--tau-end", "0.01"], None,
         ["error: solver.grid must be an integer, got [64]\n" if grid == "[64]" else
          "error: --grid must be a number or a comma list of numbers, got "])
        for name, grid in [*((g, g) for g in ("64,", "64,,128", ",64", "6_4", "0x40", "[64]")),
                           ("empty", ""), ("4301+-digits", "9" * 5000),
                           ("deep-nesting", "[" * 100000)]],
    "test_rejected": [
        # a |C5| past core.C5_ABS_MAX overflows verify's symmetry checks to nan
        # and diverges a march, so SolutionConstants rejects it, as a flag and as a key
        *[(f"{argv[0]}-constants.C5-{how}", argv + flag, cfg,
           [f"error: C5 must be at most 1e+300 in magnitude, got {c5!r}\n"])
          for argv in (["verify"], ["profile"], _SOLVE16, ["convergence", "--grid", "16,32"])
          for how, c5, flag, cfg in [("flag", 1e308, ["--c5", "1e308"], None),
                                     ("key", -1e301, [], {"constants": {"C5": -1e301}})]],
        # an output path that cannot be written: before any work, nothing left behind
        *[(f"{argv[0]}-output.path-{name}", argv + ["--out", path], None,
           [f"error: output.path '{path}' cannot be written: {why}\n"])
          for argv in (["verify"], ["profile"], _SOLVE16, ["convergence", "--grid", "16,32"])
          for name, path, why in [("missing-dir", "TMP/missing/o", "No such file or directory"),
                                  ("directory", "TMP", "Is a directory")]],
        # the name of a scheme or a boundary mode, and a path, are strings
        *_wrong_type({"string"}, {"list": ["cn"], "object": {"cn": "cn"}, "number": 5}),
        *[(f"convergence-solver.scheme-{name}", ["convergence", "--grid", "16,32"],
           {"solver": {"scheme": bad}},
           [f"error: scheme must be one of ('cn', 'euler'), got {bad!r}\n"])
          for name, bad in [("list", ["cn"]), ("object", {"cn": "cn"})]],
        ("missing-config", ["verify", "--config", "TMP/missing.json"], None,
         ["error: cannot read config TMP/missing.json: ", "No such file"]),
        ("root-list", ["verify"], b"[1]", ["error: config root must be a JSON object\n"]),
        ("solver-block-list", _SOLVE16, {"solver": [16]},
         ["error: 'solver' block must be a JSON object, got list\n"]),
        *[(f"incomplete-{block}", ["verify"], {block: {key: 1.0}},
           [f"error: incomplete '{block}' block: "])
          for block, key in [("physical", "rho"), ("reduced", "A")]],
        ("profile.tau-not-a-list", ["profile"], {"profile": {"tau": 0.5}},
         ["error: profile.tau must be a list of numbers, got 0.5\n"]),
        # the published fluxes are the reference case's only, so a configured
        # K has none; no 'paper' warning comes before the error
        ("paper-configured-K", _SOLVE16 + ["--bc-mode", "paper"],
         {"constants": {"C3": 0.125, "K": 0.37}},
         ["error: bc_mode 'paper' feeds the published reference-case fluxes; other constants "
          "take bc_mode 'derived' or 'dirichlet'\n"])],
}


def _rejects(rows):
    """The test that runs `assert_rejected` on each of rows."""
    if rows[0][0] is None:
        return lambda tmp_path, capsys: assert_rejected(*rows[0][1:], tmp_path, capsys)
    @pytest.mark.parametrize("argv, config, fragments", [row[1:] for row in rows],
                             ids=[row[0] for row in rows])
    def test(argv, config, fragments, tmp_path, capsys):
        assert_rejected(argv, config, fragments, tmp_path, capsys)
    return test


for _key, _rows in REJECTED.items():
    _owner, _, _name = _key.rpartition(".")
    setattr(globals()[_owner] if _owner else sys.modules[__name__], _name,
            staticmethod(_rejects(_rows)) if _owner else _rejects(_rows))


@pytest.mark.parametrize("n_tau, reached", [(5, True), (6, False)], ids=["at-bound", "over"])
def test_profile_row_bound(n_tau, reached, tmp_path, capsys, monkeypatch):
    # a profile has at most the rows solve can write, N_SNAPSHOTS times of
    # MAX_CELLS + 1 nodes: 5 * 65537; one past that is rejected before any
    # closed form is evaluated
    from ringheat import temperature

    class Evaluated(Exception):
        pass

    def evaluated(*args, **kwargs):
        raise Evaluated

    monkeypatch.setattr(temperature, "theta_general", evaluated)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": {"tau": [0.0] * n_tau, "n_eta": 65537}}))
    argv = ["profile", "--config", str(path), "--out", str(tmp_path / "o")]
    if reached:
        with pytest.raises(Evaluated):
            main(argv)
        return
    rc, _, err = run(argv, capsys)
    assert rc == 2
    assert err == ("error: profile.tau has 6 times of 65537 points, over the 327685 rows "
                   "a profile may have\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["verify"], ["profile"], _SOLVE16,
                                  ["convergence", "--grid", "16,32"]], ids=lambda a: a[0])
def test_unwritable_output_rejected_before_any_work(argv, tmp_path, capsys, monkeypatch):
    from ringheat import temperature

    def work(*args, **kwargs):
        raise AssertionError("work done before output.path was checked")

    for owner, name in [(cli, "run_suite"), (cli, "solve_general"), (cli, "convergence_study"),
                        (temperature, "require_finite_start")]:
        monkeypatch.setattr(owner, name, work)
    rc, _, err = run(argv + ["--out", str(tmp_path / "missing" / "o")], capsys)
    assert rc == 2
    assert "output.path" in err


def test_integer_reals_accepted(tmp_path, capsys):
    # JSON integers are numbers: B = 6, a = 1 give the reference case itself
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"reduced": {"A": 0.75, "B": 6, "eps": 0.5, "a": 1},
                                "constants": {"C3": 0.125, "C5": 2},
                                "profile": {"tau": [0, 1]}}))
    out = tmp_path / "int.csv"
    assert main(["profile", "--config", str(path), "--out", str(out)]) == 0
    ref = tmp_path / "ref.csv"
    assert main(["profile", "--c5", "2", "--out", str(ref)]) == 0
    assert read_csv(out)[1] == [r for r in read_csv(ref)[1] if r["tau"] in (0.0, 1.0)]


def test_integral_float_counts_accepted(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": {"tau": [0.0], "n_eta": 5.0}}))
    out = tmp_path / "o.csv"
    assert main(["profile", "--config", str(path), "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 5
    path.write_text(json.dumps({"solver": {"grid": [32.0, 64.0]}}))
    rc, stdout, _ = run(["convergence", "--config", str(path), "--tau-end", "0.05"], capsys)
    assert rc == 0
    assert [ln.split()[0] for ln in stdout.splitlines()[1:3]] == ["32", "64"]
    path.write_text(json.dumps({"solver": {"grid": 16.0}}))
    rc, _, _ = run(["solve", "--config", str(path), "--tau-end", "0.01",
                    "--out", str(out)], capsys)
    assert rc == 0
    _, rows = read_csv(out)
    assert sum(row["tau"] == 0.0 for row in rows) == 17  # 16 cells


def test_zero_pivot_exit_1(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"solver": {"dt": 1e30, "tau_end": 1e30}}))
    rc, _, err = run(["solve", "--grid", "16", "--config", str(path),
                      "--out", str(tmp_path / "o")], capsys)
    assert rc == 1
    assert err == "error: solver diverged: zero pivot at step 1 of 1 (tau = 1e+30)\n"


#: flag, its text, the (block, key, value) a config file gives instead, the
#: argv around it; OUT is the --out path, which the command writes to
_GOOD_FLAGS = [
    ("--c5", "2.0", "constants", "C5", 2.0, ["profile"]),
    ("--tau-end", "0.05", "solver", "tau_end", 0.05, ["solve", "--grid", "16"]),
    ("--scheme", "euler", "solver", "scheme", "euler",
     ["solve", "--grid", "16", "--tau-end", "0.05"]),
    ("--bc-mode", "dirichlet", "solver", "bc_mode", "dirichlet",
     ["solve", "--grid", "16", "--tau-end", "0.05"]),
    ("--grid", "16", "solver", "grid", 16, ["solve", "--tau-end", "0.05"]),
    ("--grid", "32,64", "solver", "grid", [32, 64], ["convergence", "--tau-end", "0.05"]),
    ("--out", "OUT", "output", "path", "OUT", ["solve", "--grid", "16", "--tau-end", "0.05"]),
]
#: the same, with a bad value and the field its error names
_BAD_FLAGS = [
    ("--c5", "nan", "constants", "C5", float("nan"), ["profile"], "C5 must be a finite"),
    ("--tau-end", "-1", "solver", "tau_end", -1.0, ["solve", "--grid", "16"], "t_end"),
    ("--scheme", "rk4", "solver", "scheme", "rk4", ["solve", "--grid", "16"],
     "scheme must be one of ('cn', 'euler'), got 'rk4'"),
    ("--bc-mode", "mixed", "solver", "bc_mode", "mixed", ["solve", "--grid", "16"], "bc_mode"),
    ("--grid", "16.5", "solver", "grid", 16.5, ["solve"], "solver.grid must be an integer"),
    ("--grid", "16.5,32", "solver", "grid", [16.5, 32], ["convergence"],
     "solver.grid must be an integer"),
    ("--out", "OUT/o", "output", "path", "OUT/o", ["profile"], "output.path"),
]


def _by_flag_and_by_file(flag, text, block, key, value, argv, tmp_path, capsys):
    """(exit code, stdout, stderr, bytes written to OUT) with the value
    given by the flag, then by the config file."""
    out = tmp_path / "o.csv"
    path = tmp_path / "c.json"
    runs = []
    for extra, cfg in (([flag, text.replace("OUT", str(out))], {}),
                       ([], {block: {key: value.replace("OUT", str(out))
                                     if isinstance(value, str) else value}})):
        path.write_text(json.dumps(cfg))
        runs.append(run(argv + extra + ["--config", str(path)], capsys)
                    + (out.read_bytes() if out.is_file() else None,))
        if out.is_file():
            out.unlink()
    return runs


@pytest.mark.parametrize("flag, text, block, key, value, argv", _GOOD_FLAGS,
                         ids=[f"{c[0]}={c[1]}" for c in _GOOD_FLAGS])
def test_flag_and_file_key_give_the_same_output(flag, text, block, key, value, argv,
                                                tmp_path, capsys):
    by_flag, by_file = _by_flag_and_by_file(flag, text, block, key, value, argv,
                                            tmp_path, capsys)
    assert by_flag[0] == 0
    assert by_flag == by_file


@pytest.mark.parametrize("flag, text, block, key, value, argv, field", _BAD_FLAGS,
                         ids=[f"{c[0]}={c[1]}" for c in _BAD_FLAGS])
def test_flag_and_file_key_give_the_same_error(flag, text, block, key, value, argv, field,
                                               tmp_path, capsys):
    by_flag, by_file = _by_flag_and_by_file(flag, text, block, key, value, argv,
                                            tmp_path, capsys)
    assert by_flag[0] == 2
    assert by_flag[2].startswith("error: ") and field in by_flag[2]
    assert by_flag == by_file


def _argparse_reads_negative_exponents():
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("--x", type=float)
    try:
        probe.parse_args(["--x", "-2e3"])
    except argparse.ArgumentError:
        return False
    return True


def test_negative_exponent_flag_takes_the_equals_form(capsys):
    # argparse (3.11 among others) reads only -2000 and -2.5 as negative
    # numbers, so C5 = -2e3 is given as --c5=-2e3, with the same output as
    # --c5 -2000
    by_equals = run(["verify", "--c5=-2e3"], capsys)
    assert by_equals[0] == 0
    assert by_equals == run(["verify", "--c5", "-2000"], capsys)
    if _argparse_reads_negative_exponents():
        assert run(["verify", "--c5", "-2e3"], capsys) == by_equals
        return
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--c5", "-2e3"])
    assert exc.value.code == 2
    assert "argument --c5: expected one argument" in capsys.readouterr().err


def _readme_blocks(lang):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [part.split("```", 1)[0] for part in readme.split(f"```{lang}\n")[1:]]


def test_readme_configs_accepted(tmp_path):
    # every JSON example in the README is a config some subcommand takes
    examples = _readme_blocks("json")
    assert examples
    path = tmp_path / "c.json"
    for text in examples:
        path.write_text(text, encoding="utf-8")
        accepted = []
        for cmd in cli._COMMANDS:
            try:
                cli.resolve_config(cli.build_parser().parse_args([cmd, "--config", str(path)]))
            except ValidationError:
                continue
            accepted.append(cmd)
        assert accepted, text


def test_readme_commands_exit_as_documented(tmp_path, monkeypatch, capsys):
    # every `ringheat ...` line of the README's sh blocks, run in tmp_path so
    # its outputs land there; run.json is the README's profile example
    # without its profile block, which the README says runs verify
    commands = []
    for block in _readme_blocks("sh"):
        for line in block.splitlines():
            text, _, comment = line.partition("#")
            words = text.split()
            if words[:1] == ["ringheat"]:
                commands.append((words[1:], comment))
    assert len(commands) == 10
    config = json.loads(_readme_blocks("json")[0])
    del config["profile"]
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv, comment in commands:
        paper = "--bc-mode" in argv and argv[argv.index("--bc-mode") + 1] == "paper"
        # the comment of a line that exits 1 says so
        assert paper == ("exit 1" in comment or "expected failure" in comment), argv
        assert main(argv) == (1 if paper else 0), argv
        capsys.readouterr()
    assert {"report.json", "solve.csv", "profiles.csv"} <= {p.name for p in tmp_path.iterdir()}


def test_every_flag_dest_is_the_key_it_sets():
    # resolve_config writes each flag's dest "block.key" into its block, so a
    # dest must name a key of a block its subcommand reads
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for cmd, parser in sub.choices.items():
        dests = {a.dest for a in parser._actions if a.option_strings} - {"help", "config"}
        assert {"output.path", "constants.C5"} <= dests, cmd
        for dest in dests:
            block, _, key = dest.partition(".")
            assert block in cli._READ_BY_ALL + cli._COMMANDS[cmd][2], (cmd, dest)
            assert key in cli._KEYS[block], (cmd, dest)


def test_format_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


class TestConfigFuzz:
    # a value of every JSON kind at each (block, key) of cli._KEYS or one unknown key
    values = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=4)
    fields = st.sampled_from(list(KINDS) + [("reduced", "oops")])
    configs = st.dictionaries(fields, values, max_size=4).map(
        lambda pairs: {b: {k: v for (b2, k), v in pairs.items() if b2 == b} for b, _ in pairs})

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cmd=st.sampled_from(sorted(cli._COMMANDS)), cfg=configs)
    # a list is unhashable, and SCHEMES is a dict
    @example(cmd="solve", cfg={"solver": {"scheme": ["cn"]}})
    def test_loader_never_crashes(self, cmd, cfg, tmp_path_factory):
        # any malformed config must raise an error that main turns into
        # exit 2, never one that escapes as a traceback; resolve_config
        # validates and does not run, so every subcommand is fast here
        path = tmp_path_factory.mktemp("fuzz") / "c.json"
        path.write_text(json.dumps(cfg))
        try:
            cli.resolve_config(cli.build_parser().parse_args([cmd, "--config", str(path)]))
        except (ValidationError, OSError):
            pass
        except Exception as e:  # noqa: BLE001 - the assertion is "no leak"
            raise AssertionError(f"{cmd} config fuzz leaked {type(e).__name__}: {e}") from e

    # every example is fast: at most 64 cells (999 from a 3-character
    # text), and a tau_end <= 0.05 or one past the step budget
    grids = st.one_of(st.integers(min_value=-10, max_value=64).map(str),
                      st.lists(st.integers(min_value=-10, max_value=64), min_size=1,
                               max_size=3).map(lambda ns: ",".join(map(str, ns))),
                      st.text(max_size=3))
    tau_ends = st.one_of(st.floats(min_value=0.0, max_value=0.05).map(repr),
                         st.floats(min_value=1e5).map(repr),
                         st.floats(max_value=0.0).map(repr),
                         st.sampled_from(["nan", "inf", "-inf"]), st.text(max_size=4))
    c5s = st.one_of(st.floats().map(repr), st.text(max_size=4))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cmd=st.sampled_from(["solve", "convergence"]), grid=grids, tau_end=tau_ends,
           c5=c5s)
    # every level's error is exactly 0.0, which left no ratio for an order
    @example(cmd="convergence", grid="8,9", tau_end="1.21154754723797e-110", c5="0")
    # errors near 1e154, whose squares overflowed the L2 norm's sum
    @example(cmd="solve", grid="12", tau_end="0.03125", c5="2.3666423509319384e+169")
    def test_flags_never_crash(self, cmd, grid, tau_end, c5, tmp_path_factory):
        # a flag value comes back as a clean exit code; argparse's own
        # rejection of a non-number is SystemExit(2)
        out = tmp_path_factory.mktemp("fuzz") / "o.csv"
        argv = [cmd, f"--grid={grid}", f"--tau-end={tau_end}", f"--c5={c5}",
                "--out", str(out)]
        try:
            rc = main(argv)
        except SystemExit as e:
            assert e.code == 2, argv
            return
        except Exception as e:  # noqa: BLE001 - the assertion is "no leak"
            raise AssertionError(f"{argv} leaked {type(e).__name__}: {e}") from e
        assert rc in (0, 1, 2)


class TestEntryPoint:
    @staticmethod
    def run_module(*argv, module="ringheat.cli"):
        # the child does not inherit pytest's pythonpath, so put src on its
        # PYTHONPATH: the package need not be installed
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env)

    def test_console_script_runs(self):
        proc = self.run_module("profile")
        assert proc.returncode == 0
        assert proc.stdout.startswith("tau,eta,theta")

    def test_unknown_subcommand_exit_2(self):
        proc = self.run_module("frobnicate")
        assert proc.returncode == 2

    def test_package_runs_as_module(self):
        # `python -m ringheat` runs the same CLI as `python -m ringheat.cli`
        proc = self.run_module("profile", module="ringheat")
        assert proc.returncode == 0
        assert proc.stdout == self.run_module("profile").stdout
        assert self.run_module("frobnicate", module="ringheat").returncode == 2
        help_ = self.run_module("--help", module="ringheat")
        assert help_.returncode == 0 and help_.stdout.startswith("usage: ringheat")


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # main reuses one parser; a usage error, --help and each subcommand in
    # turn still give what a fresh interpreter gives
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the same width in both
    for argv in (["frobnicate"], ["--help"], ["verify"],
                 ["solve", "--grid", "16", "--tau-end", "0.05"], ["profile"]):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        fresh = TestEntryPoint.run_module(*argv)
        assert (rc, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def _python(code, *argv):
    # a fresh interpreter with src on its PYTHONPATH: pytest's own
    # `filterwarnings` setting imports scipy.integrate into the test
    # process, so sys.modules here proves nothing
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_ROOT_PROBE = """
import json, sys
import ringheat

print(json.dumps({"public": sorted(n for n in vars(ringheat) if not n.startswith("_")),
                  "version": ringheat.__version__,
                  "loaded": sorted(m for m in sys.modules
                                   if m == "numpy" or m.startswith("ringheat."))}))
"""


def test_package_root_binds_only_its_version():
    # each name is imported from the module that defines it, so importing
    # the package loads no submodule and no numpy
    state = _python(_ROOT_PROBE)
    assert state["public"] == []
    assert isinstance(state["version"], str)
    assert state["loaded"] == []


_SCIPY_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import ringheat.cli as cli
from ringheat import flow, verification

state = {"after_import": scipy_modules(),
         "multiprocessing_after_import": "multiprocessing" in sys.modules,
         "legendre_after_import": "numpy.polynomial.legendre" in sys.modules,
         "numpy_random_after_import": "numpy.random" in sys.modules,
         "quad_callable": callable(flow.quad) and callable(verification.quad)}
with contextlib.redirect_stdout(io.StringIO()):
    state["rc"] = cli.main(json.loads(sys.argv[1]))
state["after_run"] = scipy_modules()
state["numpy_random_after_run"] = "numpy.random" in sys.modules
print(json.dumps(state))
"""


@pytest.mark.parametrize("argv", [
    ["solve", "--grid", "32", "--tau-end", "0.01"],
    ["convergence", "--grid", "32,64", "--tau-end", "0.05"],
    ["verify"],
    ["profile"],
])
def test_no_subcommand_loads_scipy(argv):
    state = _python(_SCIPY_PROBE, json.dumps(argv))
    assert state["rc"] == 0
    assert state["after_import"] == []
    assert state["after_run"] == []
    # a convergence study imports multiprocessing only when it forks, and
    # the Gauss-Legendre nodes load numpy.polynomial only when verify integrates
    assert not state["multiprocessing_after_import"]
    assert not state["legendre_after_import"]
    # verify draws its sample points with the stdlib's random, which is
    # loaded anyway; numpy.random (and the secrets and hashlib it pulls in)
    # would cost ~5.6 MB of peak memory
    assert not state["numpy_random_after_import"]
    assert not state["numpy_random_after_run"]
    # the benchmark's tracer wraps both names by attribute
    assert state["quad_callable"]


_SCIPY_BLOCKED = """
import contextlib, io, json, sys

sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import ringheat.cli as cli

rcs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rcs.append(cli.main(argv))
print(json.dumps(rcs))
"""


def test_every_subcommand_runs_without_scipy():
    argvs = [["verify"], ["solve", "--grid", "32", "--tau-end", "0.01"], ["profile"],
             ["convergence", "--grid", "32,64", "--tau-end", "0.05"]]
    assert _python(_SCIPY_BLOCKED, json.dumps(argvs)) == [0, 0, 0, 0]
