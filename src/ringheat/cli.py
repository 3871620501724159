"""Command-line front end: verification suite, IBVP solves, profiles, refinement studies.

Subcommands: verify, solve, profile, convergence.  Runs are configured by a
JSON file with blocks ``physical``, ``reduced``, ``constants``, ``solver``,
``output``, ``profile`` (exactly one of physical/reduced); every CLI flag
overrides the file.  CSV output is UTF-8, comma-separated, LF line endings,
17-significant-digit decimals (round-trip exact), so reruns are
bit-identical.  Exit codes: 0 pass, 1 check/solve failure, 2 usage/config
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (
    C5_MIN,
    PhysicalParams,
    ReducedParams,
    ReferenceCase,
    SingularConstantError,
    SingularTimeError,
    SolutionConstants,
    ValidationError,
    from_reduced,
    reduce_params,
)
from . import solver as _solver
from . import temperature
from .solver import (
    DivergenceError,
    Grid1D,
    SolverConfig,
    convergence_study,
    solve_general,
    solve_reference,  # noqa: F401 - not called here; bench/spans.py wraps cli.solve_reference
)
from .verification import published_gap_at, run_suite

__all__ = ["main", "RunConfig", "ConfigError"]

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

_CONFIG_BLOCKS = {"physical", "reduced", "constants", "solver", "output", "profile"}
_PHYS_KEYS = {"rho", "Cp", "k_cond", "mu", "mu0", "T0", "R10", "R20", "p_inf"}
_REDUCED_KEYS = {"A", "B", "eps", "a"}
_CONST_KEYS = {"C3", "C5", "K"}
_SOLVER_KEYS = {"grid", "levels", "dt", "tau_end", "scheme", "bc_mode"}
_OUTPUT_KEYS = {"path", "format"}
_PROFILE_KEYS = {"tau", "n_eta"}


class ConfigError(Exception):
    """Malformed run configuration (file or flags)."""


@dataclass
class RunConfig:
    """Fully resolved run settings (file defaults overridden by flags)."""

    params: ReducedParams
    consts: SolutionConstants
    phys: PhysicalParams | None = None
    grid_n: int = 128
    levels: list = field(default_factory=list)
    solver: SolverConfig = field(default_factory=SolverConfig)
    out: str | None = None
    fmt: str = "csv"
    profile_tau: list = field(default_factory=lambda: [0.0, 0.125, 1.0, 1e4])
    profile_n_eta: int = 101


def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - _CONFIG_BLOCKS
    if unknown:
        raise ConfigError(f"unknown config blocks: {sorted(unknown)}")
    return cfg


def _count(value, name: str) -> int:
    """value as an int: an int, or a float with an integral value (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _block(cfg: dict, label: str, allowed: set) -> dict:
    block = cfg.get(label, {})
    if not isinstance(block, dict):
        raise ConfigError(f"'{label}' block must be a JSON object, got {type(block).__name__}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{label}' block: {sorted(unknown)}")
    return dict(block)


def resolve_config(args) -> RunConfig:
    """Merge JSON config (if any) with CLI flags into a RunConfig."""
    cfg = _load_json(args.config) if getattr(args, "config", None) else {}

    phys_block = cfg.get("physical")
    reduced_block = cfg.get("reduced")
    if phys_block is not None and reduced_block is not None:
        raise ConfigError("give exactly one of the 'physical' and 'reduced' blocks")

    phys = None
    try:
        if phys_block is not None:
            phys = PhysicalParams(**_block(cfg, "physical", _PHYS_KEYS))
            params = reduce_params(phys)
        elif reduced_block is not None:
            params = ReducedParams(**_block(cfg, "reduced", _REDUCED_KEYS))
        else:
            params = ReferenceCase().params
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad parameter block: {e}") from e

    const_block = _block(cfg, "constants", _CONST_KEYS)
    solver_block = _block(cfg, "solver", _SOLVER_KEYS)
    out_block = _block(cfg, "output", _OUTPUT_KEYS)
    prof_block = _block(cfg, "profile", _PROFILE_KEYS)

    try:
        C3 = float(const_block.get("C3", 0.125))
        C5 = float(const_block.get("C5", C5_MIN))
        if getattr(args, "c5", None) is not None:
            C5 = args.c5
        if "K" in const_block:
            K = float(const_block["K"])
        else:
            # default K: the amplitude making the wall temperatures coincide
            # at tau = 0 (the reference tuple gives exactly -5/18432)
            K = temperature.k_for_equal_boundaries(params, C3)
        consts = SolutionConstants(C3=C3, C5=C5, K=K)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad constants block: {e}") from e

    rc = RunConfig(params=params, consts=consts, phys=phys)
    solver = {}  # SolverConfig fields the file or the flags set
    try:
        rc.grid_n = _count(solver_block.get("grid", rc.grid_n), "solver.grid")
        levels = solver_block.get("levels", [])
        if not isinstance(levels, list):
            raise ConfigError(f"solver.levels must be a list of integers, got {levels!r}")
        rc.levels = [_count(n, "solver.levels") for n in levels]
        if solver_block.get("dt") is not None:
            solver["dt"] = float(solver_block["dt"])
        if "tau_end" in solver_block:
            solver["t_end"] = float(solver_block["tau_end"])
        for key in ("scheme", "bc_mode"):
            if key in solver_block:
                solver[key] = solver_block[key]
        rc.out = out_block.get("path", None)
        if rc.out is not None and not isinstance(rc.out, str):
            raise ConfigError("output.path must be a string")
        rc.fmt = str(out_block.get("format", rc.fmt))
        rc.profile_tau = [float(t) for t in prof_block.get("tau", rc.profile_tau)]
        rc.profile_n_eta = _count(prof_block.get("n_eta", rc.profile_n_eta), "profile.n_eta")
        if rc.profile_n_eta < 2:
            raise ConfigError("profile.n_eta must be >= 2")
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad solver/output/profile block: {e}") from e

    # flag overrides
    if getattr(args, "grid", None) is not None:
        parts = str(args.grid).split(",")
        try:
            ns = [int(p) for p in parts if p != ""]
        except ValueError as e:
            raise ConfigError(f"--grid expects an integer or comma list: {e}") from e
        if not ns:
            raise ConfigError("--grid got an empty list")
        rc.grid_n = ns[0]
        if len(ns) > 1 or args.cmd == "convergence":
            rc.levels = ns
    for flag, name in (("tau_end", "t_end"), ("scheme", "scheme"), ("bc_mode", "bc_mode")):
        if getattr(args, flag, None) is not None:
            solver[name] = getattr(args, flag)
    if getattr(args, "out", None) is not None:
        rc.out = args.out
    if getattr(args, "fmt", None) is not None:
        rc.fmt = args.fmt

    if rc.fmt != "csv":
        raise ConfigError(f"unsupported format {rc.fmt!r} (only 'csv')")
    rc.solver = SolverConfig(**solver)
    return rc


def _write_text(path: str | None, text: str, stream=None):
    if path is None:
        (stream or sys.stdout).write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def _csv(rows, header) -> str:
    # None is an empty cell
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if x is None else _fmt17(x) for x in row))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    rc = resolve_config(args)
    suite = run_suite(rc.params, rc.consts, phys=rc.phys)
    width = max(len(c.name) for c in suite.checks) + 2
    print(f"{'check':<{width}}{'max_resid':>13}{'tol':>10}  status")
    for c in suite.checks:
        status = "PASS" if c.passed else "FAIL"
        note = f"  ({c.note})" if c.note else ""
        print(f"{c.name:<{width}}{c.value:>13.3e}{c.tol:>10.0e}  {status}{note}")
    d = suite.discrepancy
    print("\n-- published outer-flux inconsistency (informational, never gates) --")
    print(f"  tau = 0: published {d.published_outer[0]:+.5f}, derived {d.derived_outer[0]:+.5f}, "
          f"gap {d.outer_gap[0]:.5f} (opposite signs)")
    print(f"  inner flux max gap on tau in [0, 1]: {float(np.max(np.abs(d.inner_gap))):.3e}")
    tail = published_gap_at(100.0)
    print(f"  outer gap at tau = 100: {tail:.3e} (decays with tau)")
    if rc.out:
        report = {
            "params": vars(rc.params).copy(),
            "constants": vars(rc.consts).copy(),
            "checks": [{"name": c.name, "value": c.value, "tol": c.tol,
                        "passed": c.passed, "note": c.note} for c in suite.checks],
            "inconsistency": {
                "tau0_published_outer": float(d.published_outer[0]),
                "tau0_derived_outer": float(d.derived_outer[0]),
                "tau0_outer_gap": float(d.outer_gap[0]),
                "inner_max_gap": float(np.max(np.abs(d.inner_gap))),
                "tau100_outer_gap": tail,
            },
            "all_passed": suite.passed,
        }
        with open(rc.out, "w", encoding="utf-8", newline="\n") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    print(f"\n{'all checks passed' if suite.passed else 'CHECK FAILURES present'}")
    return EXIT_OK if suite.passed else EXIT_FAIL


def cmd_solve(args) -> int:
    rc = resolve_config(args)
    if rc.solver.bc_mode == "paper":
        print("warning: 'paper' boundary mode feeds the published outer flux, "
              "which is inconsistent with the exact solution; expect an error "
              "plateau near 0.5 instead of convergence", file=sys.stderr)
    grid = Grid1D(n_cells=rc.grid_n, a=rc.params.a)
    result = solve_general(rc.params, rc.consts, grid, rc.solver)
    nodes = grid.nodes
    rows = []
    for tau_s, theta in result.snapshots:
        # the last snapshot's tau can miss t_end by an ulp; only at t_end
        # itself is the field the norms were measured against the right one
        if tau_s == result.config.t_end:
            ex = result.exact_end
        else:
            ex = np.asarray(result.exact(tau_s, nodes), dtype=float)
        for eta_j, th_j, ex_j in zip(nodes.tolist(), theta.tolist(), ex.tolist()):
            rows.append((tau_s, eta_j, th_j, ex_j, abs(th_j - ex_j)))
    text = _csv(rows, ["tau", "eta", "theta_numeric", "theta_exact", "abs_err"])
    _write_text(rc.out, text)
    norms = f"error_inf={_fmt17(result.error_inf)} error_l2={_fmt17(result.error_l2)}"
    print(norms, file=sys.stderr if rc.out is None else sys.stdout)
    return EXIT_OK


def cmd_profile(args) -> int:
    rc = resolve_config(args)
    eta = np.linspace(0.0, rc.params.a, rc.profile_n_eta)
    rows = []
    header = ["tau", "eta", "theta"]
    if rc.phys is not None:
        header += ["t", "r", "T"]
    for tau_s in rc.profile_tau:
        th = temperature.theta_general(tau_s, eta, rc.params, rc.consts)
        th = np.broadcast_to(np.asarray(th, dtype=float), eta.shape)
        if rc.phys is not None:
            t_s, r_s = from_reduced(tau_s, eta, rc.phys)
            T_s = temperature.dimensional_T(t_s, r_s, rc.phys, rc.consts)
            for e, v, tt, rr, TT in zip(eta, th, np.broadcast_to(t_s, eta.shape), r_s, T_s):
                rows.append((tau_s, e, v, tt, rr, TT))
        else:
            for e, v in zip(eta, th):
                rows.append((tau_s, e, v))
    _write_text(rc.out, _csv(rows, header))
    return EXIT_OK


def cmd_convergence(args) -> int:
    rc = resolve_config(args)
    levels = rc.levels if rc.levels else []
    if len(levels) < 2:
        print("error: convergence needs at least 2 grid levels, e.g. --grid 64,128,256",
              file=sys.stderr)
        return EXIT_USAGE
    results = convergence_study(levels, rc.solver, rc.params, rc.consts)

    print(f"{'n_cells':>8} {'h':>12} {'error_inf':>14} {'order':>8}")
    rows = []
    for res in results:
        # the first level has no coarser one to observe an order against
        order = res.observed_order
        print(f"{res.grid.n_cells:>8} {res.grid.h:>12.6g} {res.error_inf:>14.6e} "
              f"{'-' if order is None else format(order, '.3f'):>8}")
        rows.append((res.grid.n_cells, res.grid.h, res.error_inf, order))
    if rc.out:
        _write_text(rc.out, _csv(rows, ["n_cells", "h", "error_inf", "observed_order"]))

    if rc.solver.bc_mode == "paper":
        floor = _solver.PUBLISHED_FLUX_ERROR_FLOOR
        print(f"\nexpected failure: the published outer flux is inconsistent with the "
              f"exact solution, so the error plateaus (frozen regression floor {floor}) "
              f"instead of converging at order 2.")
        return EXIT_FAIL
    orders = [r.observed_order for r in results[1:]]
    ok = all(o is not None and 1.8 <= o <= 2.2 for o in orders)
    if not ok:
        print("\norder outside [1.8, 2.2]")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ringheat",
        description="Exact temperature fields in an expanding rotating liquid ring: "
                    "residual verification, IBVP solves, profiles, refinement studies.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, solver_flags=True):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--c5", type=float, help="free level constant C5 (default 5/3)")
        sp.add_argument("--format", dest="fmt", choices=["csv"], help="output format")
        if solver_flags:
            sp.add_argument("--bc-mode", dest="bc_mode",
                            choices=["derived", "paper", "dirichlet"],
                            help="boundary data: exact Neumann | published Neumann | exact Dirichlet")
            sp.add_argument("--grid", help="node count N, or comma list for convergence")
            sp.add_argument("--tau-end", dest="tau_end", type=float, help="final tau")
            sp.add_argument("--scheme", choices=["cn", "euler"], help="time scheme")

    sp = sub.add_parser("verify", help="run the residual/invariant/conservation suite")
    common(sp, solver_flags=False)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("solve", help="march the IBVP and emit snapshots vs exact")
    common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("profile", help="emit temperature tables (reduced and dimensional)")
    common(sp, solver_flags=False)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("convergence", help="grid refinement study with observed orders")
    common(sp)
    sp.set_defaults(func=cmd_convergence)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, SingularConstantError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SingularTimeError as e:
        print(f"error: singular time requested: {e}", file=sys.stderr)
        return EXIT_FAIL
    except DivergenceError as e:
        print(f"error: solver diverged: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
