"""Command-line front end: verification suite, IBVP solves, profiles, refinement studies.

Subcommands: verify, solve, profile, convergence, each configured by a JSON
file of the blocks it reads (`_COMMANDS`): ``physical`` or ``reduced`` (not
both), ``constants``, ``output``, and ``profile`` for profile or ``solver``
(with its flags) for solve and convergence; any other block exits 2.  Every
CLI flag is a config key: it replaces the file's value before anything is
validated, so a value is checked by the same code whichever way it comes.
CSV output is UTF-8, comma-separated, LF line endings, 17-significant-digit
decimals (round-trip exact), so reruns are bit-identical.  Exit codes: 0 pass;
1 a failed check or order band, the expected `paper`-mode failure, or a
diverged march (`DivergenceError`); 2 a rejected input (`core.ValidationError`,
the message naming the field), an unreadable file, or a usage error."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    C5_MIN,
    PhysicalParams,
    ReducedParams,
    ReferenceCase,
    SolutionConstants,
    ValidationError,
    from_reduced,
    reduce_params,
)
from . import temperature
from .solver import (
    BC_MODES,
    MAX_CELLS,
    N_SNAPSHOTS,
    PUBLISHED_FLUX_ERROR_FLOOR,
    SCHEMES,
    DivergenceError,
    Grid1D,
    SolverConfig,
    convergence_study,
    solve_general,
    solve_reference,  # noqa: F401 - not called here; bench/spans.py wraps cli.solve_reference
)
from .verification import published_gap_at, run_suite

__all__ = ["main", "RunConfig"]

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

#: The keys each config block takes; `_COMMANDS` says which subcommand reads which.
_KEYS = {
    "physical": {"rho", "Cp", "k_cond", "mu", "mu0", "T0", "R10", "R20"},
    "reduced": {"A", "B", "eps", "a"},
    "constants": {"C3", "C5", "K"},
    "solver": {"grid", "dt", "tau_end", "scheme", "bc_mode"},
    "output": {"path"},
    "profile": {"tau", "n_eta"},
}
#: The (block, key) each flag sets, by its argparse dest; `resolve_config`
#: reads --grid itself, as the JSON list [<text>] it writes to solver.grid.
_FLAGS = {"c5": ("constants", "C5"), "tau_end": ("solver", "tau_end"),
          "scheme": ("solver", "scheme"), "bc_mode": ("solver", "bc_mode"),
          "out": ("output", "path")}


@dataclass
class RunConfig:
    """Resolved run settings, defaults set in `resolve_config`; None if not read."""

    params: ReducedParams
    consts: SolutionConstants
    phys: PhysicalParams | None
    out: str | None
    grid: list[int] | None = None
    solver: SolverConfig | None = None
    profile_tau: list | None = None
    profile_n_eta: int | None = None


def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _load_json(path: str, cmd: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as e:
        raise ValidationError(f"cannot read config {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # not UTF-8 or JSON, too deep, a 4301+ digit int
        raise ValidationError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    unknown = set(cfg) - set(_READ_BY_ALL + _COMMANDS[cmd][2])
    if unknown:
        raise ValidationError(f"unknown config blocks for {cmd}: {sorted(unknown)}")
    return cfg


def _count(value, name: str) -> int:
    """value as an int: an int, or a float with an integral value (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """value as a float: an int or a float (not a bool, not a string)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as e:
        raise ValidationError(f"{name} is too large: {e}") from e


def _block(cfg: dict, label: str) -> dict:
    block = cfg.get(label, {})
    if not isinstance(block, dict):
        raise ValidationError(f"'{label}' block must be a JSON object, "
                              f"got {type(block).__name__}")
    unknown = set(block) - _KEYS[label]
    if unknown:
        raise ValidationError(f"unknown keys in '{label}' block: {sorted(unknown)}")
    return dict(block)


def _dataclass(cls, label: str, block: dict):
    """cls of the block's reals, each named by its key."""
    try:
        return cls(**{k: _real(v, f"{label}.{k}") for k, v in block.items()})
    except TypeError as e:  # a required key is missing
        raise ValidationError(f"incomplete '{label}' block: {e}") from e


def resolve_config(args) -> RunConfig:
    """Write the flags into the config blocks args.cmd reads, then validate every key once."""
    cfg = _load_json(args.config, args.cmd) if args.config else {}
    if "physical" in cfg and "reduced" in cfg:
        raise ValidationError("give exactly one of the 'physical' and 'reduced' blocks")
    blocks = {label: _block(cfg, label) for label in _READ_BY_ALL + _COMMANDS[args.cmd][2]}
    for dest, (label, key) in _FLAGS.items():
        if getattr(args, dest, None) is not None:
            blocks[label][key] = getattr(args, dest)
    if getattr(args, "grid", None) is not None:
        try:  # the text of a JSON list, so its values are counts like the file's
            ns = json.loads(f"[{args.grid}]")
        except (ValueError, RecursionError):
            ns = []
        if not ns:
            raise ValidationError(f"--grid must be a number or a comma list of numbers, "
                                  f"got {args.grid!r}")
        blocks["solver"]["grid"] = ns

    phys = None
    if "physical" in cfg:
        phys = _dataclass(PhysicalParams, "physical", blocks["physical"])
        params = reduce_params(phys)
    elif "reduced" in cfg:
        params = _dataclass(ReducedParams, "reduced", blocks["reduced"])
    else:
        params = ReferenceCase().params

    const = blocks["constants"]
    C3 = _real(const.get("C3", ReferenceCase().C3), "constants.C3")
    consts = SolutionConstants(
        C3=C3, C5=_real(const.get("C5", C5_MIN), "constants.C5"),
        # default K: the amplitude making the wall temperatures coincide at
        # tau = 0 (the reference tuple gives exactly -5/18432)
        K=(_real(const["K"], "constants.K") if "K" in const
           else temperature.k_for_equal_boundaries(params, C3)))

    settings = {}
    if "solver" in blocks:
        sol = blocks["solver"]
        grid = sol.get("grid", 128)  # a count, or a list of counts for `convergence`
        grid = [_count(n, "solver.grid") for n in (grid if isinstance(grid, list) else [grid])]
        solver = {key: sol[key] for key in ("scheme", "bc_mode") if key in sol}
        if sol.get("dt") is not None:
            solver["dt"] = _real(sol["dt"], "solver.dt")
        if "tau_end" in sol:
            solver["t_end"] = _real(sol["tau_end"], "solver.tau_end")
        settings.update(grid=grid, solver=SolverConfig(**solver))

    out = blocks["output"].get("path")
    if out is not None and not isinstance(out, str):
        raise ValidationError("output.path must be a string")

    if "profile" in blocks:
        taus = blocks["profile"].get("tau", [0.0, 0.125, 1.0, 1e4])
        if not isinstance(taus, list):
            raise ValidationError(f"profile.tau must be a list of numbers, got {taus!r}")
        taus = [_real(t, f"profile.tau[{i}]") for i, t in enumerate(taus)]
        for i, t in enumerate(taus):
            # tau < 0 is before the expansion starts (and -C3 is singular);
            # inf and nan would print a NaN profile
            if not (math.isfinite(t) and t >= 0.0):
                raise ValidationError(f"profile.tau[{i}] must be finite and >= 0, got {t!r}")
        n_eta = _count(blocks["profile"].get("n_eta", 101), "profile.n_eta")
        if not 2 <= n_eta <= MAX_CELLS + 1:
            raise ValidationError(f"profile.n_eta must be >= 2 and <= {MAX_CELLS + 1}, "
                                  f"got {n_eta}")
        # at most the rows `solve` can write: N_SNAPSHOTS of the largest grid
        if len(taus) * n_eta > N_SNAPSHOTS * (MAX_CELLS + 1):
            raise ValidationError(f"profile.tau has {len(taus)} times of {n_eta} points, over the "
                                  f"{N_SNAPSHOTS * (MAX_CELLS + 1)} rows a profile may have")
        settings.update(profile_tau=taus, profile_n_eta=n_eta)

    return RunConfig(params=params, consts=consts, phys=phys, out=out, **settings)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
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
        _write_text(rc.out, json.dumps(report, indent=2) + "\n")
    print(f"\n{'all checks passed' if suite.passed else 'CHECK FAILURES present'}")
    return EXIT_OK if suite.passed else EXIT_FAIL


def cmd_solve(args) -> int:
    rc = resolve_config(args)
    if len(rc.grid) != 1:
        raise ValidationError(f"solve takes one solver.grid count, got {rc.grid}; "
                              "a list of counts is for convergence")
    if rc.solver.bc_mode == "paper":
        print("warning: 'paper' boundary mode feeds the published outer flux, "
              "which is inconsistent with the exact solution; expect an error "
              "plateau near 0.5 instead of convergence", file=sys.stderr)
    grid = Grid1D(n_cells=rc.grid[0], a=rc.params.a)
    result = solve_general(rc.params, rc.consts, grid, rc.solver)
    nodes = grid.nodes
    rows = []
    for tau_s, theta in result.snapshots:
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
    temperature.require_finite_start(eta, rc.params, rc.consts)
    rows = []
    header = ["tau", "eta", "theta"] + (["t", "r", "T"] if rc.phys is not None else [])
    for i, tau_s in enumerate(rc.profile_tau):
        try:
            cols = [temperature.theta_general(tau_s, eta, rc.params, rc.consts)]
            if rc.phys is not None:
                t_s, r_s = from_reduced(tau_s, eta, rc.phys)
                cols += [t_s, r_s, temperature.dimensional_T(t_s, r_s, rc.phys, rc.consts)]
        except OverflowError as e:
            raise ValidationError(f"profile.tau[{i}] = {tau_s!r} is too large: the closed "
                                  "form overflows the float range") from e
        # numpy does not raise on overflow: it gives inf, and nan after it
        bad = [name for name, col in zip(header[2:], cols) if not np.all(np.isfinite(col))]
        if bad:
            raise ValidationError(f"profile.tau[{i}] = {tau_s!r} gives a non-finite {bad[0]}: "
                                  "a closed form overflows the float range")
        rows.extend(zip(*np.broadcast_arrays(tau_s, eta, *cols)))
    _write_text(rc.out, _csv(rows, header))
    return EXIT_OK


def cmd_convergence(args) -> int:
    rc = resolve_config(args)
    results = convergence_study(rc.grid, rc.solver, rc.params, rc.consts)

    print(f"{'n_cells':>8} {'h':>12} {'error_inf':>14} {'order':>8}")
    rows = []
    for res in results:
        # None: the first level, or a pair with a zero error, has no order
        order = res.observed_order
        print(f"{res.grid.n_cells:>8} {res.grid.h:>12.6g} {res.error_inf:>14.6e} "
              f"{'-' if order is None else format(order, '.3f'):>8}")
        rows.append((res.grid.n_cells, res.grid.h, res.error_inf, order))
    if rc.out:
        _write_text(rc.out, _csv(rows, ["n_cells", "h", "error_inf", "observed_order"]))

    _, (lo, hi) = SCHEMES[rc.solver.scheme]
    if rc.solver.bc_mode == "paper":
        # the scheme's order is the centre of its band
        print(f"\nexpected failure: the published outer flux is inconsistent with the "
              f"exact solution, so the error plateaus (frozen regression floor "
              f"{PUBLISHED_FLUX_ERROR_FLOOR}) "
              f"instead of converging at order {round((lo + hi) / 2)}.")
        return EXIT_FAIL
    orders = [r.observed_order for r in results[1:]]
    ok = all(o is not None and lo <= o <= hi for o in orders)
    if not ok:
        print(f"\norder outside [{lo}, {hi}]")
    return EXIT_OK if ok else EXIT_FAIL


#: Each subcommand: its function, its help line and the config blocks it
#: reads besides _READ_BY_ALL; it has the solver flags when it reads 'solver'.
_READ_BY_ALL = ("physical", "reduced", "constants", "output")
_COMMANDS = {
    "verify": (cmd_verify, "run the residual/invariant/conservation suite", ()),
    "solve": (cmd_solve, "march the IBVP and emit snapshots vs exact", ("solver",)),
    "profile": (cmd_profile, "emit temperature tables (reduced and dimensional)", ("profile",)),
    "convergence": (cmd_convergence, "grid refinement study with observed orders", ("solver",)),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ringheat",
        description="Exact temperature fields in an expanding rotating liquid ring: "
                    "residual verification, IBVP solves, profiles, refinement studies.")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (func, help_line, labels) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.set_defaults(func=func)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--c5", type=float, help="free level constant C5 (default 5/3)")
        if "solver" in labels:
            sp.add_argument("--bc-mode", dest="bc_mode", metavar="|".join(BC_MODES),
                            help="boundary data: exact Neumann | published Neumann | exact Dirichlet")
            sp.add_argument("--grid", help="cell count N (N + 1 nodes), or a comma list "
                                           "of counts for convergence")
            sp.add_argument("--tau-end", dest="tau_end", type=float, help="final tau")
            sp.add_argument("--scheme", metavar="|".join(SCHEMES), help="time scheme")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as e:
        print(f"error: solver diverged: {e}", file=sys.stderr)
        return EXIT_FAIL

if __name__ == "__main__":
    sys.exit(main())
