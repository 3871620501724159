"""Finite-difference marcher for the reduced temperature equation.

Space: conservative second-order fluxes D(tau, eta_face)*(theta_{j+1} -
theta_j)/h with face-centered diffusivity and ghost-node Neumann closure.
Time: one theta-method.  Each scheme is a row of `SCHEMES`: its implicit
weight w and the band its observed orders must fall in.  A step takes the
share w of the spatial operator at the new level and 1 - w at the old one,
with diffusivity, source and flux data frozen at tau_n + w*dt: w = 0.5 is
Crank-Nicolson (implicit midpoint, O(dt^2)), w = 1 is implicit Euler
(O(dt), so order 1 in a study that ties dt to h).  The diffusivity
is >= 1 on the whole domain, so the tridiagonal systems are strictly
diagonally dominant and plain Thomas elimination without pivoting is safe.
`thomas_solve` runs that elimination on Python floats, in the operation
order of the original indexed numpy loop, so its results are bit-identical
to that loop's.  It reads the bands through memoryviews instead of copying
them into lists and builds its result with `np.fromiter` over the back
substitution, so what remains of its cost is the sweep's float arithmetic.
`scipy.linalg.solve_banded` would be faster still, but it rounds
differently: it moves the error norms by ~5e-9 relative, past the 1e-12
agreement the recorded benchmark norms demand.
A march is bounded by `MAX_STEPS`, `MAX_NODE_STEPS` and `MAX_CELLS`.

`march` assembles its coefficients a block of steps at a time: one call of
the diffusivity at each face set and one of the source give every step's
values as (steps, n + 1) arrays (about `BLOCK_ELEMS` elements each), from
which the three bands, boundary rows included, are built at once.  Each
step then only builds its right-hand side, fetches its scalar wall data and
runs `thomas_solve`.  Every element is computed with the same operations as
a one-step-at-a-time loop, so the snapshots are bit-identical to it.

Half of the elimination does not depend on the right-hand side: each row's
pivot m and ratio cp come from that step's bands alone.  A march whose
steps past the first PIPELINE_BLOCK_STEPS make at least
`PIPELINE_NODE_STEPS` node updates (about its measured break-even) forks
one helper process for the march, at most one, which assembles each later
block of steps through the march's own block code, factors it in numpy
along the step axis and hands (m, cp) over through a two-slot ring in
shared memory; the marcher then runs only the right-hand side's sweep,
`thomas_solve(..., factors=...)`, and factors the first block itself while
the helper starts.  The factors are formed with the elimination's own
operations, so every snapshot and norm is bit-identical to a serial
march's.  A march on fewer than 2 CPUs or on more than `PIPELINE_MAX_CELLS`
cells marches alone, and so does one whose helper does not start.

Both processes the solver forks, this helper and a convergence study's
child, start through `_fork`: it ignores SIGINT in the child (an interrupt
is for the caller, which then kills and reaps the child) and moves the
child off the caller's CPU where Linux tells which that is.  A child that
cannot start (no 'fork', no process to spare), or that stops without
sending its work, leaves that work to its caller.

The marcher is a manufactured-solution check: it starts from a closed form
at tau = 0 and, with correct boundary data, must converge to it at its
scheme's order.  There is one solve path, `solve_general`, whose level is a
cell count on eta in [0, params.a]: it builds the coefficients from the
reduced parameters, takes the exact field, wall fluxes (exact Neumann data
exist for every member of the family) and wall values that go with the
constants, and picks the wall data once by boundary mode.  The 'paper' mode
deliberately feeds the originally published (inconsistent) reference-case
outer flux so the resulting error plateau can be measured; it runs at the
reference constants only and is never the default.

`convergence_study` marches its levels in two processes: the level with
the most cells in the calling process, the others in one child forked for
the call, so a study takes about as long as its finest level.  Each level
decides like any march whether a helper factors its systems ahead; the
child has left the caller's CPU, so on 2 CPUs it has one and marches its
levels alone, sharing it with the finest level's helper.  On more CPUs a
coarse level may start a helper of its own.  `multiprocessing` is
imported only by a study or a march that forks, so importing this module
loads numpy alone.  Results, observed orders and errors are those of
marching the levels one after another.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar

import numpy as np

from .core import (
    C5_MIN,
    ReducedParams,
    ReferenceCase,
    SolutionConstants,
    ValidationError,
)
from . import dualnum, temperature

__all__ = [
    "Grid1D",
    "SolverConfig",
    "SolveResult",
    "DivergenceError",
    "thomas_solve",
    "march",
    "solve_reference",
    "solve_general",
    "convergence_study",
    "PUBLISHED_FLUX_ERROR_FLOOR",
    "N_SNAPSHOTS",
    "MAX_STEPS",
    "MAX_NODE_STEPS",
    "MAX_CELLS",
    "BLOCK_ELEMS",
    "PIPELINE_NODE_STEPS",
    "SCHEMES",
    "BC_MODES",
]

#: Frozen regression level of the 'paper' boundary-mode error plateau.
#: Measured error_inf ~ 0.498 for N in {64, 128, 256, 512} at t_end = 0.25
#: (drift < 0.1% per refinement); the plateau never falls below this floor.
PUBLISHED_FLUX_ERROR_FLOOR = 0.49

#: Snapshots a march keeps, evenly spaced in steps from tau = 0 to t_end.
N_SNAPSHOTS = 5

#: Work budget of one march: `march` rejects a t_end / dt above this, or a
#: non-finite one, before it allocates anything, so a mistyped t_end or dt
#: is a ValidationError instead of a march that runs for hours.
MAX_STEPS = 1_000_000

#: Node-update budget of one march, steps * (n_cells + 1), checked with
#: MAX_STEPS: ~5 minutes at the ~0.28 us a serial node update takes at N = 1024.
MAX_NODE_STEPS = 1_000_000_000

#: Largest Grid1D, checked before any node array exists; it bounds the 5
#: snapshots a march keeps and the CSV rows `solve` writes from them.
MAX_CELLS = 65536

#: Each time scheme a SolverConfig accepts: (implicit weight w, the band of
#: observed orders `convergence` accepts with dt tied to h).
SCHEMES = {"cn": (0.5, (1.8, 2.2)), "euler": (1.0, (0.8, 1.2))}
#: Boundary modes a SolverConfig accepts.
BC_MODES = ("derived", "paper", "dirichlet")

#: Elements per coefficient array of one block of steps: `march` assembles
#: the bands of max(1, BLOCK_ELEMS // (n + 1)) steps at once, so each
#: (steps, n + 1) float array stays near 128 KB.
BLOCK_ELEMS = 16384


#: Node updates, steps past the helper's first block * (n_cells + 1), from
#: which `march` has a forked helper factor its systems ahead (see
#: `_FactorsAhead`).  Starting and stopping the helper costs the marcher
#: ~3 ms (fork 1.4 ms, kill and reap 1.3 ms, medians of 30 on a 2-CPU VM):
#: there a march of 115k such updates (256 cells to tau = 0.25) broke even,
#: 181k gained 3%.
PIPELINE_NODE_STEPS = 200_000

#: Steps the helper factors at a time, one slot of its two-slot ring: over
#: fewer steps numpy's per-call cost outgrows the factoring itself.
PIPELINE_BLOCK_STEPS = 64

#: Largest grid whose march factors ahead; its ring, 2 blocks of factors,
#: 16 bytes a node each, then takes at most 4.2 MB.
PIPELINE_MAX_CELLS = 2048


class DivergenceError(RuntimeError):
    """The march produced non-finite values; the message names the step."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform node grid eta_j = j*h, j = 0..n_cells, h = a/n_cells."""

    n_cells: int
    a: float = 1.0

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValidationError("n_cells must be >= 8")
        if self.n_cells > MAX_CELLS:
            raise ValidationError(f"n_cells must be <= {MAX_CELLS}, got {self.n_cells!r}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValidationError(f"a must be a finite number > 0, got {self.a!r}")

    @property
    def h(self) -> float:
        return self.a / self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.a, self.n_cells + 1)


@dataclass(frozen=True)
class SolverConfig:
    """March settings.

    scheme names the row of `SCHEMES` that gives the march its implicit
    weight and a study its order band.  dt = None means dt = dt_over_h * h,
    a fixed h/8, which keeps cn's temporal error subordinate (both schemes
    are unconditionally stable, so the choice is accuracy-driven; euler's
    O(dt) error then shows as order 1).  bc_mode: 'derived' = exact Neumann
    data from the closed form, 'paper' = originally published Neumann data
    (inconsistent at the outer wall), 'dirichlet' = exact boundary values.
    """

    dt: float | None = None
    dt_over_h: ClassVar[float] = 0.125
    t_end: float = 0.25
    scheme: str = "cn"        # a key of SCHEMES: "cn" | "euler"
    bc_mode: str = "derived"  # "derived" | "paper" | "dirichlet"

    def __post_init__(self):
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be a finite number > 0, got {self.dt!r}")
        if not math.isfinite(self.t_end):
            raise ValidationError(f"t_end must be a finite number, got {self.t_end!r}")
        if self.t_end < 0:
            raise ValidationError("t_end must be >= 0")
        if not isinstance(self.scheme, str) or self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {tuple(SCHEMES)}, got {self.scheme!r}")
        if self.bc_mode not in BC_MODES:
            raise ValidationError(f"bc_mode must be one of {BC_MODES}, got {self.bc_mode!r}")


@dataclass
class SolveResult:
    """Snapshots plus error norms against the exact field at t_end."""

    snapshots: list  # [(tau, theta-vector), ...]
    grid: Grid1D
    config: SolverConfig
    error_inf: float
    error_l2: float
    exact: Callable  # exact(tau, eta) the norms were measured against
    observed_order: float | None = None  # filled by convergence_study


def thomas_solve(lower, diag, upper, rhs, factors=None):
    """Tridiagonal elimination (no pivoting; assumes diagonal dominance).

    lower/upper have length n-1 for an n-row system, n >= 2.  The bands are
    read as float64 through memoryviews, without copying them (a float64
    array is not copied; another dtype or byte order is converted first), and
    the result is built from the back substitution with `np.fromiter`.  The
    sweep runs on the Python floats the memoryviews yield, which round
    exactly as float64 array elements do, so the result is bit-identical to
    an indexed numpy loop doing the same operations in the same order; keep
    that order (no reciprocals, no fusing) or every snapshot of every march
    moves in its last bits.

    factors = (m, cp) are the pivots of the n rows and the ratios
    upper[i] / m[i] of the first n-1, as the elimination forms them from the
    bands alone (`_factor` computes them ahead for many systems at once).
    With them, only the right-hand side's sweep is left, forward and back,
    and it reads lower and rhs alone; its operations are the elimination's,
    so the result is the same to the bit.  A zero pivot raises
    ZeroDivisionError either way, at the same row.
    """
    if factors is None:
        lo, b, c, d = (memoryview(np.asarray(v, dtype=float)) for v in (lower, diag, upper, rhs))
        cp = c[0] / b[0]
        dp = d[0] / b[0]
        cps, dps = [cp], [dp]
        # rows 1..n-2; zip stops at c[1:], so the last row (no upper entry) is
        # eliminated after the loop
        for li, bi, ci, di in zip(lo, b[1:], c[1:], d[1:]):
            m = bi - li * cp
            cp = ci / m
            dp = (di - li * dp) / m
            cps.append(cp)
            dps.append(dp)
        li = lo[-1]
        m = b[-1] - li * cp
        x = (d[-1] - li * dp) / m
    else:
        lo, d, ms, cps = (memoryview(np.asarray(v, dtype=float))
                          for v in (lower, rhs, *factors))
        dp = d[0] / ms[0]
        dps = [dp]
        for li, mi, di in zip(lo, ms[1:], d[1:]):
            dp = (di - li * dp) / mi
            dps.append(dp)
        x = dps.pop()  # the last row's is its solution
    xs = [x]
    for cp, dp in zip(reversed(cps), reversed(dps)):
        x = dp - cp * x
        xs.append(x)
    return np.fromiter(reversed(xs), float, len(xs))


#: Smallest sum of squared weighted errors `_result` takes as computed: below
#: it, terms that fell into the subnormals may have moved it by over an ulp.
_L2_SUM_MIN = sys.float_info.min * 2.0 ** 53


def _result(snapshots, grid, config, exact):
    """SolveResult of a march ending at snapshots[-1], with its norms at t_end."""
    ex = np.asarray(exact(config.t_end, grid.nodes), dtype=float)
    w = np.full(grid.n_cells + 1, grid.h)
    w[0] = w[-1] = 0.5 * grid.h  # composite trapezoid weights
    with np.errstate(over="ignore"):
        err = snapshots[-1][1] - ex
        err_inf = float(np.max(np.abs(err)))
        sq = float(np.sum(w * err * err))
    err_l2 = math.sqrt(sq)
    if 0.0 < err_inf < math.inf and not _L2_SUM_MIN <= sq < math.inf:
        # err * err overflowed (errors past ~1e154) or fell into the
        # subnormals, where its terms lose bits or vanish (errors below
        # ~1e-146); the norm scaled by the max error is in range
        s = err / err_inf
        err_l2 = err_inf * math.sqrt(np.sum(w * s * s))
    return SolveResult(snapshots, grid, config, err_inf, err_l2, exact)


def _steps(grid: Grid1D, config: SolverConfig) -> float:
    """t_end / dt of a march as a float; ValidationError when it is not
    finite or breaks MAX_STEPS or MAX_NODE_STEPS."""
    dt = config.dt if config.dt is not None else config.dt_over_h * grid.h
    steps = config.t_end / dt  # a float: inf when the ratio overflows
    if not (math.isfinite(steps) and steps <= MAX_STEPS):
        raise ValidationError(
            f"t_end / dt = {config.t_end!r} / {dt!r} = {steps:.6g} steps exceeds "
            f"the budget of {MAX_STEPS} steps; raise dt or lower t_end")
    if steps * (grid.n_cells + 1) > MAX_NODE_STEPS:
        raise ValidationError(
            f"t_end / dt = {steps:.6g} steps on {grid.n_cells + 1} nodes exceeds the budget "
            f"of {MAX_NODE_STEPS} node updates; coarsen the grid, raise dt or lower t_end")
    return steps


def march(grid: Grid1D, config: SolverConfig, diffusivity: Callable, source: Callable,
          bc_inner, bc_outer, exact: Callable) -> SolveResult:
    """Advance theta_tau = d/deta(D*theta_eta) + S from tau = 0 to t_end by
    the theta-method whose implicit weight `SCHEMES` gives config.scheme.

    diffusivity(tau, eta) and source(tau, eta) must broadcast over a tau
    column (steps, 1) and an eta row (n + 1,): march calls each once per
    block of max(1, BLOCK_ELEMS // (n + 1)) steps and broadcasts the result
    to (steps, n + 1), so a field constant in tau or eta may return a
    smaller shape.  The face diffusivities, the source and the three bands,
    boundary rows included, are assembled once per block.
    bc_inner/bc_outer are ("flux", g) prescribing d(theta)/d(eta) at the
    wall or ("value", v) prescribing theta itself; g and v take one float
    tau and are called once per step.  Neumann data enter through
    second-order ghost nodes; Dirichlet rows are identities at the new time
    level.  The march starts from exact(0.0, grid.nodes), broadcast to the
    nodes, and measures its error norms at t_end against exact(tau, eta).
    Deterministic: identical inputs give bit-identical snapshots.  A t_end / dt that is not finite or breaks MAX_STEPS or
    MAX_NODE_STEPS raises ValidationError; so does a closed form that
    overflows the float range on the way to t_end (the OverflowError of a
    scalar wall-data call or of `exact`), naming tau_end; `solve_general`
    rejects most such runs before they march, and this catch is the backstop
    for a field that overflows between the two ends.  A zero pivot, like a
    non-finite solution, raises DivergenceError.  A long march has a forked
    helper factor its systems ahead (see the module docstring); its results
    and errors are the serial march's, and the helper does not outlive it.
    """
    try:
        return _march(grid, config, diffusivity, source, bc_inner, bc_outer, exact)
    except OverflowError as e:
        raise _too_large(config) from e


def _too_large(config: SolverConfig) -> ValidationError:
    """The error of a closed form that overflows on the way to config.t_end."""
    return ValidationError(f"tau_end = {config.t_end!r} is too large: a closed form "
                           "overflows the float range on the way to it")


def _block(diffusivity, kinds, grid, dt, wt, k0, k1):
    """Coefficients of steps k0..k1-1 of a march, one row per step, frozen at
    tau_n + wt * dt: those taus, the diffusivities at the low and high
    faces, their sum w and the three bands, boundary rows included, for
    walls of kinds (inner, outer), each 'flux' or 'value'.  Each element is
    computed with the same operations as one step at a time would."""
    h, n = grid.h, grid.n_cells
    eta = grid.nodes
    r = wt * dt / (h * h)  # exact scalings, so cn's r is dt / (2 h^2) to the bit
    tau_c = np.arange(k0, k1) * dt + wt * dt
    rows = (tau_c.size, n + 1)
    col = tau_c[:, None]
    d_lo = np.broadcast_to(diffusivity(col, eta - 0.5 * h), rows)
    d_hi = np.broadcast_to(diffusivity(col, eta + 0.5 * h), rows)
    w = d_lo + d_hi
    diag = 1.0 + r * w
    lower = -r * d_lo[:, 1:]  # its last column is the outer row's
    upper = -r * d_hi[:, :n]  # its first column is the inner row's
    # a Neumann row's diagonal is the interior formula, its off-diagonal
    # takes both faces (ghost node); a Dirichlet row is an identity
    for kind, node, band, at in zip(kinds, (0, n), (upper, lower), (0, n - 1)):
        if kind == "flux":
            band[:, at] = -r * w[:, node]
        else:
            diag[:, node] = 1.0
            band[:, at] = 0.0
    return tau_c, d_lo, d_hi, w, lower, diag, upper


def _march(grid, config, diffusivity, source, bc_inner, bc_outer, exact):
    """`march` without its translation of OverflowError."""
    h = grid.h
    n = grid.n_cells
    steps = _steps(grid, config)
    eta = grid.nodes
    theta = np.array(np.broadcast_to(exact(0.0, eta), eta.shape), dtype=float)
    # no copies: each step's thomas_solve returns a new theta, and nothing writes into one
    snapshots = [(0.0, theta)]

    if config.t_end == 0.0:
        return _result(snapshots, grid, config, exact)

    nsteps = max(1, int(round(steps)))
    dt = config.t_end / nsteps  # the last step is t_end; k*dt + dt can be an ulp off
    snap_at = set(np.linspace(0, nsteps, N_SNAPSHOTS).round().astype(int))

    wt, _ = SCHEMES[config.scheme]  # the implicit weight
    rx = (1.0 - wt) * dt / (h * h)  # the explicit share: r for cn, 0 for euler
    assemble = partial(_block, diffusivity, (bc_inner[0], bc_outer[0]), grid, dt, wt)

    rhs = np.empty(n + 1)
    j = slice(1, n)
    jm = slice(0, n - 1)
    jp = slice(2, n + 1)
    block = max(1, BLOCK_ELEMS // (n + 1))

    ahead = _factors_ahead(nsteps, n, assemble)
    try:
        for k0 in range(0, nsteps, block):
            tau_c, d_lo, d_hi, w, lower, diag, upper = assemble(k0, min(k0 + block, nsteps))
            s_dt = dt * np.broadcast_to(source(tau_c[:, None], eta), d_lo.shape)
            # each wall: its (kind, data), node and neighbour, the diffusivities
            # of its face outside the domain and the coefficient of its
            # ghost-node flux term
            walls = ((bc_inner, 0, 1, d_lo, -2.0), (bc_outer, n, n - 1, d_hi, 2.0))

            for i, tau_ci in enumerate(tau_c.tolist()):
                k = k0 + i
                tau_new = k * dt + dt if k + 1 < nsteps else config.t_end
                rhs[j] = (theta[j]
                          + rx * (d_lo[i, j] * (theta[jm] - theta[j])
                                  + d_hi[i, j] * (theta[jp] - theta[j]))
                          + s_dt[i, j])

                for (kind, data), node, nb, d_face, coef in walls:
                    if kind == "flux":
                        g = float(data(tau_ci))
                        rhs[node] = (theta[node] + coef * dt * d_face[i, node] * g / h
                                     + s_dt[i, node] + rx * w[i, node] * (theta[nb] - theta[node]))
                    else:
                        rhs[node] = float(data(tau_new))

                factors = ahead.factors(k) if ahead is not None else None
                try:
                    theta = thomas_solve(lower[i], diag[i], upper[i], rhs, factors=factors)
                except ZeroDivisionError:
                    raise DivergenceError(
                        f"zero pivot at step {k + 1} of {nsteps} (tau = {tau_new:.6g})") from None
                if not np.isfinite(theta).all():
                    raise DivergenceError(
                        f"non-finite solution at step {k + 1} of {nsteps} (tau = {tau_new:.6g})")
                if (k + 1) in snap_at:
                    snapshots.append((tau_new, theta))
    finally:
        if ahead is not None:
            ahead.close()

    return _result(snapshots, grid, config, exact)


def _factors_ahead(nsteps: int, n_cells: int, assemble):
    """The `_FactorsAhead` of a march of nsteps steps on n_cells cells, or
    None when the march factors each step itself: when the steps past the
    helper's first block are fewer than PIPELINE_NODE_STEPS node updates,
    above PIPELINE_MAX_CELLS, with fewer than 2 CPUs to run on (a study's
    child on 2 CPUs has left one to its caller), or when `_fork` starts no
    helper."""
    factored = (nsteps - PIPELINE_BLOCK_STEPS) * (n_cells + 1)
    if factored <= 0 or factored < PIPELINE_NODE_STEPS or n_cells > PIPELINE_MAX_CELLS:
        return None
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        return None
    import mmap
    rows, block = n_cells + 1, PIPELINE_BLOCK_STEPS
    try:  # an anonymous shared mapping: the helper writes the pages the marcher reads
        ring = np.frombuffer(mmap.mmap(-1, 2 * block * (2 * rows - 1) * 8), dtype=float)
    except OSError:
        return None
    ring = ring.reshape(2, block, 2 * rows - 1)
    forked = _fork(_factor_blocks, ring, nsteps, assemble)
    return _FactorsAhead(ring, rows, nsteps, *forked) if forked else None


def _factor(lower, diag, upper, out):
    """Write the elimination factors of each step's system (a row of each
    band) into out's row for that step: its pivots m, then its ratios cp.

    The forward elimination of `thomas_solve` without its right-hand side,
    run along the step axis: for each row, one multiply, one subtract and
    one divide over all the steps, with the same IEEE operations as
    thomas_solve's loop, so the factors are the ones it forms.  A zero pivot
    leaves an inf or nan, and the sweep that divides by it raises."""
    lo, b, c = (np.ascontiguousarray(v.T) for v in (lower, diag, upper))
    m, cp = np.empty_like(b), np.empty_like(c)
    ms, cps = list(m), list(cp)
    ms[0][:] = b[0]
    ratio = np.divide(c[0], b[0], out=cps[0])
    # rows 1..n-2, as in thomas_solve; the last row has a pivot only
    for li, bi, ci, mi, cpi in zip(lo, b[1:], c[1:], ms[1:], cps[1:]):
        np.subtract(bi, np.multiply(li, ratio, out=mi), out=mi)
        ratio = np.divide(ci, mi, out=cpi)
    np.subtract(b[-1], np.multiply(lo[-1], ratio, out=ms[-1]), out=ms[-1])
    rows = b.shape[0]
    out[:, :rows] = m.T
    out[:, rows:] = cp.T


class _FactorsAhead:
    """Elimination factors of a march's steps, made a block ahead by one
    helper process forked for the march.

    The helper assembles each block of PIPELINE_BLOCK_STEPS steps with the
    march's own `_block`, factors it with `_factor` into one slot of a
    two-slot ring in shared memory and sends a message; it refills a slot
    only after the marcher has sent back that it is done with it.  The
    marcher sends that only while the helper has a block left to fill: a
    helper that has sent its last block may have exited, and a message to
    it would fail.  When the helper stops early (it ends, without a word,
    at the first exception, which the marcher's own assembly of the same
    steps then meets), the march goes on factoring each step itself.
    `close` stops it.
    """

    def __init__(self, ring, rows: int, nsteps: int, helper, conn):
        self.block, self.nsteps = ring.shape[1], nsteps
        self.m, self.cp = ring[..., :rows], ring[..., rows:]
        self.helper, self.conn = helper, conn

    def factors(self, k: int):
        """(m, cp) of step k, or None once the helper has stopped."""
        b, i = divmod(k, self.block)
        if b == 0:  # the marcher factors the first block while the helper starts
            return None
        if i == 0 and not self.conn.closed:
            try:
                if b >= 2 and (b + 1) * self.block < self.nsteps:
                    self.conn.send_bytes(b"")  # block b - 1's slot is free for block b + 1
                self.conn.recv_bytes()  # block b is in its slot
            except (EOFError, OSError):
                self.conn.close()
        if self.conn.closed:
            return None
        return self.m[b % 2, i], self.cp[b % 2, i]

    def close(self):
        _stop(self.helper, self.conn)


def _factor_blocks(conn, ring, nsteps, assemble):
    # the helper's whole work; what the assembly warns of the marcher reports
    np.seterr(all="ignore")
    warnings.simplefilter("ignore")
    block = ring.shape[1]
    try:
        for b, k0 in enumerate(range(block, nsteps, block), start=1):
            if b >= 3:
                conn.recv_bytes()  # the marcher is done with block b - 2
            k1 = min(k0 + block, nsteps)
            *_, lower, diag, upper = assemble(k0, k1)
            _factor(lower, diag, upper, ring[b % 2, :k1 - k0])
            conn.send_bytes(b"")
    except Exception:
        # closing the pipe is the report: the marcher factors the rest itself
        # and meets this failure, if it is the assembly's, as a serial march would
        return


def _leave_cpu_of(pid: int):
    """Run this process on the CPUs it may use but the one process pid last
    ran on, where Linux tells which that is.  Left to itself, the scheduler
    often wakes a helper, or a study's child, on its marcher's CPU, where
    it preempts the marcher while another CPU idles."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])  # field 39, processor
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (OSError, AttributeError, ValueError, IndexError):
        pass  # no /proc or no affinity calls: the scheduler places the process


def _fork(target, *args):
    """Start target(conn, *args) in a child process forked from this one,
    conn being the child's end of a duplex pipe: (the process, this
    process's end), or None when there is no 'fork' start method or no
    process can start.  The child ignores SIGINT, as an interrupt is for its
    caller, which then stops it with `_stop`, and runs on the CPUs it may use
    but the caller's.  What a child that cannot start, or that stops without
    sending, was to do is left to its caller."""
    import multiprocessing  # here, so importing the solver loads numpy only
    try:
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        process = ctx.Process(target=_forked, args=(ours, target, theirs, *args))
        process.start()
    except (ValueError, OSError):  # no 'fork' on this platform, or no process to start
        return None
    theirs.close()
    return process, ours


def _forked(ours, target, conn, *args):
    # the start of every `_fork` child; it closes the caller's end, so that
    # it sees the caller close its own
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ours.close()
    _leave_cpu_of(os.getppid())
    target(conn, *args)


def _stop(process, conn):
    """Kill and reap a `_fork` child, and close the caller's end of its pipe."""
    process.kill()
    process.join()
    conn.close()


def _level(params: ReducedParams, consts: SolutionConstants, n_cells: int,
           config: SolverConfig):
    """One `solve_general` level: its Grid1D(n_cells, a=params.a) and
    `march`'s arguments after grid and config.  Raises what solve_general
    rejects before it marches, in the same order: the grid's size and the
    step budget before any node exists, last a t_end at which a wall's data
    overflow."""
    grid = Grid1D(n_cells, a=params.a)
    _steps(grid, config)
    A, B, eps = params.A, params.B, params.eps

    def dif(tau, eta):
        return (B / A) * (8.0 * tau + eta + 1.0)

    def src(tau, eta):
        return 16.0 * (1.0 + eps ** 2) / (A * (8.0 * tau + eta + 1.0) ** 2)

    # exact is a partial, not a lambda, so a SolveResult pickles
    reference = ReferenceCase().matches(params, consts)
    if reference:
        exact = partial(temperature.theta_reference, C5=consts.C5)
        fluxes = [partial(temperature.reference_flux, eta=w) for w in (0.0, 1.0)]
        values = [partial(exact, eta=w) for w in (0.0, 1.0)]
    else:
        exact = partial(temperature.theta_general, params=params, consts=consts)
        temperature.require_finite_start(grid.nodes, params, consts)
        fluxes = [lambda tau, w=w: dualnum.d1(partial(exact, tau), w) for w in (0.0, params.a)]
        traces = temperature.BoundaryTraces(params, consts)
        values = [traces.theta2, traces.theta1]
    if config.bc_mode == "derived":
        bc_in, bc_out = (("flux", g) for g in fluxes)
    elif config.bc_mode == "dirichlet":
        bc_in, bc_out = (("value", v) for v in values)
    elif reference:
        bc_in = ("flux", temperature.published_flux_inner)
        bc_out = ("flux", temperature.published_flux_outer)
    else:
        raise ValidationError("bc_mode 'paper' feeds the published reference-case fluxes; "
                              "other constants take bc_mode 'derived' or 'dirichlet'")
    # march meets an overflow only on its way to t_end; two scalar calls of
    # the walls' data at t_end show it at once
    try:
        with np.errstate(all="ignore"):
            if not np.isfinite([bc[1](config.t_end) for bc in (bc_in, bc_out)]).all():
                raise OverflowError("a wall's data at t_end are not finite")
    except OverflowError as e:
        raise _too_large(config) from e
    return grid, (dif, src, bc_in, bc_out, exact)


def solve_general(params: ReducedParams, consts: SolutionConstants,
                  n_cells: int, config: SolverConfig) -> SolveResult:
    """March A*theta_tau = B*d/deta((8*tau+eta+1)*theta_eta) + 16*(1+eps^2)/(8*tau+eta+1)^2.

    A run has n_cells cells on eta in [0, params.a], starts from its exact
    field at tau = 0 and is measured against it: `theta_reference` when
    `ReferenceCase().matches(params, consts)`, with the walls'
    `reference_flux` and `theta_reference` values; otherwise
    `theta_general` (ValidationError naming K and C3 where it overflows at
    tau = 0), its `dualnum.d1` eta-derivative and the `BoundaryTraces` at
    eta = 0 and a.  bc_mode 'derived' feeds the flux, 'dirichlet' the
    values, 'paper' the published reference-case fluxes (error plateau near
    0.5; other constants raise).
    """
    grid, args = _level(params, consts, n_cells, config)
    return march(grid, config, *args)


def solve_reference(n_cells: int, config: SolverConfig, C5: float = C5_MIN) -> SolveResult:
    """`solve_general` of n_cells cells at the reference case with level C5."""
    case = ReferenceCase(C5=C5)
    return solve_general(case.params, case.consts, n_cells, config)


def _march_levels(prepared, config) -> list:
    """`march` of each (grid, march arguments) level in order, up to the first
    that raises: its SolveResults, then that exception if one was raised."""
    outcomes = []
    for grid, args in prepared:
        try:
            outcomes.append(march(grid, config, *args))
        except Exception as e:
            outcomes.append(e)
            break
    return outcomes


def _send_levels(conn, prepared, config):
    # the study's child's whole work
    conn.send(_march_levels(prepared, config))


def _march_forked(prepared, config) -> list:
    """`_march_levels` of the prepared levels, the one with the most cells
    marched in this process and the others in one `_fork` child, or here
    when no child starts or it stops without sending them.  The outcomes
    come in level order; past a failure the list may lack levels.  The
    child does not outlive the call."""
    fine = max(range(len(prepared)), key=lambda i: prepared[i][0].n_cells)
    coarse = prepared[:fine] + prepared[fine + 1:]
    child = _fork(_send_levels, coarse, config)
    try:
        here = _march_levels([prepared[fine]], config)
        there = child[1].recv() if child else _march_levels(coarse, config)
    except EOFError:  # the child stopped without sending its levels
        there = _march_levels(coarse, config)
    finally:
        if child:
            _stop(*child)
    # a list cut short ends in its exception, which comes before the rest
    return there[:fine] + here + there[fine:]


def convergence_study(levels, config: SolverConfig,
                      params: ReducedParams, consts: SolutionConstants):
    """Refinement study of `solve_general` with dt tied to h (dt = dt_over_h * h).

    Each level is a cell count on eta in [0, params.a].  Returns one
    SolveResult per level, in the given order, with observed_order filled
    from consecutive pairs (log error ratio over log h ratio); a pair with a
    zero error leaves the finer level's order None.  Fewer than 2 levels
    raise ValidationError, as there is no pair to observe an order from; so
    does a config with dt set, since a fixed dt would not shrink with h; so
    does t_end = 0: every level would return its exact field at tau = 0,
    whose error is 0, and leave no order to observe.  So does a repeated
    level: two equal grids have no h ratio to divide by.

    The levels are independent: the one with the most cells marches in this
    process, the others one after another in one child forked for the call
    (`_fork`), each with a helper that factors ahead where `march` would
    start one on the CPUs its process may use.  Where no child starts, or it
    stops without sending its levels, they march here after the finest
    level.  The results are bit-identical either way, and so are the
    errors: the checks a solve makes before it marches run first for every
    level in the given order, and of the exceptions the marches raise the
    caller gets the first failing level's, as from a one-level-at-a-time
    loop.
    """
    if len(levels) < 2:
        raise ValidationError("convergence needs at least 2 grid levels, e.g. --grid 64,128,256")
    if config.dt is not None:
        raise ValidationError(f"dt must not be set for a convergence study, got "
                              f"{config.dt!r}: each level's dt is dt_over_h * h")
    if config.t_end == 0.0:
        raise ValidationError("t_end must be > 0 for a convergence study: at t_end = 0 "
                              "every level returns its initial data, with no error to "
                              "compare")
    if len(set(levels)) < len(levels):
        raise ValidationError(f"levels must be distinct, got {list(levels)}: two equal "
                              "grids have no h ratio to observe an order from")
    prepared = [_level(params, consts, int(n), config) for n in levels]

    results: list[SolveResult] = []
    for res in _march_forked(prepared, config):
        if isinstance(res, Exception):
            raise res
        # a zero error on either side leaves no ratio to take the log of
        if results and results[-1].error_inf > 0.0 and res.error_inf > 0.0:
            prev = results[-1]
            res.observed_order = float(
                np.log(prev.error_inf / res.error_inf)
                / np.log(prev.grid.h / res.grid.h))
        results.append(res)
    return results
