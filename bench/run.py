"""ringheat benchmark: end-to-end and per-layer metrics of three CLI workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The
untraced run (--trace 0) times warm in-process `ringheat.cli.main` calls
for S seconds under a machine-speed probe (probe.py) and reports the
median of wall time over reference-loop time as wall_ref; fresh
interpreters give setup_s (import and config resolution) and peak_rss_mb
(one whole invocation).  The traced run (--trace 1) alternates traced and
untraced invocations for S seconds and reports the per-layer metrics of
the traced ones, the untraced wall time and the tracing overhead.  Every
invocation's output is checked.  Metric names and units come from
BENCHMARK.json.  The last line of
standard output is the JSON result; the lines before it are the same
figures for a reader.  README.md describes the workloads and metrics.
"""

import os

# one thread: fixed before numpy is imported here or in a child interpreter
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads
from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh interpreters timed for setup_s
SETUP_REPS = 7
#: fresh interpreters run under -X importtime in the traced run
IMPORTTIME_REPS = 3
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


class Tally:
    """Checked invocations: attempted, failed, failure reasons and read values.

    An invocation also fails when its output differs from the first one's,
    since ringheat's output is documented to be bit-identical on reruns.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []
        self.values: dict = {}
        self._digest = None

    def add(self, outcome):
        self.attempted += 1
        reasons = list(outcome.reasons)
        if self._digest is None:
            self._digest = outcome.digest
        elif outcome.digest != self._digest:
            reasons.append("output differs from the first invocation's")
        self.fail(reasons)
        self.values.update(outcome.values)

    def fail(self, reasons):
        if reasons:
            self.failed += 1
            self.reasons.extend(reasons)


def child(mode, argv, *python_flags):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    p = subprocess.run([sys.executable, *python_flags, str(HERE / "child.py"), mode, *argv],
                       cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"fresh interpreter ({mode}) exited {p.returncode}:\n{p.stderr[-2000:]}")
    return p


def measure_setup(wl) -> list:
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        child("setup", wl.argv)
        times.append(time.perf_counter() - t0)
    return times


def measure_rss(wl, tally) -> float:
    wl.clear_output()
    rep = json.loads(child("run", wl.argv).stdout.splitlines()[-1])
    tally.add(wl.check(rep["rc"], rep["stdout"], rep["stderr"]))
    return rep["maxrss_kb"] / 1024.0


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")


def import_times(wl) -> dict:
    """Median cumulative import times of scipy.integrate and of ringheat (all it pulls in)."""
    scipy_integrate, ringheat = [], []
    for _ in range(IMPORTTIME_REPS):
        sci = rh = 0.0
        for line in child("setup", wl.argv, "-X", "importtime").stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m is None:
                continue
            cumulative_s, depth, name = int(m.group(1)) / 1e6, len(m.group(2)), m.group(3)
            if name == "scipy.integrate":
                sci = cumulative_s
            if depth == 0 and name.split(".")[0] == "ringheat":
                rh += cumulative_s
        scipy_integrate.append(sci)
        ringheat.append(rh)
    return {"setup.import_scipy_integrate_s": statistics.median(scipy_integrate),
            "setup.import_ringheat_s": statistics.median(ringheat)}


def import_cli():
    sys.path.insert(0, str(SRC))
    import ringheat.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"ringheat was imported from {cli.__file__}, not from {SRC}")
    return cli


def invoke(cli, wl, speed_probe=None):
    """One warm `ringheat` invocation: (wall seconds, checked outcome).

    With a speed probe, the probe's own time inside the invocation is
    taken out of the wall time.
    """
    wl.clear_output()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    if speed_probe is not None:
        speed_probe.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(wl.argv)
    except Exception:  # an uncaught error is a failed invocation, not a crash of the benchmark
        rc = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    if speed_probe is not None:
        wall -= speed_probe.stop()
    return wall, wl.check(rc, out.getvalue(), err.getvalue())


def timed_loop(cli, wl, seconds, tally, tracer=None):
    """Invoke the workload for `seconds`; return the (wall seconds, wall over
    reference-loop time) pairs keyed by traced or not, and the per-layer
    metrics of each traced invocation.

    With a tracer, invocations alternate traced and untraced, starting
    traced.  The probe samples only before and after a traced invocation,
    so that it does not run inside the spans.
    """
    probes = {False: SpeedProbe(), True: SpeedProbe(during=False)}
    samples = {False: [], True: []}
    layers, loops = [], []
    deadline = time.perf_counter() + seconds
    n = 0
    while (time.perf_counter() < deadline or not samples[False]
           or (tracer is not None and not samples[True])):
        traced = tracer is not None and n % 2 == 0
        n += 1
        probe = probes[traced]
        if traced:
            tracer.install()
        try:
            wall, outcome = invoke(cli, wl, probe)
        finally:
            if traced:
                tracer.uninstall()
        tally.add(outcome)
        samples[traced].append((wall, wall / probe.loop_time()))
        loops.extend(probe.loops)
        if traced:
            layer = spans.layer_metrics(tracer.take())
            layer["cli.output_bytes"] = outcome.output_bytes
            layers.append(layer)
    describe_samples("reference loop", loops, "s")
    return samples, layers


def untraced_run(wl, seconds, tally):
    rss = measure_rss(wl, tally)  # first: it fills the bytecode cache, if Python writes one
    setup = measure_setup(wl)
    cli = import_cli()
    tally.add(invoke(cli, wl)[1])  # warm-up, not timed
    samples, _ = timed_loop(cli, wl, seconds, tally)
    walls, ratios = zip(*samples[False])
    describe_samples("wall_s", walls, "s")
    describe_samples("wall_ref", ratios, "ref")
    describe_samples("setup_s", setup, "s")
    return {"wall_ref": statistics.median(ratios), "setup_s": statistics.median(setup),
            "peak_rss_mb": rss}


def traced_run(wl, seconds, tally, units):
    metrics = import_times(wl)
    cli = import_cli()
    tally.add(invoke(cli, wl)[1])  # warm-up, not timed
    samples, per_call = timed_loop(cli, wl, seconds, tally, spans.Tracer())
    for name in per_call[0]:
        values = [m[name] for m in per_call]
        if units[name] in ("count", "bytes"):
            if len(set(values)) > 1:
                tally.fail([f"count {name} differs between traced invocations: {values}"])
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["solver.error_inf"] = tally.values.get("error_inf", 0.0)
    metrics["verification.max_residual"] = tally.values.get("max_residual", 0.0)
    untraced_wall = statistics.median(w for w, _ in samples[False])
    # the ratios, not the plain walls, so that drift in machine speed cancels
    share = (statistics.median(r for _, r in samples[True])
             / statistics.median(r for _, r in samples[False]) - 1.0)
    metrics["cli.wall_s"] = untraced_wall
    metrics["trace.overhead_share"] = share
    metrics["trace.overhead_s"] = share * untraced_wall
    describe_samples("traced wall_s", [w for w, _ in samples[True]], "s")
    describe_samples("untraced wall_s", [w for w, _ in samples[False]], "s")
    return metrics


def describe_samples(label, samples, unit):
    """Print the median, quartiles, sample count and the highest percentile
    that has at least ten samples beyond it."""
    n = len(samples)
    line = f"{label}: median {statistics.median(samples):.6g} {unit}, n={n}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        line += f", q1 {q1:.6g} {unit}, q3 {q3:.6g} {unit}"
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p >= 1:
        tail = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
        line += f", p{p} {tail:.6g} {unit}"
    else:
        line += ", no percentile has 10 samples beyond it"
    print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ringheat" / "cli.py").is_file():
        print(f"error: no ringheat source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        wl = workloads.Workload(args.workload, args.seed, workdir)
        print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: {wl.describe()}")
        tally = Tally()
        if args.trace:
            metrics = traced_run(wl, args.seconds, tally, units)
        else:
            metrics = untraced_run(wl, args.seconds, tally)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                           f"measured and listed in BENCHMARK.json")
    print(f"failed_ratio: {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} invocations)")
    for reason in tally.reasons[:20]:
        print(f"  failure: {reason}")
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>16.8g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
