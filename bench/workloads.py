"""The benchmark's three workloads: their CLI arguments and their output checks.

Each workload is one `ringheat` subcommand with fixed arguments.  Only
`converge-general` uses the seed, to draw its general-family parameters.
Every invocation's output is checked; a check that fails names its reason.
See README.md for why each workload is here and which layers it stresses.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

NAMES = ("verify-reference", "solve-fine", "converge-general")

#: Values printed by this revision of ringheat, which later revisions must
#: reproduce to REL_TOL.  solve-fine: the error norms at tau = 0.25.
#: verify-reference: the closed-form flux values of the inconsistency report
#: (the report's other numbers are roundoff-level and are not compared).
RECORDED = {
    "solve-fine": {"error_inf": 4.6421786303874057e-07, "error_l2": 4.5338257746874081e-07},
    "verify-reference": {"tau0_published_outer": 0.20833333333333334,
                         "tau0_derived_outer": -0.19646573528573724,
                         "tau0_outer_gap": 0.40479906861907056},
}
REL_TOL = 1e-12
ORDER_BAND = (1.8, 2.2)

#: converge-general draws (A, B, eps, C3, C5) uniformly from these ranges;
#: a = 1 is fixed, so every seed marches the same 1920 steps.
GENERAL_RANGES = {"A": (0.5, 1.5), "B": (3.0, 8.0), "eps": (0.0, 1.0),
                  "C3": (0.1, 0.3), "C5": (1.0, 3.0)}

SOLVE_NODES = 1025
SOLVE_SNAPSHOTS = 5


@dataclass
class Outcome:
    """One checked invocation: the failure reasons (empty when it passed),
    values read from its output, and a digest of everything it produced."""

    reasons: list
    values: dict
    digest: str
    output_bytes: int


class Workload:
    """Builds the argv of one workload and checks the output of each invocation."""

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.config = None
        if name == "verify-reference":
            self.out = workdir / "verify.json"
            self.argv = ["verify", "--out", str(self.out)]
        elif name == "solve-fine":
            self.out = workdir / "solve.csv"
            self.argv = ["solve", "--grid", "1024", "--tau-end", "0.25",
                         "--bc-mode", "derived", "--out", str(self.out)]
        else:
            self.out = None
            rng = random.Random(seed)
            draw = {k: rng.uniform(lo, hi) for k, (lo, hi) in GENERAL_RANGES.items()}
            self.config = {
                "reduced": {"A": draw["A"], "B": draw["B"], "eps": draw["eps"], "a": 1.0},
                "constants": {"C3": draw["C3"], "C5": draw["C5"]},
            }
            path = workdir / "converge.json"
            path.write_text(json.dumps(self.config), encoding="utf-8")
            self.argv = ["convergence", "--grid", "64,128,256,512",
                         "--bc-mode", "dirichlet", "--config", str(path)]

    def describe(self) -> str:
        text = "ringheat " + " ".join(self.argv)
        if self.config is not None:
            text += "\n  config: " + json.dumps(self.config)
        return text

    def clear_output(self):
        """Remove the previous invocation's output file, so a stale file cannot pass."""
        if self.out is not None and self.out.exists():
            self.out.unlink()

    def check(self, rc: int, stdout: str, stderr: str) -> Outcome:
        reasons: list = []
        values: dict = {}
        data = b""
        if self.out is not None and self.out.exists():
            data = self.out.read_bytes()
        if rc != 0:
            reasons.append(f"exit code {rc}, expected 0: {stderr.strip()[-300:]}")
        else:
            try:
                getattr(self, "_check_" + self.argv[0])(stdout, data, reasons, values)
            except (ValueError, KeyError, IndexError, TypeError) as e:
                reasons.append(f"unreadable output: {e!r}")
        text = (stdout + stderr).encode("utf-8")
        digest = hashlib.sha256(text + b"\0" + data).hexdigest()
        return Outcome(reasons, values, digest, len(text) + len(data))

    def _check_verify(self, stdout, data, reasons, values):
        report = json.loads(data.decode("utf-8"))
        if report["all_passed"] is not True:
            reasons.append("verify report: all_passed is not true")
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        if failed:
            reasons.append(f"verify report: failed checks {failed}")
        _compare(report["inconsistency"], RECORDED["verify-reference"], reasons)
        values["max_residual"] = max(c["value"] for c in report["checks"]
                                     if c["name"].startswith("pde_"))

    def _check_solve(self, stdout, data, reasons, values):
        m = re.search(r"error_inf=(\S+) error_l2=(\S+)", stdout)
        if m is None:
            reasons.append("solve printed no error norms")
            return
        printed = {"error_inf": float(m.group(1)), "error_l2": float(m.group(2))}
        rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
        if len(rows) != SOLVE_NODES * SOLVE_SNAPSHOTS:
            reasons.append(f"solve CSV has {len(rows)} rows, expected "
                           f"{SOLVE_NODES * SOLVE_SNAPSHOTS}")
            return
        last_tau = max(float(r["tau"]) for r in rows)
        csv_inf = max(float(r["abs_err"]) for r in rows if float(r["tau"]) == last_tau)
        if csv_inf != printed["error_inf"]:
            reasons.append(f"CSV max abs_err {csv_inf!r} at tau {last_tau} differs from "
                           f"printed error_inf {printed['error_inf']!r}")
        _compare(printed, RECORDED["solve-fine"], reasons)
        values["error_inf"] = printed["error_inf"]

    def _check_convergence(self, stdout, data, reasons, values):
        table = [line.split() for line in stdout.splitlines()
                 if re.match(r"\s*\d+\s+\S+\s+\S+\s+\S+\s*$", line)]
        if len(table) != 4:
            reasons.append(f"convergence printed {len(table)} table rows, expected 4")
            return
        orders = [float(row[3]) for row in table[1:]]
        lo, hi = ORDER_BAND
        if not all(lo <= o <= hi for o in orders):
            reasons.append(f"observed orders {orders} outside [{lo}, {hi}]")
        values["error_inf"] = float(table[-1][2])


def _compare(got: dict, recorded: dict, reasons: list):
    for key, want in recorded.items():
        have = float(got[key])
        if not math.isclose(have, want, rel_tol=REL_TOL, abs_tol=0.0):
            reasons.append(f"{key} = {have!r} differs from the recorded {want!r} "
                           f"by more than {REL_TOL} relative")
