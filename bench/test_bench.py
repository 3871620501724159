"""Checks of the benchmark that do not depend on wall time: repeatable counts,
the metric names and units of BENCHMARK.json, and failure without the program."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


# solve-fine is left out: one of its invocations takes seconds
@pytest.mark.parametrize("workload", ["verify-reference", "converge-general"])
def test_traced_counts_repeat_across_runs(workload):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for _ in range(2):
        p = _run(ROOT, workload, 5, 1)
        assert p.returncode == 0, p.stderr
        result = json.loads(p.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, p.stdout
        metrics = result["metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == units
        counts.append({n: m["value"] for n, m in metrics.items()
                       if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, "verify-reference", 0, 0)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
