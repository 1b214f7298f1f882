"""Checks of the benchmark itself.

    python3 -m pytest bench/checks.py

Every count a traced run reports must repeat exactly across two traced runs
with the same seed, and the runs must print exactly the metrics that
BENCHMARK.json names.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def _counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_across_traced_runs(workload):
    first, second = _run(workload, 5, 1), _run(workload, 5, 1)
    assert first["correct"] and second["correct"]
    assert sorted(first["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert _counts(first) == _counts(second)
    assert _counts(first)["complexfn.calls"] > 0


def test_untraced_run_prints_the_end_to_end_metrics():
    result = _run("quad_integrals", 5, 0)
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
