"""Smoke test of the benchmark itself, on tiny inputs.

    python3 bench/smoke.py

Runs every workload untraced and traced with ``--smoke`` and checks that
each exits 0 with a correct result whose metric names are exactly those
BENCHMARK.json declares. Then checks that the benchmark refuses to run,
printing no result, from a directory holding only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: [m["name"] for m in declared["end_to_end"]],
        1: [m["name"] for m in declared["per_layer"]],
    }
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            if sorted(result["metrics"]) != sorted(expected[trace]):
                problems.append(f"{label}: metrics {sorted(result['metrics'])} != {sorted(expected[trace])}")
            for name, metric in result["metrics"].items():
                if metric.get("unit") != units.get(name) or not isinstance(metric.get("value"), (int, float)):
                    problems.append(f"{label}: bad metric {name}: {metric}")
            print(f"ok {label}: {len(result['metrics'])} metrics, {result['attempted']} operations")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bare, "track", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        problems.append(f"without sources: exit {proc.returncode}, last line {last[0]!r}")
    else:
        print(f"ok without sources: exit {proc.returncode}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
