"""The benchmark's own smoke test, run as part of the suite.

bench/tracer.py and the benchmark's step clock wrap radloc functions at
the names their callers look up (radloc.estimator.predict, correct,
project_to_cone, surface_normal, solve, SourceEstimator.ingest, ...).
Renaming or inlining one of them breaks the benchmark; running
bench/smoke.py here makes that a test failure. It takes about 20 s.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SMOKE = ROOT / "bench" / "smoke.py"


@pytest.mark.skipif(not SMOKE.is_file(), reason="bench/ is absent")
def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(SMOKE)], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
