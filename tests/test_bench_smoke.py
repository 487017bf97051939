"""One timed pass of a benchmark worker, as its runner starts it, for the
exhaustive sweeps and for both workloads that run the sampled ones: the
worker must exit 0 and every request must pass its gate (exact hits and
violation counts, witnesses replayed), so a report the benchmark cannot
read fails here rather than in a benchmark run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["exhaustive-small", "oval-probe", "sample-q13"])
def test_a_pass_exits_0_with_no_gate_error(tmp_path, workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--passes", "1", "--mode", "timed", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)["passes"][0]
    assert records and all(r["errors"] == [] for r in records), proc.stderr
    assert "gate:" not in proc.stderr
