"""The benchmark's workloads pass their own output checks.

``bench/session.py`` runs a workload once, from the root of the checkout,
and compares every output with the values frozen in ``bench/expected.json``
(colength dims, sandwich values, slope profiles, file digests) and with its
invariants.  Running it here makes those frozen records part of every test
run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["curve-hn", "diag-session"])
def test_bench_session_outputs_match_frozen_records(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "session.py"), "--workload", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["reasons"]
    assert result["reasons"] == []
