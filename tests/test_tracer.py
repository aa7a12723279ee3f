"""The benchmark's tracer still sees every layer it measures.

``bench/tracer.py`` wraps hklab from outside the package, and its
``install`` refuses to finish while any hklab module still holds an
unwrapped original.  This test installs it in a fresh interpreter, as the
benchmark does, and runs a small ``hn`` step, so a refactor that breaks the
self-check or moves work away from a measured span fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
bench, src, out = sys.argv[1:]
sys.path[:0] = [bench, src]
from tracer import Tracer
tracer = Tracer()
tracer.install()
import hklab.cli
rc = hklab.cli.main(["hn", "--family", "fermat-quartic", "--primes", "7", "--n", "1", "--out", out])
print(json.dumps({"rc": rc, "calls": {k: v["calls"] for k, v in tracer.stats().items()}}))
"""

MEASURED = (
    "graded.monomial_basis",
    "graded.graded_map_matrix",
    "fp_linalg.rank_mod_p",
    "curves.curve_geometry",
)


def test_tracer_installs_and_records_every_measured_layer(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    calls = result["calls"]
    assert {name: calls.get(name, 0) > 0 for name in MEASURED} == dict.fromkeys(MEASURED, True)
    # one Jacobian smoothness check per (p, n) job
    assert calls["curves.curve_geometry"] == 1
