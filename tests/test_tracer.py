"""The benchmark's tracer still sees every layer it measures.

``bench/tracer.py`` wraps hklab from outside the package, and its
``install`` refuses to finish while any hklab module still holds an
unwrapped original.  These tests install it in a fresh interpreter, as the
benchmark does, and run small steps, so a refactor that breaks the
self-check or moves work away from a measured span fails here.  The spans
also show which colength path ran.
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


DISPATCH_SCRIPT = """
import json, sys
bench, src, out = sys.argv[1:4]
sys.path[:0] = [bench, src]
from tracer import Tracer
tracer = Tracer()
tracer.install()
import hklab.cli
counts = []
for extra in json.loads(sys.argv[4]):
    rc = hklab.cli.main(["colength", "--primes", "7", "--n", "1", "--out", out, *extra])
    assert rc == 0, extra
    names = [span[0] for span in tracer.spans]
    counts.append([names.count("diagonal.han_monsky_colength"), names.count("colength.colength")])
print(json.dumps(counts))
"""


def test_han_monsky_span_fires_only_on_diagonal_maximal_ideal(tmp_path):
    runs = [
        ["--family", "chang-quartic"],
        ["--ring", "hypersurface:s=4,p=7,f=x^4+y^4+z^4+w^4+x*y*z*w"],
        ["--family", "chang-quartic", "--ideal", "x,y,z,w^2"],
        ["--ring", "hypersurface:s=4,p=7,f=x^4+y^4+z^4"],
    ]
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            DISPATCH_SCRIPT,
            str(ROOT / "bench"),
            str(ROOT / "src"),
            str(tmp_path),
            json.dumps(runs),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # [han_monsky_colength spans, generic colength spans] so far, per run
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts == [[1, 0], [1, 1], [1, 2], [1, 3]]
