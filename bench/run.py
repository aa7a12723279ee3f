"""hklab benchmark: end-to-end and per-layer metrics of the hk-lab CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload curve-hn --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all

Workloads are closed loops: one interpreter runs one step at a time.  A
run starts fresh interpreters that each run the whole workload once
(``bench/session.py``), for as long as the next one is expected to finish
within ``--seconds``, and at least ``MIN_RUNS`` times.  Before each of them
it times ``import hklab.cli`` in ``IMPORTS_PER_SESSION`` import-only
interpreters, so the set-up samples (``setup_s``, with the import time of
every session) spread over the whole run.  Every output of every step is
checked; see ``bench/workloads.py``.

With ``--trace 0`` the last line of stdout is one JSON object with every
``end_to_end`` metric of ``BENCHMARK.json``.  With ``--trace 1`` every other
interpreter wraps each hklab layer (``bench/tracer.py``), and the metrics
are the ``per_layer`` ones, medians over the traced interpreters, plus
``trace_overhead`` against the untraced ones.  The lines before it describe
the samples and the machine.  The exit code is 0 whenever a result was
printed; a checkout without ``src/hklab`` exits 2 without one.

The expected outputs in ``bench/expected.json`` were frozen with
``python3 bench/session.py --workload W --record``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

IMPORTS_PER_SESSION = 2  # import-only interpreters before each session
MIN_RUNS = 3
TIME_LIMIT_S = 170  # a run must end within 180 s


def _child(args: list, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "session.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"session {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def _machine() -> dict:
    commit = None
    if (Path(".git")).exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
    }


def _tail(values: list) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return f"n={n}, too few samples for a percentile with ten beyond it"
    k = n - 10  # k-th smallest sample has exactly ten above it
    return f"n={n}, p{100 * k / n:.0f}={sorted(values)[k - 1]:.4f}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    load_before = os.getloadavg()
    _child(["--import-only"], deadline)  # compiles bytecode, fills the page cache

    setup = []
    sessions = []
    elapsed = []
    loop_start = time.monotonic()
    while len(sessions) < MIN_RUNS or (
        time.monotonic() + statistics.median(elapsed) <= loop_start + seconds
        and time.monotonic() + 2 * max(elapsed) < deadline
    ):
        is_traced = trace and len(sessions) % 2 == 1
        t0 = time.monotonic()
        setup += [_child(["--import-only"], deadline)["setup_s"] for _ in range(IMPORTS_PER_SESSION)]
        args = ["--workload", name, "--seed", str(seed), "--trace", str(int(is_traced))]
        sessions.append({**_child(args, deadline), "traced": is_traced})
        elapsed.append(time.monotonic() - t0)

    plain = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    setup += [s["setup_s"] for s in sessions]
    digests = {json.dumps(s["digests"], sort_keys=True) for s in sessions}
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    reasons = sorted({r for s in sessions for r in s["reasons"]})
    if len(digests) > 1:
        reasons.append("outputs differ between interpreters of one run")

    walls = [s["wall_s"] for s in plain]
    print(f"workload {name} seed {seed}: {len(plain)} untraced and {len(traced)} traced interpreters")
    if trace:
        metrics = {
            metric: statistics.median(s["layers"][metric] for s in traced)
            for metric in units
            if metric != "trace_overhead"
        }
        metrics["trace_overhead"] = (
            statistics.median(s["wall_s"] for s in traced) / statistics.median(walls) - 1
        )
        print(f"  spans per traced interpreter: {traced[0]['spans']}")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            # the peak over the run: diag-session's RSS per interpreter is
            # bimodal, depending on whether its two colength threads overlap
            "peak_rss_mb": max(s["peak_rss_mb"] for s in plain),
        }
        print(f"  wall_s samples: {_tail(walls)}; " + " ".join(f"{w:.3f}" for w in walls))
        print(f"  setup_s samples: n={len(setup)}; " + " ".join(f"{s:.3f}" for s in setup))
    for metric, value in metrics.items():
        print(f"  {metric:<40} {value:>14.6g} {units[metric]}")
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} ({failed} of {attempted} operations)")
    for reason in reasons:
        print(f"  FAILED {reason}")
    meta = {
        **_machine(),
        **sessions[0]["environment"],
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    print("  meta " + json.dumps(meta, sort_keys=True))
    return {
        "correct": not reasons and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/hklab/cli.py").is_file():
        print("error: run from the root of an hklab checkout (src/hklab is missing)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), units)
    else:
        results = {
            name: run_workload(name, args.seed, seconds, bool(args.trace), units)
            for name in WORKLOADS
        }
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
