"""One run of one workload in a fresh interpreter.

Run from the root of a checkout: puts ``src/`` on ``sys.path``, times
``import hklab.cli``, calls ``hklab.cli.main`` in-process once per step with
a fresh ``--out`` directory (and the workload's shared ``--cache``
directory where the step names one), then checks every output and prints
one JSON object as its last line.  With ``--trace 1`` every hklab layer is
wrapped first and the per-layer statistics come back too.  With
``--import-only`` it prints the import time and stops; with ``--record`` it
prints the digests and records to freeze in ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

RUNS_DIR = Path(".bench_runs")


def _environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    return {
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _cache_state(cache: Path) -> dict:
    if not cache.is_dir():
        return {}
    return {path.name: path.stat().st_mtime_ns for path in cache.iterdir()}


def _flat(record, path: str = "") -> dict:
    """A record's leaves keyed by dotted path, so a mismatch names its field."""
    if not isinstance(record, dict) or not record:
        return {path: record}
    flat = {}
    for key, value in record.items():
        flat.update(_flat(value, f"{path}.{key}" if path else key))
    return flat


def _check(steps: tuple, runs: list, expected: list) -> tuple:
    """Attempted and failed operations, and every reason one failed.

    The step-wide checks (exit code, output digests, cache writes) fail
    every operation of the step.  Each operation's record is compared with
    the frozen one and checked against the invariants whatever the digests
    say, so a changed output names the value that changed.
    """
    attempted = failed = 0
    reasons = []
    earlier = {}
    for index, (step, run) in enumerate(zip(steps, runs)):
        frozen = expected[index]
        where = f"step {index} ({step.argv[0]})"
        shared = []
        if run["rc"] != 0:
            shared.append(f"exit code {run['rc']}")
        for name in sorted(set(run["digests"]) | set(frozen["files"])):
            if run["digests"].get(name) != frozen["files"].get(name):
                shared.append(f"{name}: sha256 differs from the frozen digest")
        if run.get("cache_changed"):
            shared.append("cache entries were rewritten: expected only hits")
        try:
            ops = workloads.read_ops(step.kind, run["out"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ops = {}
            shared.append(f"unreadable output: {exc!r}")
        earlier[step.kind] = ops
        reasons += [f"{where}: {why}" for why in shared]
        for key, want in frozen["ops"].items():
            attempted += 1
            own = []
            if key not in ops:
                own.append("no record")
            else:
                got, frozen_fields = _flat(ops[key]), _flat(want)
                own += [
                    f"{field} is {got.get(field)!r}, frozen {frozen_fields.get(field)!r}"
                    for field in sorted(set(got) | set(frozen_fields))
                    if got.get(field) != frozen_fields.get(field)
                ]
                try:
                    own += workloads.invariant_errors(step.kind, ops[key], earlier)
                except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                    own.append(f"invariants not checkable: {exc!r}")
            reasons += [f"{where} {key}: {why}" for why in own]
            failed += bool(shared or own)
    return attempted, failed, reasons


def _layer_metrics(tracer, names: list, runs: list, steps: tuple, commands: tuple) -> dict:
    stats = tracer.stats()
    step_spans = [
        span
        for span in tracer.spans
        if span[0] == "cli.main" and span[4] == tracer.main_thread and span[3] is None
    ]
    worker = sum(tracer.worker_time(span) for span, st in zip(step_spans, steps) if st.jobs > 1)
    capacity = sum(
        st.jobs * (span[2] - span[1]) for span, st in zip(step_spans, steps) if st.jobs > 1
    )
    gets = stats["store.get"]
    special = {
        "colength.pieces": stats["colength.colength"]["sum"]["pieces"],
        "curves.twists": stats["curves.cohomology_profile"]["sum"]["twists"],
        "store.hit_ratio": gets["sum"]["hits"] / gets["calls"] if gets["calls"] else 0.0,
        "cli.self_s": sum(st["self_s"] for name, st in stats.items() if name.startswith("cli.")),
        "cli.out_bytes": sum(run["out_bytes"] for run in runs),
        # 0 when no step runs more than one job
        "cli.parallel_efficiency": worker / capacity if capacity else 0.0,
    }
    command_spans = {f"cli.{command}" for command in commands}
    values = {}
    for metric in names:
        if metric in special:
            values[metric] = special[metric]
            continue
        span, _, stat = metric.rpartition(".")
        if span not in tracer.names and span not in command_spans:
            raise ValueError(f"per-layer metric {metric} names no traced function")
        st = stats[span]
        if stat in ("calls", "s", "self_s"):
            values[metric] = st[stat]
        elif stat.startswith("max_"):
            values[metric] = st["max"][stat[4:]]
        else:
            values[metric] = st["sum"][stat]
    return values


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(Path("src").resolve()))
    t0 = time.perf_counter()
    import hklab.cli

    setup_s = time.perf_counter() - t0
    if args.import_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    steps = workloads.steps(args.workload, args.seed)
    RUNS_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="session-", dir=RUNS_DIR))
    try:
        cache = tmp / "cache"
        runs = []
        first = time.perf_counter()
        for index, step in enumerate(steps):
            out = tmp / f"out{index}"
            argv = [*step.argv, "--out", str(out)]
            if step.cache:
                argv += ["--cache", str(cache)]
            # the convergence step must be served from the cache alone
            before = _cache_state(cache)
            # hklab.cli.main is looked up each call so a traced run goes
            # through the wrapper
            try:
                rc = hklab.cli.main(argv)
            except Exception as exc:  # the step failed; its operations count as failed
                rc = repr(exc)
            runs.append(
                {
                    "rc": rc,
                    "out": out,
                    "cache_changed": step.kind == "convergence" and _cache_state(cache) != before,
                }
            )
        wall_s = time.perf_counter() - first
        for run in runs:
            out = run["out"]
            run["digests"] = workloads.digests(out) if out.is_dir() else {}
            run["out_bytes"] = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0

        if args.record:
            record = [
                {"files": run["digests"], "ops": workloads.read_ops(step.kind, run["out"])}
                for step, run in zip(steps, runs)
            ]
            print(json.dumps(record, sort_keys=True))
            return 0

        expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
        attempted, failed, reasons = _check(steps, runs, expected[args.workload])
        result = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": attempted,
            "failed": failed,
            "reasons": reasons,
            "digests": [run["digests"] for run in runs],
            "environment": _environment(),
        }
        if tracer is not None:
            spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
            names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace_overhead"]
            result["layers"] = _layer_metrics(tracer, names, runs, steps, hklab.cli.COMMANDS)
            result["spans"] = len(tracer.spans)
            tracer.write(RUNS_DIR / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
