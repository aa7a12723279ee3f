"""The benchmark workloads: the hk-lab steps each one runs, and the checks
on every output those steps write.

An operation is one (p, n) grid point of one step, or the single ``gm``
step.  Each step's outputs are read back into one record per operation.
An operation fails when its step exits non-zero, when any ``--out`` file
differs from the digest frozen in ``expected.json``, when its record
differs from the frozen record, or when one of the invariants below breaks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DENSE_P = 19
# Both colength steps run on hypersurfaces in four variables.
KRULL_DIM = 3
# Fermat quartic with the maximal ideal: the syzygy bundle of three linear
# forms has rank 2 and its slopes, weighted by rank, sum to the degree sum 3.
HN_RANK = 2
HN_DEGREE_SUM = 3


@dataclass(frozen=True)
class Step:
    argv: tuple
    kind: str  # names the output reader and invariants below
    cache: bool = False  # pass the workload's shared --cache directory

    @property
    def jobs(self) -> int:
        if "--jobs" in self.argv:
            return int(self.argv[self.argv.index("--jobs") + 1])
        return 1


def dense_relation(seed: int) -> str:
    """The dense-quartic4 relation x^4+y^4+z^4+w^4+x*y*z*w after x_i -> c_i*x_i.

    The c_i are drawn from the seed; seed 0 leaves the relation unscaled.
    The substitution is a graded automorphism that fixes m^[q], and it scales
    every matrix by nonzero diagonal factors on both sides.  So each seed
    gives different coefficients but the same outputs, matrix shapes and
    nonzero pattern, and every seed is checked against the frozen values.
    """
    if seed == 0:
        return "x^4+y^4+z^4+w^4+x*y*z*w"
    rng = random.Random(seed)
    c = [rng.randrange(1, DENSE_P) for _ in range(4)]
    quartics = "+".join(f"{pow(ci, 4, DENSE_P)}*{v}^4" for ci, v in zip(c, "xyzw"))
    return f"{quartics}+{math.prod(c) % DENSE_P}*x*y*z*w"


def steps(workload: str, seed: int) -> tuple:
    if workload == "curve-hn":
        return (Step(("hn", "--family", "fermat-quartic", "--primes", "37..47", "--n", "1"), "hn"),)
    if workload == "dense-quartic4":
        ring = f"hypersurface:s=4,p={DENSE_P},f={dense_relation(seed)}"
        return (Step(("colength", "--ring", ring, "--n", "1"), "colength"),)
    if workload == "diag-session":
        grid = ("--family", "chang-quartic", "--primes", "7,11,13,17", "--n", "1")
        return (
            Step(("colength", *grid, "--jobs", "2"), "colength", cache=True),
            Step(("convergence", *grid), "convergence", cache=True),
            Step(("sandwich", "--family", "diagonal:2,2,2", "--primes", "61,67", "--n", "1"), "sandwich"),
            Step(("gm", "--d", "4,4,4,4"), "gm"),
        )
    raise ValueError(f"unknown workload {workload!r}")


# BENCHMARK.json lists curve-hn and diag-session only, so that a comparison of
# two commits fits its time budget with 60 s runs; shorter runs spread too
# much on a shared two-core machine.  dense-quartic4 (the large dense core of
# a non-diagonal relation) stays runnable by hand and under ``--workload all``.
# It is the only workload that runs colength on a non-diagonal relation
# (chang-quartic is a Fermat quartic), so a change to the dense elimination or
# a dispatch on diagonal relations is not covered by BENCHMARK.json alone.
WORKLOADS = ("curve-hn", "dense-quartic4", "diag-session")


def digests(out: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _by_grid_point(rows) -> dict:
    return {f"p={row['p']},n={row['n']}": row for row in rows}


def read_ops(kind: str, out: Path) -> dict:
    """One record per operation, keyed by grid point."""
    if kind == "colength":
        return _by_grid_point(_load(out / "colength.json")["records"])
    if kind == "hn":
        return _by_grid_point(_load(out / "hn.json")["runs"])
    if kind == "convergence":
        with open(out / "convergence.csv", encoding="utf-8", newline="") as fh:
            return _by_grid_point(list(csv.DictReader(fh)))
    if kind == "sandwich":
        return _by_grid_point(_load(out / "sandwich.json")["reports"])
    if kind == "gm":
        return {"gm": _load(out / "gm.json")}
    raise ValueError(f"unknown step kind {kind!r}")


def invariant_errors(kind: str, record: dict, earlier: dict) -> list:
    """Invariants of one operation's record; ``earlier`` maps each kind that
    ran before this step to its records."""
    F = Fraction
    errors = []

    def need(ok, what):
        if not ok:
            errors.append(what)

    if kind == "colength":
        dims = record["dims"]
        need(sum(dims) == record["total"], "sum(dims) != total")
        need(dims[-1] == 0, "dims[-1] != 0")
        need(
            F(record["normalized"]) == F(record["total"], record["q"] ** KRULL_DIM),
            "normalized != total/q^dim",
        )
    elif kind == "hn":
        nu = [F(v) for v in record["hn"]["nu"]]
        r = record["hn"]["r"]
        need(sum(r) == HN_RANK, f"hn ranks sum to {sum(r)}")
        need(sum(a * b for a, b in zip(r, nu)) == HN_DEGREE_SUM, "sum r*nu != 3")
    elif kind == "convergence":
        key = f"p={record['p']},n={record['n']}"
        colength = earlier.get("colength", {}).get(key)
        need(
            colength is not None and F(record["normalized"]) == F(colength["normalized"]),
            "normalized differs from the colength step",
        )
        need(
            F(record["residual"]) == F(record["normalized"]) - F(record["reference"]),
            "residual != normalized - reference",
        )
    elif kind == "sandwich":
        lower, value, upper = (F(record[k]) for k in ("lower", "value", "upper"))
        need(lower <= value <= upper, "lower <= value <= upper fails")
        need(F(record["gap"]) == upper - lower, "gap != upper - lower")
    return errors
