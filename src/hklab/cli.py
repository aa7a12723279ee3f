"""Experiment front end: grids over (p, n), disk caching, CSV/JSON export.

Exit codes: 0 success, 2 unparseable input (flags, ring/ideal specs,
config file), 3 matrix-size guard tripped, 1 mathematical failure
(non-primary ideal, singular curve, short profile, ...).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from hklab.colength import (
    IdealSpec,
    SizeGuardError,
    parse_ideal_spec,
)
from hklab.curves import (
    cohomology_profile,
    estimate_hn_profile,
    vanishing_report,
)
from hklab.diagonal import (
    DiagonalSpec,
    diagonal_limits,
    diagonal_ring,
    g_value,
    sandwich_check,
)
from hklab.fp_linalg import is_prime
from hklab.graded import HypersurfaceRing, SpecParseError, parse_ring_spec
from hklab.limits import convergence_fit, hk_from_profile, reference_value
from hklab.store import ResultStore, cached_colength

# One row per flag: dest, value type, default, help.  Flags register with
# default None so a config file can tell "flag omitted" from "flag set to the
# default value"; _finalize fills the gaps.  Every flag except --config is
# also a config key.
_FLAGS = {
    "config": ("config", Path, None, "key=value file mirroring the flags"),
    "ring": ("ring", str, None, "explicit ring spec, e.g. fermat:s=3,d=4,p=7"),
    "ideal": ("ideal", str, "maximal", "'maximal' (default) or comma-joined generators"),
    "family": (
        "family",
        str,
        None,
        "fermat-quartic | chang-quartic | diagonal:d1,..,ds | buchweitz-chen",
    ),
    "primes": ("primes", str, None, "list '3,5,7', range '3..23', or '3..23%%8=1,7'"),
    "n": ("n_list", str, "1", "Frobenius exponents, e.g. '1,2' (default 1)"),
    "m-max": ("m_max", int, None, "profile twist cutoff, >= 0"),
    "out": ("out", Path, Path("."), "output directory (default .)"),
    "cache": ("cache", Path, None, "colength cache directory"),
    "jobs": ("jobs", int, 1, "parallel (p,n) jobs, >= 1 (default 1)"),
    "cap": ("cap", int, 5000, "matrix-size guard (default 5000)"),
    "d": ("d", str, None, "diagonal exponents, e.g. '4,4,4,4'"),
}

_GRID = ("config", "ring", "ideal", "family", "primes", "n", "out", "cap")

# Each subcommand registers exactly the flags its handler reads.
_COMMAND_FLAGS = {
    "colength": _GRID + ("jobs", "cache"),
    "profile": _GRID + ("m-max", "jobs"),
    "hn": _GRID + ("m-max", "jobs"),
    "limits": _GRID + ("m-max",),
    "sandwich": ("config", "family", "primes", "n", "jobs", "out"),
    "convergence": _GRID + ("jobs", "cache"),
    "gm": ("config", "d", "out"),
}

COMMANDS = tuple(_COMMAND_FLAGS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hk-lab",
        description="Frobenius colengths, syzygy cohomology, and limit multiplicities",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        sub = subs.add_parser(name)
        for flag in flags:
            dest, kind, _, text = _FLAGS[flag]
            sub.add_argument(f"--{flag}", dest=dest, type=kind, help=text)
    return parser


def load_config(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecParseError(f"cannot read config {path}: {exc}") from None
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecParseError(f"{path}:{lineno}: expected key=value")
        key = key.strip()
        if key not in _FLAGS or key == "config":
            raise SpecParseError(f"{path}:{lineno}: unknown key {key!r}")
        mapping[key] = value.strip()
    return mapping


def apply_config(args: argparse.Namespace, mapping: dict) -> None:
    """Config values fill in flags the command line left unset."""
    for key, raw in mapping.items():
        dest, kind, _, _ = _FLAGS[key]
        if not hasattr(args, dest):
            raise SpecParseError(f"config key not valid for this command: {dest}")
        if getattr(args, dest) is not None:
            continue
        try:
            setattr(args, dest, kind(raw))
        except ValueError:
            raise SpecParseError(f"config {dest}: expected integer, got {raw!r}") from None


def _finalize(args: argparse.Namespace) -> None:
    for dest, _, fallback, _ in _FLAGS.values():
        if hasattr(args, dest) and getattr(args, dest) is None and fallback is not None:
            setattr(args, dest, fallback)
    if getattr(args, "m_max", None) is not None and args.m_max < 0:
        raise SpecParseError(f"--m-max must be >= 0, got {args.m_max}")
    if getattr(args, "jobs", 1) < 1:
        raise SpecParseError(f"--jobs must be >= 1, got {args.jobs}")
    if getattr(args, "ring", None) and args.family:
        ring = parse_ring_spec(args.ring)
        family = family_ring(args.family, ring.field.p)
        if ring.canonical_string() != family.canonical_string():
            raise SpecParseError(
                f"--ring {args.ring} is not the {args.family} ring at p={ring.field.p}"
            )


def parse_primes(text: str) -> List[int]:
    text = text.strip()
    try:
        if ".." in text:
            span, _, residue = text.partition("%")
            lo_s, _, hi_s = span.partition("..")
            lo, hi = int(lo_s), int(hi_s)
            allowed = None
            mod = 0
            if residue:
                mod_s, sep, keep = residue.partition("=")
                if not sep:
                    raise ValueError("residue filter needs mod=r1,r2")
                mod = int(mod_s)
                allowed = {int(r) % mod for r in keep.split(",")}
            primes = [
                p
                for p in range(max(2, lo), hi + 1)
                if is_prime(p) and (allowed is None or p % mod in allowed)
            ]
        else:
            primes = []
            for tok in text.split(","):
                v = int(tok)
                if not is_prime(v):
                    raise ValueError(f"not prime: {v}")
                primes.append(v)
    except ValueError as exc:
        raise SpecParseError(f"bad --primes {text!r}: {exc}") from None
    if not primes:
        raise SpecParseError(f"bad --primes {text!r}: empty prime set")
    return primes


def parse_n_list(text: str) -> List[int]:
    try:
        ns = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise SpecParseError(f"bad --n {text!r}") from None
    if not ns or any(n < 1 for n in ns):
        raise SpecParseError(f"bad --n {text!r}: exponents must be >= 1")
    return ns


def parse_diagonal_family(text: str) -> DiagonalSpec:
    body = text.split(":", 1)[1]
    try:
        return DiagonalSpec(tuple(int(tok) for tok in body.split(",")))
    except ValueError as exc:
        raise SpecParseError(f"bad diagonal family {text!r}: {exc}") from None


def family_ring(family: str, p: int) -> HypersurfaceRing:
    if family == "fermat-quartic":
        return parse_ring_spec(f"fermat:s=3,d=4,p={p}")
    if family == "chang-quartic":
        return parse_ring_spec(f"fermat:s=4,d=4,p={p}")
    if family == "buchweitz-chen":
        return parse_ring_spec(f"hypersurface:s=3,p={p},f=x+y+z")
    if family.startswith("diagonal:"):
        return diagonal_ring(parse_diagonal_family(family), p)
    raise SpecParseError(f"unknown family {family!r}")


def resolve_ring(args: argparse.Namespace, p: int) -> HypersurfaceRing:
    if args.ring:
        ring = parse_ring_spec(args.ring)
        if ring.field.p != p:
            raise SpecParseError(
                f"--ring has characteristic {ring.field.p}, grid asked for {p}"
            )
        return ring
    if args.family:
        return family_ring(args.family, p)
    raise SpecParseError("need --ring or --family")


def grid_pairs(args: argparse.Namespace) -> List[Tuple[int, int]]:
    ring = getattr(args, "ring", None)  # sandwich has no --ring
    if args.primes:
        primes = parse_primes(args.primes)
    elif ring:
        primes = [parse_ring_spec(ring).field.p]
    else:
        raise SpecParseError("need --primes (or an explicit --ring)")
    ns = parse_n_list(args.n_list)
    return [(p, n) for p in primes for n in ns]


def run_grid(pairs: Sequence, worker, jobs: int) -> list:
    if jobs <= 1:
        return [worker(pair) for pair in pairs]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, pairs))


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: Path, rows: Sequence[dict]) -> None:
    """Columns in the key order of the first row."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def rational_str(value: Fraction) -> str:
    return "{}/{}".format(*value.as_integer_ratio())


def _family_label(args: argparse.Namespace) -> str:
    return args.family if args.family else "custom"


def _store(args: argparse.Namespace) -> Optional[ResultStore]:
    return ResultStore(args.cache) if args.cache else None


# ------------------------------------------------------------------ commands


def cmd_colength(args: argparse.Namespace) -> int:
    pairs = grid_pairs(args)
    store = _store(args)

    def worker(pn):
        p, n = pn
        ring = resolve_ring(args, p)
        ideal = parse_ideal_spec(ring, args.ideal)
        return cached_colength(store, ring, ideal, n, max_dim=args.cap)

    records = run_grid(pairs, worker, args.jobs)
    label = _family_label(args)
    rows = [
        {
            "family": label,
            "p": rec.p,
            "n": rec.n,
            "q": rec.q,
            "m": m,
            "dim": dim,
        }
        for rec in records
        for m, dim in enumerate(rec.dims)
    ]
    write_csv(args.out / "colength.csv", rows)
    write_json(
        args.out / "colength.json",
        {"family": label, "records": [rec.to_json_dict() for rec in records]},
    )
    for rec in records:
        print(
            f"p={rec.p} n={rec.n} q={rec.q} total={rec.total} "
            f"normalized={rational_str(rec.normalized)}"
        )
    return 0


def _curve_profile(args, p: int, n: int):
    ring = resolve_ring(args, p)
    ideal = parse_ideal_spec(ring, args.ideal)
    prof = cohomology_profile(ring, ideal, n, m_max=args.m_max, max_dim=args.cap)
    return ideal, prof


def cmd_profile(args: argparse.Namespace) -> int:
    pairs = grid_pairs(args)
    results = run_grid(pairs, lambda pn: (pn, _curve_profile(args, *pn)), args.jobs)
    label = _family_label(args)
    rows = []
    payload = []
    for (p, n), (_, prof) in results:
        for m in range(prof.m_max + 1):
            rows.append(
                {
                    "family": label,
                    "p": p,
                    "n": n,
                    "q": prof.q,
                    "m": m,
                    "h0": prof.h0[m],
                    "chi": prof.chi[m],
                    "h1": prof.h1[m],
                }
            )
        payload.append(
            {
                "p": p,
                "n": n,
                "q": prof.q,
                "m_max": prof.m_max,
                "geometry": {
                    "deg_y": prof.geom.deg_y,
                    "genus": prof.geom.genus,
                    "theta": prof.geom.theta,
                },
                "h0": list(prof.h0),
                "chi": list(prof.chi),
                "h1": list(prof.h1),
            }
        )
    write_csv(args.out / "profile.csv", rows)
    write_json(args.out / "profile.json", {"family": label, "profiles": payload})
    for (p, n), (_, prof) in results:
        print(f"p={p} n={n} q={prof.q} m_max={prof.m_max}")
    return 0


def cmd_hn(args: argparse.Namespace) -> int:
    pairs = grid_pairs(args)

    def worker(pn):
        ideal, prof = _curve_profile(args, *pn)
        hn = estimate_hn_profile(prof, len(ideal.degrees), sum(ideal.degrees))
        return pn, hn, vanishing_report(prof, hn)

    results = run_grid(pairs, worker, args.jobs)
    label = _family_label(args)
    rows = []
    payload = []
    for (p, n), hn, report in results:
        for k, (nu, r) in enumerate(hn.pairs, start=1):
            rows.append(
                {
                    "family": label,
                    "p": p,
                    "n": n,
                    "q": p**n,
                    "k": k,
                    "nu": rational_str(nu),
                    "r": r,
                }
            )
        payload.append(
            {
                "p": p,
                "n": n,
                "q": p**n,
                "hn": {
                    "nu": [rational_str(nu) for nu, _ in hn.pairs],
                    "r": [r for _, r in hn.pairs],
                    "residual": hn.residual,
                    "uncertainty": hn.uncertainty,
                    "first_nonzero": hn.first_nonzero,
                },
                "vanishing": {
                    "below_violations": list(report.below_violations),
                    "above_violations": list(report.above_violations),
                    "tail_start": report.tail_start,
                    "tail_sum": report.tail_sum,
                    "tail_ratio": report.tail_ratio,
                },
            }
        )
    write_csv(args.out / "hn.csv", rows)
    write_json(args.out / "hn.json", {"family": label, "runs": payload})
    for (p, n), hn, report in results:
        steps = " ".join(f"({rational_str(nu)},{r})" for nu, r in hn.pairs)
        print(f"p={p} n={n} profile: {steps} clean={report.clean}")
    return 0


def cmd_limits(args: argparse.Namespace) -> int:
    if not args.family:
        raise SpecParseError("limits needs --family")
    if args.primes is None:
        raise SpecParseError("limits needs --primes")
    primes = parse_primes(args.primes)
    ns = parse_n_list(args.n_list)
    rows = []
    for p in primes:
        entry = {"p": p, "reference": rational_str(reference_value(args.family, p))}
        if args.family == "fermat-quartic":
            estimates = []
            for n in ns:
                ideal, prof = _curve_profile(args, p, n)
                hn = estimate_hn_profile(prof, len(ideal.degrees), sum(ideal.degrees))
                value = hk_from_profile(prof.geom, hn, ideal.degrees)
                estimates.append(
                    {"n": n, "hk_from_profile": rational_str(value)}
                )
            entry["profile_estimates"] = estimates
        rows.append(entry)
    write_json(args.out / "limits.json", {"family": args.family, "rows": rows})
    for entry in rows:
        print(f"p={entry['p']} reference={entry['reference']}")
    return 0


def cmd_sandwich(args: argparse.Namespace) -> int:
    if not args.family or not args.family.startswith("diagonal:"):
        raise SpecParseError("sandwich needs --family diagonal:d1,..,ds")
    spec = parse_diagonal_family(args.family)
    pairs = grid_pairs(args)
    reports = run_grid(pairs, lambda pn: sandwich_check(spec, *pn), args.jobs)
    label = _family_label(args)
    exact = [
        {
            "p": rep.p,
            "n": rep.n,
            "lower": rational_str(rep.lower),
            "value": rational_str(rep.value),
            "upper": rational_str(rep.upper),
            "gap": rational_str(rep.gap),
            "gap_p": rational_str(rep.gap_p),
        }
        for rep in reports
    ]
    rows = [
        {
            "family": label,
            **row,
            "lower_float": float(rep.lower),
            "value_float": float(rep.value),
            "upper_float": float(rep.upper),
        }
        for row, rep in zip(exact, reports)
    ]
    write_csv(args.out / "sandwich.csv", rows)
    write_json(args.out / "sandwich.json", {"family": label, "reports": exact})
    for rep in reports:
        print(
            f"p={rep.p} n={rep.n} {rational_str(rep.lower)} <= "
            f"{rational_str(rep.value)} <= {rational_str(rep.upper)}"
        )
    return 0


def cmd_convergence(args: argparse.Namespace) -> int:
    if not args.family:
        raise SpecParseError("convergence needs --family")
    pairs = grid_pairs(args)
    ns = {n for _, n in pairs}
    if len(ns) != 1:
        raise SpecParseError("convergence needs a single --n")
    store = _store(args)

    def worker(pn):
        p, n = pn
        ring = resolve_ring(args, p)
        ideal = parse_ideal_spec(ring, args.ideal)
        record = cached_colength(store, ring, ideal, n, max_dim=args.cap)
        return record, reference_value(args.family, p)

    results = run_grid(pairs, worker, args.jobs)
    fit = convergence_fit([rec for rec, _ in results])
    rows = []
    for rec, reference in results:
        residual = rec.normalized - reference
        rows.append(
            {
                "p": rec.p,
                "n": rec.n,
                "q": rec.q,
                "normalized": rational_str(rec.normalized),
                "reference": rational_str(reference),
                "residual": rational_str(residual),
                "residual_p": rational_str(residual * rec.p),
                "normalized_float": float(rec.normalized),
                "residual_float": float(residual),
            }
        )
    write_csv(args.out / "convergence.csv", rows)
    write_json(args.out / "convergence_fit.json", fit)
    for row in rows:
        print(
            f"p={row['p']} n={row['n']} normalized={row['normalized']} "
            f"reference={row['reference']} residual_p={row['residual_p']}"
        )
    print(f"e_hat={fit['e_hat']:.6f}")
    return 0


def cmd_gm(args: argparse.Namespace) -> int:
    if not args.d:
        raise SpecParseError("gm needs --d, e.g. --d 4,4,4,4")
    try:
        spec = DiagonalSpec(tuple(int(tok) for tok in args.d.split(",")))
    except ValueError as exc:
        raise SpecParseError(f"bad --d {args.d!r}: {exc}") from None
    limits = diagonal_limits(spec)
    gv = g_value([Fraction(1, d) for d in spec.exponents])
    payload = {
        "exponents": list(spec.exponents),
        "e_hk_infinity": rational_str(limits.e_hk_infinity),
        "e_naive": rational_str(limits.e_naive),
        "g": {
            "prefactor": rational_str(gv.prefactor),
            "lambda_terms": {
                str(lam): rational_str(v) for lam, v in gv.lambda_terms.items()
            },
            "total": rational_str(gv.total),
        },
    }
    write_json(args.out / "gm.json", payload)
    print(
        f"e_hk_infinity={payload['e_hk_infinity']} e_naive={payload['e_naive']}"
    )
    return 0


_HANDLERS = {
    "colength": cmd_colength,
    "profile": cmd_profile,
    "hn": cmd_hn,
    "limits": cmd_limits,
    "sandwich": cmd_sandwich,
    "convergence": cmd_convergence,
    "gm": cmd_gm,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.config is not None:
            apply_config(args, load_config(args.config))
        _finalize(args)
        return _HANDLERS[args.command](args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, ArithmeticError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
