"""Experiment front end: grids over (p, n), disk caching, CSV/JSON export.

Exit codes: 0 success, 2 unparseable input (flags, ring/ideal specs,
config file) or an unusable --out or --cache path, 3 matrix-size guard
tripped, 1 mathematical failure (non-primary ideal, singular curve, short
profile, ...).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import threading
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
    hk_from_profile,
    vanishing_report,
)
from hklab.diagonal import (
    DiagonalSpec,
    _sandwich_ring,
    diagonal_limits,
    diagonal_ring,
    g_value,
    sandwich_check,
)
from hklab.fp_linalg import is_prime
from hklab.graded import HypersurfaceRing, SpecParseError, parse_ring_spec
from hklab.limits import convergence_fit, reference_value
from hklab.store import ResultStore, cached_colength

# One row per flag: dest, value type, default, help.  Every flag except
# --config is also a config key; a config file's values replace these
# defaults, so the command line wins over the file and the file over them.
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
    "n": ("n_list", str, "1", "Frobenius exponents, e.g. '1,2' (default %(default)s)"),
    "m-max": ("m_max", int, None, "profile twist cutoff, >= 0"),
    "out": ("out", Path, Path("."), "output directory (default %(default)s)"),
    "cache": ("cache", Path, None, "colength cache directory"),
    "jobs": ("jobs", int, 1, "parallel (p,n) jobs, >= 1 (default %(default)s)"),
    "cap": ("cap", int, 5000, "matrix-size guard (default %(default)s)"),
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


def build_parser(
    config: Optional[dict] = None, command: Optional[str] = None
) -> argparse.ArgumentParser:
    """The hk-lab parser; ``config`` values (flag -> string) replace the
    defaults.  Every subcommand is registered, so usage, choices and error
    text stay whole, but with ``command`` only that subcommand gets its flags:
    each ``add_argument`` builds a ``HelpFormatter``, and all of them
    together cost milliseconds per parse."""
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="hk-lab",
        description="Frobenius colengths, syzygy cohomology, and limit multiplicities",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        add = subs.add_parser(name).add_argument
        if command not in (None, name):
            continue
        for flag in flags:
            dest, kind, default, text = _FLAGS[flag]
            default = config.get(flag, default)
            add(f"--{flag}", dest=dest, type=kind, default=default, help=text)
    return parser


def load_config(path: Path, command: str) -> dict:
    """Flag name -> value string, each key a flag of ``command``."""
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
        if key not in _COMMAND_FLAGS[command]:
            dest = _FLAGS[key][0]
            raise SpecParseError(f"config key not valid for this command: {dest}")
        if key in mapping:
            raise SpecParseError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _validate(args: argparse.Namespace) -> None:
    if getattr(args, "m_max", None) is not None and args.m_max < 0:
        raise SpecParseError(f"--m-max must be >= 0, got {args.m_max}")
    if getattr(args, "jobs", 1) < 1:
        raise SpecParseError(f"--jobs must be >= 1, got {args.jobs}")
    if getattr(args, "cap", 1) < 1:  # every run would trip at degree 0
        raise SpecParseError(f"--cap must be >= 1, got {args.cap}")
    for flag in ("out", "cache"):  # fail before the work, not after it
        path = getattr(args, flag, None)
        if path is not None and path.exists() and not path.is_dir():
            raise SpecParseError(f"--{flag} {path} is not a directory")
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
                if mod <= 0:
                    raise ValueError("residue filter needs a positive modulus")
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
                if v in primes:
                    raise ValueError(f"repeated prime {v}")
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
    for i, n in enumerate(ns):
        if n in ns[:i]:
            raise SpecParseError(f"bad --n {text!r}: repeated exponent {n}")
    return ns


def parse_diagonal_family(text: str) -> DiagonalSpec:
    """A ``diagonal:d1,..,ds`` family, or gm's bare ``d1,..,ds``."""
    body = text.removeprefix("diagonal:")
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


def _ring_ideal(args, p: int) -> Tuple[HypersurfaceRing, IdealSpec]:
    """The --ring or --family ring at p, and --ideal in it."""
    if args.ring:
        ring = parse_ring_spec(args.ring)
        if ring.field.p != p:
            raise SpecParseError(
                f"--ring has characteristic {ring.field.p}, grid asked for {p}"
            )
    elif args.family:
        ring = family_ring(args.family, p)
    else:
        raise SpecParseError("need --ring or --family")
    return ring, parse_ideal_spec(ring, args.ideal)


def grid_primes(args: argparse.Namespace) -> List[int]:
    """--primes, or the prime of --ring when --primes is absent."""
    if args.primes:
        return parse_primes(args.primes)
    if getattr(args, "ring", None):  # sandwich has no --ring
        return [parse_ring_spec(args.ring).field.p]
    raise SpecParseError("need --primes (or an explicit --ring)")


def run_grid(args: argparse.Namespace, job) -> list:
    """(p, n, job(p, n)) in grid order over ``grid_primes`` x --n.

    At --jobs 1 the caller runs the points in grid order; otherwise --jobs
    threads take them in grid order.  After a job raises no further point
    starts, and the error of the first failed point in grid order is raised.
    """
    pairs = [(p, n) for p in grid_primes(args) for n in parse_n_list(args.n_list)]
    jobs = getattr(args, "jobs", 1)  # limits has no --jobs
    if jobs == 1:
        return [(p, n, job(p, n)) for p, n in pairs]
    results = [None] * len(pairs)
    errors = {}  # grid index -> what its job raised
    points = iter(enumerate(pairs))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                point = None if errors else next(points, None)
            if point is None:
                return
            index, (p, n) = point
            try:
                results[index] = (p, n, job(p, n))
            except BaseException as exc:  # re-raised in the caller, as Executor.map does
                with lock:
                    errors[index] = exc

    threads = [threading.Thread(target=work) for _ in range(min(jobs, len(pairs)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results


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


# ------------------------------------------------------------------ commands


def _colength_records(args: argparse.Namespace) -> list:
    """The colength record of each grid point, through the --cache store."""
    store = ResultStore(args.cache) if args.cache else None

    def job(p, n):
        return cached_colength(store, *_ring_ideal(args, p), n, max_dim=args.cap)

    return [rec for _, _, rec in run_grid(args, job)]


def cmd_colength(args: argparse.Namespace) -> int:
    records = _colength_records(args)
    label = args.family or "custom"
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
    return cohomology_profile(*_ring_ideal(args, p), n, m_max=args.m_max, max_dim=args.cap)


def cmd_profile(args: argparse.Namespace) -> int:
    results = run_grid(args, lambda p, n: _curve_profile(args, p, n))
    label = args.family or "custom"
    rows = []
    payload = []
    for p, n, prof in results:
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
    for p, n, prof in results:
        print(f"p={p} n={n} q={prof.q} m_max={prof.m_max}")
    return 0


def cmd_hn(args: argparse.Namespace) -> int:
    def job(p, n):
        prof = _curve_profile(args, p, n)
        hn = estimate_hn_profile(prof)
        return prof.q, hn, vanishing_report(prof, hn)

    results = run_grid(args, job)
    label = args.family or "custom"
    rows = []
    payload = []
    for p, n, (q, hn, report) in results:
        for k, (nu, r) in enumerate(hn.pairs, start=1):
            rows.append(
                {
                    "family": label,
                    "p": p,
                    "n": n,
                    "q": q,
                    "k": k,
                    "nu": rational_str(nu),
                    "r": r,
                }
            )
        payload.append(
            {
                "p": p,
                "n": n,
                "q": q,
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
    for p, n, (_, hn, report) in results:
        steps = " ".join(f"({rational_str(nu)},{r})" for nu, r in hn.pairs)
        print(f"p={p} n={n} profile: {steps} clean={report.clean}")
    return 0


def cmd_limits(args: argparse.Namespace) -> int:
    if not args.family:
        raise SpecParseError("limits needs --family")
    if args.primes is None:
        raise SpecParseError("limits needs --primes")
    profiled = args.family == "fermat-quartic"
    for flag in () if profiled else ("ideal", "m-max", "cap", "n"):
        dest, _, default, _ = _FLAGS[flag]
        if getattr(args, dest) != default:
            raise SpecParseError(f"limits --family {args.family} reads no --{flag}")

    def job(p, n):
        reference = reference_value(args.family, p)
        if not profiled:
            return reference, None
        prof = _curve_profile(args, p, n)
        value = rational_str(hk_from_profile(prof, estimate_hn_profile(prof)))
        return reference, {"n": n, "hk_from_profile": value}

    grid = run_grid(args, job)
    per_prime = len(parse_n_list(args.n_list))
    rows = []
    for index, (p, _, (reference, estimate)) in enumerate(grid):
        if index % per_prime == 0:
            rows.append({"p": p, "reference": rational_str(reference)})
        if profiled:
            rows[-1].setdefault("profile_estimates", []).append(estimate)
    write_json(args.out / "limits.json", {"family": args.family, "rows": rows})
    for entry in rows:
        print(f"p={entry['p']} reference={entry['reference']}")
    return 0


def cmd_sandwich(args: argparse.Namespace) -> int:
    if not args.family or not args.family.startswith("diagonal:"):
        raise SpecParseError("sandwich needs --family diagonal:d1,..,ds")
    spec = parse_diagonal_family(args.family)
    parse_n_list(args.n_list)  # a bad --n still exits 2 before a bad prime exits 1
    for p in grid_primes(args):  # every prime before the first bound
        _sandwich_ring(spec, p)
    reports = [r for _, _, r in run_grid(args, lambda p, n: sandwich_check(spec, p, n))]
    label = args.family
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
    if len(parse_n_list(args.n_list)) != 1:
        raise SpecParseError("convergence needs a single --n")
    references = {}
    for p in grid_primes(args):  # every reference before the first colength
        _, ideal = _ring_ideal(args, p)  # an unparseable spec still exits 2 first
        references[p] = reference_value(args.family, p)
        if not ideal.is_maximal:  # the reference is the maximal ideal's e_HK
            raise ValueError(
                "convergence needs the maximal ideal, one nonzero multiple of each "
                f"variable, not --ideal {args.ideal} at p={p}"
            )
    records = _colength_records(args)
    fit = convergence_fit(records)
    rows = []
    for rec in records:
        reference = references[rec.p]
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
    spec = parse_diagonal_family(args.d)
    gv = g_value([Fraction(1, d) for d in spec.exponents])
    limits = diagonal_limits(spec, gv)
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
    argv = sys.argv[1:] if argv is None else argv
    # hk-lab itself takes no option with a value, so a first word that names
    # a subcommand is the one argparse runs; any other first word fails at
    # the top level, whatever flags the subcommands have
    command = next((a for a in argv if a in _COMMAND_FLAGS), None)
    try:
        args = build_parser(command=command).parse_args(argv)
        if args.config is not None:
            config = load_config(args.config, args.command)
            args = build_parser(config, args.command).parse_args(argv)
        _validate(args)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse: usage errors, bad config values, --help
        return exc.code if isinstance(exc.code, int) else 2
    except (SpecParseError, OSError) as exc:  # OSError: an unusable --out or --cache
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
