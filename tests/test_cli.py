import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hklab.cli
import hklab.diagonal
import hklab.store
from hklab.cli import (
    _COMMAND_FLAGS,
    _FLAGS,
    COMMANDS,
    _plain_args,
    build_parser,
    main,
    parse_primes,
    rational_str,
    run_grid,
)
from hklab.graded import SpecParseError


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -------------------------------------------------------------- prime parsing


def test_parse_prime_list():
    assert parse_primes("3,5,7") == [3, 5, 7]


def test_parse_prime_range_with_residue_filter():
    assert parse_primes("3..13%8=3,5") == [3, 5, 11, 13]
    assert parse_primes("3..23%8=1,7") == [7, 17, 23]


def test_parse_prime_rejects_composites_and_junk():
    with pytest.raises(SpecParseError, match="not prime"):
        parse_primes("3,4,5")
    with pytest.raises(SpecParseError):
        parse_primes("a,b")
    with pytest.raises(SpecParseError, match="empty"):
        parse_primes("24..28")


def test_rational_round_trip():
    assert rational_str(Fraction(-2, 49)) == "-2/49"
    assert Fraction(rational_str(Fraction(3))) == 3


# ------------------------------------------------------------------ commands


def test_gm_matches_known_values(tmp_path):
    assert main(["gm", "--d", "1,1,1", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "gm.json")
    assert payload["e_hk_infinity"] == "1/1"
    assert payload["e_naive"] == "3/4"
    assert payload["g"]["lambda_terms"]["0"] == "6/1"


def test_gm_quartic_normalization(tmp_path):
    assert main(["gm", "--d", "4,4,4,4", "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "gm.json")["e_hk_infinity"] == "8/3"


def test_gm_sums_over_sign_vectors_once(monkeypatch, tmp_path):
    calls = []
    g_value = hklab.diagonal.g_value
    counted = lambda xs: calls.append(xs) or g_value(xs)  # noqa: E731
    monkeypatch.setattr(hklab.diagonal, "g_value", counted)
    monkeypatch.setattr(sys.modules["hklab.cli"], "g_value", counted)
    assert main(["gm", "--d", "4,4,4,4", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_colength_csv_schema_and_values(tmp_path):
    rc = main(
        [
            "colength",
            "--ring",
            "fermat:s=3,d=4,p=5",
            "--ideal",
            "maximal",
            "--n",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "colength.csv")
    assert list(rows[0]) == ["family", "p", "n", "q", "m", "dim"]
    dims = [int(r["dim"]) for r in rows]
    assert dims == [1, 3, 6, 10, 14, 15, 13, 9, 3, 1, 0]
    assert sum(dims) == 75
    payload = read_json(tmp_path / "colength.json")
    assert payload["records"][0]["normalized"] == "3/1"
    argv = ["colength", "--family", "buchweitz-chen", "--primes", "5,7"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    records = read_json(tmp_path / "colength.json")["records"]
    assert [(r["p"], r["total"]) for r in records] == [(5, 25), (7, 49)]


def test_cache_hit_is_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    args = [
        "colength",
        "--family",
        "fermat-quartic",
        "--primes",
        "5",
        "--n",
        "1",
        "--cache",
        str(cache),
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert len(list(cache.glob("*.json"))) == 1
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("colength.csv", "colength.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_convergence_outputs(tmp_path):
    rc = main(
        [
            "convergence",
            "--family",
            "fermat-quartic",
            "--primes",
            "3,5,7",
            "--n",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "convergence.csv")
    assert list(rows[0])[:7] == [
        "p",
        "n",
        "q",
        "normalized",
        "reference",
        "residual",
        "residual_p",
    ]
    by_p = {r["p"]: r for r in rows}
    assert by_p["7"]["normalized"] == "145/49"
    assert by_p["7"]["residual_p"] == "-2/7"
    assert by_p["3"]["reference"] == "28/9"
    fit = read_json(tmp_path / "convergence_fit.json")
    assert set(fit) == {"e_hat", "c_hat", "c2_hat", "max_resid_p", "max_resid_p2"}


def test_convergence_accepts_multiples_of_the_variables(tmp_path):
    argv = ["convergence", "--family", "fermat-quartic", "--primes", "3,5,7"]
    assert main(argv + ["--out", str(tmp_path / "m")]) == 0
    assert main(argv + ["--ideal", "2*z,y,4*x", "--out", str(tmp_path / "v")]) == 0
    for name in ("convergence.csv", "convergence_fit.json"):
        assert (tmp_path / "v" / name).read_bytes() == (tmp_path / "m" / name).read_bytes()


def test_convergence_builds_each_ring_once(tmp_path, monkeypatch):
    # the reference check and the colength jobs share each prime's ring
    specs = []
    real = hklab.cli.parse_ring_spec
    monkeypatch.setattr(
        hklab.cli, "parse_ring_spec", lambda spec: specs.append(spec) or real(spec)
    )
    argv = ["convergence", "--family", "chang-quartic", "--primes", "7,11,13,17"]
    assert main(argv + ["--jobs", "2", "--out", str(tmp_path)]) == 0
    assert sorted(specs) == sorted(f"fermat:s=4,d=4,p={p}" for p in (7, 11, 13, 17))


def test_jobs_flag_keeps_output_deterministic(tmp_path):
    base = [
        "convergence",
        "--family",
        "fermat-quartic",
        "--primes",
        "3,5,7",
        "--n",
        "1",
    ]
    assert main(base + ["--out", str(tmp_path / "serial")]) == 0
    assert main(base + ["--jobs", "3", "--out", str(tmp_path / "par")]) == 0
    assert (tmp_path / "serial" / "convergence.csv").read_bytes() == (
        tmp_path / "par" / "convergence.csv"
    ).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("primes, trip", [("7,101", "5002x16"), ("101,7", "5002x0")])
def test_grid_reports_the_first_failed_point(tmp_path, capsys, monkeypatch, primes, trip, jobs):
    # both points trip the size guard; the first in grid order is reported
    started = []

    def counted(store, ring, *args, **kwargs):
        started.append(ring.field.p)
        return hklab.store.cached_colength(store, ring, *args, **kwargs)

    monkeypatch.setattr("hklab.cli.cached_colength", counted)
    argv = ["colength", "--family", "chang-quartic", "--n", "2", "--primes", primes]
    assert main(argv + ["--jobs", jobs, "--out", str(tmp_path)]) == 3
    assert f"needs a {trip} matrix" in capsys.readouterr().err
    if jobs == "1":  # no point after the failing one runs
        assert started == [int(primes.split(",")[0])]


def test_run_grid_raises_the_first_failure_in_grid_order():
    # p=3 fails only after p=5 has failed, and p=7 never starts; every
    # prime's step runs before the first point
    failed = threading.Event()
    steps = []
    started = []

    def job(p):
        steps.append((p, len(started)))

        def point(n):
            started.append(p)
            if p == 3:
                failed.wait(timeout=30)
                raise ValueError("p=3")
            if p == 5:
                failed.set()
                raise ValueError("p=5")

        return point

    args = argparse.Namespace(primes="3,5,7", n_list="1", jobs=2)
    with pytest.raises(ValueError, match="p=3"):
        run_grid(args, job)
    assert steps == [(3, 0), (5, 0), (7, 0)]
    assert sorted(started) == [3, 5]


def test_run_grid_runs_every_point_once_in_grid_order():
    # more threads than cores, switching often: each point runs exactly once
    # and the results keep grid order
    steps = []
    runs = []

    def job(p):
        steps.append((p, len(runs)))
        return lambda n: runs.append((p, n)) or p * n

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        args = argparse.Namespace(primes="3..997", n_list="1,2", jobs=8)
        grid = run_grid(args, job)
    finally:
        sys.setswitchinterval(interval)
    expected = [(p, n) for p in parse_primes("3..997") for n in (1, 2)]
    assert grid == [(p, n, p * n) for p, n in expected]
    assert sorted(runs) == expected
    # every prime's step ran once, in grid order, before the first point
    assert steps == [(p, 0) for p in parse_primes("3..997")]


def test_unusable_prime_stops_the_run_before_any_point(tmp_path, capsys, monkeypatch):
    out = ["--out", str(tmp_path)]
    started = []
    real = hklab.cli.cached_colength
    monkeypatch.setattr(
        hklab.cli, "cached_colength", lambda *a, **k: started.append(a) or real(*a, **k)
    )
    assert main(["colength", "--ring", "fermat:s=3,d=4,p=7", "--primes", "7,11"] + out) == 2
    assert "--ring has characteristic 7, grid asked for 11" in capsys.readouterr().err
    assert started == []
    # limits looks up each prime's reference before the first profile
    monkeypatch.setattr(hklab.cli, "cohomology_profile", lambda *a, **k: started.append(a))
    assert main(["limits", "--family", "fermat-quartic", "--primes", "7,2"] + out) == 1
    assert "fermat-quartic needs an odd prime" in capsys.readouterr().err
    assert started == []


def test_grid_builds_each_ring_once_per_prime(tmp_path, monkeypatch):
    specs = []
    real = hklab.cli.parse_ring_spec
    monkeypatch.setattr(
        hklab.cli, "parse_ring_spec", lambda spec: specs.append(spec) or real(spec)
    )
    argv = ["hn", "--family", "fermat-quartic", "--primes", "7,11", "--n", "1,2"]
    assert main(argv + ["--jobs", "2", "--out", str(tmp_path)]) == 0
    assert sorted(specs) == ["fermat:s=3,d=4,p=11", "fermat:s=3,d=4,p=7"]


@pytest.mark.parametrize(
    "ring, ns",
    [
        ("hypersurface:s=2,p=31,f=x^5+x*y^4+y^5", "1,2"),
        # the seven lines of P^2(F_2), which the syzygy lattice refuses
        (
            "hypersurface:s=3,p=2,"
            "f=x^4*y^2*z+x^4*y*z^2+x^2*y*z^4+x^2*y^4*z+x*y^4*z^2+x*y^2*z^4",
            "3,4",
        ),
    ],
)
def test_points_of_one_prime_share_its_ring_across_threads(tmp_path, monkeypatch, ring, ns):
    # both points of the prime fill one ring's NF memo, at --jobs 2 from two
    # threads, and write the bytes of a serial run
    rings = []
    real = hklab.cli.cached_colength

    def counted(store, shared, *args, **kwargs):
        rings.append(shared)
        return real(store, shared, *args, **kwargs)

    monkeypatch.setattr(hklab.cli, "cached_colength", counted)
    argv = ["colength", "--ring", ring, "--n", ns]
    for jobs in ("1", "2"):
        rings.clear()
        assert main(argv + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        assert len(rings) == 2 and rings[0] is rings[1] and rings[0]._nf_memo
    assert (tmp_path / "2" / "colength.json").read_bytes() == (
        tmp_path / "1" / "colength.json"
    ).read_bytes()


def test_hn_report(tmp_path):
    rc = main(
        [
            "hn",
            "--family",
            "fermat-quartic",
            "--primes",
            "7",
            "--n",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    run = read_json(tmp_path / "hn.json")["runs"][0]
    assert run["hn"]["nu"] == ["3/2"]
    assert run["hn"]["r"] == [2]
    assert run["vanishing"]["below_violations"] == []
    rows = read_csv(tmp_path / "hn.csv")
    assert rows[0]["nu"] == "3/2" and rows[0]["r"] == "2"


def test_hn_json_of_a_two_step_profile(tmp_path):
    argv = ["hn", "--family", "fermat-quartic", "--primes", "3", "--n", "3"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    run = read_json(tmp_path / "hn.json")["runs"][0]
    assert (run["p"], run["n"], run["q"]) == (3, 3, 27)
    assert run["hn"] == {
        "nu": ["4/3", "5/3"],
        "r": [1, 1],
        "residual": 0.0,
        "uncertainty": pytest.approx(4 / 27),
        "first_nonzero": 36,
    }
    assert [(r["k"], r["nu"], r["r"]) for r in read_csv(tmp_path / "hn.csv")] == [
        ("1", "4/3", "1"),
        ("2", "5/3", "1"),
    ]


def test_profile_rows(tmp_path):
    rc = main(
        [
            "profile",
            "--family",
            "fermat-quartic",
            "--primes",
            "5",
            "--n",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "profile.csv")
    assert len(rows) == 16  # m = 0..15
    assert [int(r["h0"]) for r in rows[:9]] == [0] * 7 + [1, 3]
    assert all(
        int(r["h0"]) - int(r["chi"]) == int(r["h1"]) for r in rows
    )


def test_sandwich_outputs(tmp_path):
    rc = main(
        [
            "sandwich",
            "--family",
            "diagonal:2,2,2",
            "--primes",
            "5",
            "--n",
            "1,2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "sandwich.csv")
    assert rows[0]["lower"] == "24/25"
    assert rows[0]["value"] == "37/25"
    assert rows[1]["value"] == "937/625"
    assert float(rows[0]["value_float"]) == pytest.approx(1.48)


def test_limits_reports_reference_and_profile_value(tmp_path):
    rc = main(
        [
            "limits",
            "--family",
            "fermat-quartic",
            "--primes",
            "7",
            "--n",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    row = read_json(tmp_path / "limits.json")["rows"][0]
    assert row["reference"] == "3/1"
    assert row["profile_estimates"] == [{"n": 1, "hk_from_profile": "3/1"}]


# ---------------------------------------------------------------- exit codes


def test_parse_errors_exit_2(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    assert main(["colength", "--ring", "fermat:s=3", "--primes", "5"] + out) == 2
    assert main(["colength", "--family", "fermat-quartic"] + out) == 2
    assert main(["colength", "--family", "nonsense", "--primes", "5"] + out) == 2
    assert main(["gm", "--d", "4,oops"] + out) == 2
    assert main(["convergence", "--family", "fermat-quartic", "--primes", "3,5,7", "--n", "1,2"] + out) == 2
    quartic = ["colength", "--family", "fermat-quartic", "--primes", "5"]
    assert main(quartic + ["--n", "0"] + out) == 2
    assert main(quartic + ["--n", "x"] + out) == 2
    for primes in ("3..23%8", "3..23%0=1", "3..23%-8=1"):
        assert main(["colength", "--family", "fermat-quartic", "--primes", primes] + out) == 2
    # a prime above the int64 limit, for a named quartic and a diagonal family alike
    for family in ("fermat-quartic", "diagonal:4,4,4,4"):
        assert main(["colength", "--family", family, "--primes", "3037000507"] + out) == 2
    assert main(["colength", "--primes", "5"] + out) == 2
    assert main(["limits", "--primes", "5"] + out) == 2
    assert main(["limits", "--family", "fermat-quartic"] + out) == 2
    assert main(["convergence", "--primes", "5,7,11"] + out) == 2
    assert main(["gm"] + out) == 2
    assert main(["sandwich", "--family", "fermat-quartic", "--primes", "5"] + out) == 2
    assert (
        main(
            ["colength", "--ring", "fermat:s=3,d=4,p=5", "--primes", "7"] + out
        )
        == 2
    )
    # limits computes no profile for chang-quartic, so it reads no profile flag
    chang = ["limits", "--family", "chang-quartic", "--primes", "5"]
    capsys.readouterr()
    assert main(chang + ["--m-max", "3", "--cap", "1", "--ideal", "x"] + out) == 2
    assert "--ideal" in capsys.readouterr().err
    assert main(chang + ["--n", "1,2"] + out) == 2
    assert "--n" in capsys.readouterr().err
    assert not (tmp_path / "limits.json").exists()
    # an empty value is given, not absent: its flag's parser rejects it
    ring = ["--ring", "fermat:s=3,d=4,p=7"]
    empty = [
        (["colength", *ring, "--primes", ""], "bad --primes ''"),
        (["colength", "--ring", "", "--family", "fermat-quartic", "--primes", "7"], "ring spec"),
        (["colength", "--ring", ""], "ring spec"),
        (["colength", *ring, "--family", ""], "unknown family ''"),
        (["colength", "--family", "", "--primes", "7"], "unknown family ''"),
    ]
    for argv, message in empty:
        assert main(argv + out) == 2
        assert message in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ring=fermat:s=3,d=4,p=7\nprimes=\n", encoding="utf-8")
    assert main(["colength", "--config", str(cfg)] + out) == 2
    assert "bad --primes ''" in capsys.readouterr().err
    assert not (tmp_path / "colength.csv").exists()


def test_repeated_grid_values_exit_2(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    chang = ["--family", "chang-quartic"]
    cases = [
        (["colength", *chang, "--primes", "7,7"], "bad --primes '7,7': repeated prime 7"),
        (["colength", *chang, "--primes", "7", "--n", "1,1"], "bad --n '1,1': repeated exponent 1"),
        (["convergence", *chang, "--primes", "7,7,11,13,17"], "repeated prime 7"),
    ]
    for argv, message in cases:
        assert main(argv + out) == 2
        assert message in capsys.readouterr().err
    # a config file's values go through the same parsers
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=chang-quartic\nprimes=7,11,7\n", encoding="utf-8")
    assert main(["colength", "--config", str(cfg)] + out) == 2
    assert "repeated prime 7" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_unusable_out_or_cache_path_exits_2(tmp_path, capsys, monkeypatch):
    plain = tmp_path / "plain"
    plain.write_text("", encoding="utf-8")
    argv = ["colength", "--family", "chang-quartic", "--primes", "7"]
    runs = []
    real = hklab.store.han_monsky_colength
    monkeypatch.setattr(
        hklab.store,
        "han_monsky_colength",
        lambda *args: runs.append(args) or real(*args),
    )
    # a path that exists and is not a directory fails before any colength
    for flag in ("--out", "--cache"):
        assert main(argv + [flag, str(plain)]) == 2
        assert capsys.readouterr().err == f"error: {flag} {plain} is not a directory\n"
    assert runs == []
    # a cache entry that is a directory
    cache = tmp_path / "cache"
    assert main(argv + ["--cache", str(cache), "--out", str(tmp_path)]) == 0
    (entry,) = cache.glob("*.json")
    entry.unlink()
    entry.mkdir()
    capsys.readouterr()
    assert main(argv + ["--cache", str(cache), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(entry) in err and err.count("\n") == 1


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["colength", "--bogus-flag"]) == 2


def _parse_output(parse, argv):
    """(exit code, stdout, stderr) of parse(argv), argparse's SystemExit
    caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [[cmd, flag] for cmd in COMMANDS for flag in ("--help", "--bogus")]
    + [[], ["--help"], ["bogus"], ["--bogus", "gm"], ["bogus", "colength", "--help"]],
)
def test_main_parses_like_the_parser_with_every_flag(argv):
    # main builds only the invoked subcommand's flags; help and usage errors
    # must not show it
    full = _parse_output(lambda a: build_parser().parse_args(a), argv)
    assert full[0] in (0, 2)
    assert _parse_output(main, argv) == full


# Values for every flag type: ints that convert (with a sign, padding or an
# underscore), ones that do not, negative numbers, paths and specs.
ARG_VALUES = st.one_of(
    st.sampled_from(
        ["1", "2", "07", " 3", "+4", "1_0", "two", "", "1.5", "-1", "-3", "-",
         "maximal", "x,y^2", "a b", "a=b", ".", "out", "fermat-quartic",
         "diagonal:2,2,2", "3..23%8=1,7", "4,4,4,4", "gm", "-h", "--help", "--out"]
    ),
    st.text(max_size=4),
)


@st.composite
def cli_argv(draw):
    """A subcommand's argv: pairs of its flags and values, mixed with flags
    it does not read, abbreviations, ``--flag=value``, help, lone words and
    values that start with '-'."""
    command = draw(st.sampled_from(COMMANDS))
    flags = _COMMAND_FLAGS[command]
    argv = [command] if draw(st.integers(0, 9)) else []
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(flags))
        value = draw(ARG_VALUES)
        kind = draw(st.sampled_from(["pair"] * 6 + ["other", "short", "equals", "help", "word"]))
        if kind == "pair":
            argv += [f"--{flag}", value]
        elif kind == "other":
            argv += [f"--{draw(st.sampled_from(list(_FLAGS)))}", value]
        elif kind == "short":
            argv += [f"--{flag[: draw(st.integers(1, len(flag)))]}", value]
        elif kind == "equals":
            argv.append(f"--{flag}={value}")
        elif kind == "help":
            argv.append(draw(st.sampled_from(["-h", "--help"])))
        else:
            argv.append(value)
    keys = st.sampled_from([flag for flag in flags if flag != "config"])
    config = draw(st.dictionaries(keys, ARG_VALUES, max_size=3))
    return argv, config


@settings(max_examples=400, deadline=None)
@given(cli_argv())
def test_plain_args_match_the_parser(case):
    argv, config = case
    for defaults in (None, config):
        plain = _plain_args(argv, defaults)
        event("plain" if plain is not None else "argparse")
        if plain is not None:
            assert vars(plain) == vars(build_parser(defaults).parse_args(argv))


def test_plain_args_read_config_values_like_the_parser(tmp_path, capsys):
    argv = ["colength", "--family", "chang-quartic", "--primes", "7"]
    # a config value is converted with the flag's type
    config = {"jobs": "2", "out": str(tmp_path), "n": "1"}
    plain = _plain_args(argv, config)
    assert (plain.jobs, plain.out, plain.n_list) == (2, tmp_path, "1")
    assert vars(plain) == vars(build_parser(config).parse_args(argv))
    # a flag on the command line wins over a config value that does not convert
    assert vars(_plain_args(argv + ["--jobs", "3"], {"jobs": "two"})) == vars(
        build_parser({"jobs": "two"}).parse_args(argv + ["--jobs", "3"])
    )
    # a config value that does not convert gets argparse's error
    assert _plain_args(argv, {"jobs": "two"}) is None
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jobs=two\n", encoding="utf-8")
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.endswith(
        "hk-lab colength: error: argument --jobs: invalid int value: 'two'\n"
    )
    # every occurrence of a repeated flag is converted, as argparse does
    assert _plain_args(argv + ["--jobs", "two", "--jobs", "2"]) is None


def _bench_workloads(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


class ParserBuilt(Exception):
    pass


@pytest.mark.parametrize("workload", ["curve-hn", "diag-session"])
def test_bench_steps_build_no_parser(workload, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise ParserBuilt

    steps = _bench_workloads(monkeypatch).steps(workload, 0)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for index, step in enumerate(steps):
        argv = [*step.argv, "--out", str(tmp_path / f"out{index}")]
        if step.cache:
            argv += ["--cache", str(tmp_path / "cache")]
        assert main(argv) == 0, argv


def test_negative_m_max_exits_2(tmp_path):
    base = ["profile", "--family", "fermat-quartic", "--primes", "5"]
    assert main(base + ["--m-max", "-1", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "profile.csv").exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m-max=-1\n", encoding="utf-8")
    assert main(base + ["--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tmp_path, jobs):
    base = ["colength", "--family", "fermat-quartic", "--primes", "5"]
    assert main(base + ["--jobs", jobs, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "colength.csv").exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"jobs={jobs}\n", encoding="utf-8")
    assert main(base + ["--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_exits_2(tmp_path, capsys, cap):
    # a cap below 1 would trip the size guard at degree 0 on every input
    base = ["colength", "--family", "fermat-quartic", "--primes", "7"]
    assert main(base + ["--cap", cap, "--out", str(tmp_path)]) == 2
    assert f"--cap must be >= 1, got {cap}" in capsys.readouterr().err
    assert not (tmp_path / "colength.csv").exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"cap={cap}\n", encoding="utf-8")
    assert main(base + ["--config", str(cfg), "--out", str(tmp_path)]) == 2


# Flags each subcommand does not read, and so does not accept.
DROPPED_FLAGS = [
    ("colength", "--m-max", "3"),
    ("convergence", "--m-max", "3"),
    ("profile", "--cache", "c"),
    ("hn", "--cache", "c"),
    ("limits", "--jobs", "2"),
    ("limits", "--cache", "c"),
    ("sandwich", "--ring", "fermat:s=3,d=2,p=5"),
    ("sandwich", "--ideal", "maximal"),
    ("sandwich", "--m-max", "3"),
    ("sandwich", "--cache", "c"),
    ("sandwich", "--cap", "10"),
    ("gm", "--ring", "fermat:s=3,d=2,p=5"),
    ("gm", "--ideal", "maximal"),
    ("gm", "--family", "fermat-quartic"),
    ("gm", "--primes", "5"),
    ("gm", "--n", "1"),
    ("gm", "--m-max", "3"),
    ("gm", "--cache", "c"),
    ("gm", "--jobs", "2"),
    ("gm", "--cap", "10"),
]

VALID_ARGS = {
    "colength": ["--family", "fermat-quartic", "--primes", "5"],
    "convergence": ["--family", "fermat-quartic", "--primes", "3,5,7"],
    "profile": ["--family", "fermat-quartic", "--primes", "5"],
    "hn": ["--family", "fermat-quartic", "--primes", "5"],
    "limits": ["--family", "chang-quartic", "--primes", "5"],
    "sandwich": ["--family", "diagonal:2,2,2", "--primes", "5"],
    "gm": ["--d", "4,4,4,4"],
}


@pytest.mark.parametrize("command,flag,value", DROPPED_FLAGS)
def test_unread_flag_exits_2(command, flag, value, tmp_path):
    argv = [command, *VALID_ARGS[command], "--out", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv + [flag, value]) == 2


def test_hn_and_limits_take_generator_count_from_ideal(tmp_path, capsys):
    four = ["--ring", "fermat:s=3,d=4,p=7", "--ideal", "x^2,y^2,z^2,x*y"]
    assert main(["hn", *four, "--out", str(tmp_path)]) == 0
    assert "(8/3,3)" in capsys.readouterr().out
    limits = ["limits", "--family", "fermat-quartic", "--primes", "7", *four]
    assert main(limits + ["--out", str(tmp_path)]) == 0
    row = read_json(tmp_path / "limits.json")["rows"][0]
    assert row["profile_estimates"] == [{"n": 1, "hk_from_profile": "32/3"}]


NO_MASKED_ARRAYS = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    sys.exit()
src, out = sys.argv[1:]
sys.path.insert(0, src)
from hklab.cli import main
runs = [
    ["hn", "--family", "fermat-quartic", "--primes", "7"],
    ["colength", "--family", "chang-quartic", "--primes", "7"],
    ["sandwich", "--family", "diagonal:2,2,2", "--primes", "7"],
]
for argv in runs:
    assert main(argv + ["--out", out]) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_runs_never_import_numpy_ma(tmp_path):
    # np.unique without return_index asks np.ma.is_masked, and the first
    # such call imports numpy.ma into the run
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, str(src), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    if proc.stdout.strip() == "preloaded":
        pytest.skip("import numpy alone loads numpy.ma")
    assert proc.stdout.strip().splitlines()[-1] == "False"


STARTUP = """
import json, os, sys
watched = ("logging", "concurrent.futures")
preloaded = [name for name in watched if name in sys.modules]
if sys.argv[2] == "numpy-first":
    import numpy
sys.path.insert(0, sys.argv[1])
import hklab.cli
print(json.dumps({
    "preloaded": preloaded,
    "loaded": [name for name in watched if name in sys.modules],
    "env": {key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
}))
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_import_loads_only_what_a_run_uses():
    # hk-lab runs OpenBLAS single-threaded unless the user chose a thread
    # count, and loads neither logging nor concurrent.futures
    src = Path(__file__).resolve().parent.parent / "src"
    cases = [
        ({}, "plain", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}),
        ({"OPENBLAS_NUM_THREADS": "2"}, "plain", {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None}),
        ({"OMP_NUM_THREADS": "2"}, "plain", {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
        ({}, "numpy-first", {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}),
    ]
    for user, order, env in cases:
        base = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP, str(src), order],
            env={**base, **user},
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(proc.stdout)
        assert result["env"] == env, (user, order)
        if not result["preloaded"]:
            assert result["loaded"] == [], (user, order)


def test_ring_contradicting_family_exits_2(tmp_path):
    out = ["--out", str(tmp_path)]
    quintic = ["limits", "--family", "fermat-quartic", "--ring", "fermat:s=3,d=5,p=7"]
    assert main(quintic + ["--primes", "7"] + out) == 2
    assert not (tmp_path / "limits.json").exists()
    chang = ["colength", "--family", "chang-quartic", "--ring", "fermat:s=3,d=4,p=7"]
    assert main(chang + out) == 2
    assert not (tmp_path / "colength.csv").exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=chang-quartic\n", encoding="utf-8")
    assert main(["colength", "--config", str(cfg), "--ring", "fermat:s=3,d=4,p=7"] + out) == 2
    assert main(["colength", "--config", str(cfg), "--ring", "fermat:s=4,d=4,p=7"] + out) == 0


def test_default_profile_reaches_top_plateau_at_q3(tmp_path, capsys):
    # 3q twists end before the top plateau at q = 3; the default cutoff now
    # also covers q*nu_t + theta plus the plateau length
    out = ["--out", str(tmp_path)]
    assert main(["hn", "--family", "fermat-quartic", "--primes", "3"] + out) == 0
    assert "p=3 n=1 profile: (3/2,2) clean=True" in capsys.readouterr().out
    limits = ["limits", "--family", "fermat-quartic", "--primes", "3..13", "--n", "1,2"]
    assert main(limits + out) == 0
    rows = read_json(tmp_path / "limits.json")["rows"]
    assert [len(row["profile_estimates"]) for row in rows] == [2] * 5
    klein = "hypersurface:s=3,p=3,f=x^3*y+y^3*z+z^3*x"
    for ring, m_max in ((klein, 10), ("fermat:s=3,d=5,p=3", 12)):
        assert main(["hn", "--ring", ring] + out) == 0
        assert main(["profile", "--ring", ring] + out) == 0
        assert read_json(tmp_path / "profile.json")["profiles"][0]["m_max"] == m_max


def test_modulus_above_int64_bound_exits_2(tmp_path):
    out = ["--out", str(tmp_path)]
    assert main(["colength", "--ring", "fermat:s=3,d=4,p=4294967311"] + out) == 2
    assert (
        main(["colength", "--family", "fermat-quartic", "--primes", "4294967311"] + out)
        == 2
    )


def test_size_guard_exits_3(tmp_path):
    for command in ("colength", "profile"):
        rc = main(
            [
                command,
                "--family",
                "fermat-quartic",
                "--primes",
                "5",
                "--n",
                "1",
                "--cap",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 3, command


def test_hn_cap_guards_the_smoothness_matrix(tmp_path, capsys):
    args = ["hn", "--family", "fermat-quartic", "--primes", "7", "--out", str(tmp_path)]
    assert main(args + ["--cap", "44"]) == 3
    err = capsys.readouterr().err
    assert "degree 7" in err and "36x45" in err


def test_profile_cap_guards_only_the_colength_matrices(tmp_path):
    # the largest twists of q=37 (degree 80: 318x510) lie above the top of
    # R/m^[37] and need no matrix, so a cap of 500 no longer trips
    args = ["profile", "--family", "fermat-quartic", "--primes", "37"]
    assert main(args + ["--out", str(tmp_path / "default")]) == 0
    assert main(args + ["--cap", "500", "--out", str(tmp_path / "capped")]) == 0
    for name in ("profile.json", "profile.csv"):
        want = (tmp_path / "default" / name).read_bytes()
        assert (tmp_path / "capped" / name).read_bytes() == want


def test_colength_of_artinian_ring_with_every_generator_in_the_relation(
    tmp_path, capsys
):
    # x^7 lies in (x^3), so R/m^[7] = R = F_7[x]/(x^3), of length 3
    out = ["--out", str(tmp_path)]
    assert main(["colength", "--ring", "fermat:s=1,d=3,p=7"] + out) == 0
    assert "total=3" in capsys.readouterr().out
    # x^2 is not in (x^3): R/m^[2] = F_2[x]/(x^2)
    assert main(["colength", "--ring", "fermat:s=1,d=3,p=2"] + out) == 0
    assert "total=2" in capsys.readouterr().out


def test_math_errors_exit_1(tmp_path, capsys, monkeypatch):
    out = ["--out", str(tmp_path)]
    # principal ideal: not primary
    assert (
        main(
            ["colength", "--ring", "fermat:s=3,d=4,p=5", "--ideal", "x"] + out
        )
        == 1
    )
    # singular curve: every partial of the quartic vanishes mod 2, so S/J
    # is nonzero in degree 3*4 - 2
    capsys.readouterr()
    assert (
        main(
            ["hn", "--ring", "fermat:s=3,d=4,p=2", "--primes", "2", "--n", "1"]
            + out
        )
        == 1
    )
    assert "singular curve: the Jacobian quotient is nonzero in degree 10" in capsys.readouterr().err
    # underdetermined fit
    assert (
        main(
            ["convergence", "--family", "fermat-quartic", "--primes", "3,5", "--n", "1"]
            + out
        )
        == 1
    )
    # one generator has no syzygy bundle; the default --m-max divided by its
    # rank 0
    capsys.readouterr()
    for command in ("profile", "hn", "limits"):
        argv = [command, "--family", "fermat-quartic", "--primes", "7", "--ideal", "x"]
        assert main(argv + out) == 1
        assert "need at least two generators" in capsys.readouterr().err
    # the generic engine needs the standard grading
    assert main(["colength", "--family", "diagonal:2,3,5", "--primes", "7"] + out) == 1
    assert "colength needs equal exponents" in capsys.readouterr().err
    # a generator in the relation ideal has no syzygy bundle to profile
    argv = ["profile", "--family", "fermat-quartic", "--primes", "7", "--ideal", "x^4+y^4+z^4,x,y"]
    assert main(argv + out) == 1
    assert "a generator power vanishes on the curve" in capsys.readouterr().err
    # no reference value: rejected before the first colength is computed
    cache = tmp_path / "cache"
    argv = ["convergence", "--family", "diagonal:4,4,4", "--primes", "5,7,11"]
    assert main(argv + ["--cache", str(cache)] + out) == 1
    assert "unknown family" in capsys.readouterr().err
    assert not cache.exists() or not list(cache.iterdir())
    # the reference is the maximal ideal's e_HK: any other ideal is rejected
    # at its prime, before the first colength
    argv = ["convergence", "--family", "fermat-quartic", "--primes", "7,11,13"]
    assert main(argv + ["--ideal", "x^2,y,z", "--cache", str(cache)] + out) == 1
    assert "not --ideal x^2,y,z at p=7" in capsys.readouterr().err
    assert not cache.exists() or not list(cache.iterdir())
    assert not (tmp_path / "convergence.csv").exists()
    assert main(argv + ["--ideal", "11*x,y,z"] + out) == 1
    assert "at p=11" in capsys.readouterr().err
    # exponents above p, or unequal: rejected before any d_f bound
    for family, p in (("diagonal:4,4,4", "3"), ("diagonal:2,3,5", "5")):
        assert main(["sandwich", "--family", family, "--primes", p] + out) == 1
        assert f"not {family} at p={p}" in capsys.readouterr().err
    # ... at every prime of the grid, before the bounds of a valid one
    def bound(*args):
        pytest.fail("sandwich computed a bound before checking every prime")

    monkeypatch.setattr(hklab.diagonal, "d_f", bound)
    monkeypatch.setattr(hklab.diagonal, "normalized_colength", bound)
    assert main(["sandwich", "--family", "diagonal:5,5,5", "--primes", "7,3"] + out) == 1
    assert "not diagonal:5,5,5 at p=3" in capsys.readouterr().err


# -------------------------------------------------------------------- config


def test_config_file_fills_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment setup\n"
        "family=fermat-quartic\n"
        "primes=3,5,7\n"
        "n=1\n"
        f"out={tmp_path / 'from_cfg'}\n",
        encoding="utf-8",
    )
    assert main(["convergence", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_cfg" / "convergence.csv").exists()


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=fermat-quartic\nprimes=3,5,7\nn=2\n", encoding="utf-8")
    rc = main(
        ["convergence", "--config", str(cfg), "--n", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "convergence.csv")
    assert {r["n"] for r in rows} == {"1"}


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery=1\n", encoding="utf-8")
    assert main(["colength", "--config", str(cfg)]) == 2
    cfg.write_text("family fermat-quartic\n", encoding="utf-8")
    assert main(["colength", "--config", str(cfg)]) == 2
    # a valid run plus a key for a flag profile does not take
    cfg.write_text(
        f"family=fermat-quartic\nprimes=5\nout={tmp_path}\ncache=c\n",
        encoding="utf-8",
    )
    assert main(["profile", "--config", str(cfg)]) == 2
    assert main(["colength", "--config", str(tmp_path / "missing.cfg")]) == 2
    # a value the flag's type rejects
    cfg.write_text(
        f"family=fermat-quartic\nprimes=5\nout={tmp_path}\njobs=two\n",
        encoding="utf-8",
    )
    assert main(["colength", "--config", str(cfg)]) == 2
    # a profile flag for a limits family that computes no profile
    cfg.write_text(
        f"family=chang-quartic\nprimes=5\nout={tmp_path}\nm-max=3\n",
        encoding="utf-8",
    )
    assert main(["limits", "--config", str(cfg)]) == 2
    # a key given twice
    cfg.write_text(
        f"family=fermat-quartic\nprimes=7\nprimes=11\nout={tmp_path}\n",
        encoding="utf-8",
    )
    assert main(["colength", "--config", str(cfg)]) == 2
