"""Byte-for-byte pins on every ``--out`` file of all seven subcommands.

The digests were recorded once from the CLI on these small inputs; a
refactor that keeps the engine's results must keep every byte.  The
``convergence_fit.json`` floats come from a LAPACK least-squares solve, so
its digest also assumes the same float results from numpy's BLAS build.
"""

import hashlib

import pytest

from hklab.cli import main

GOLDEN = {
    "colength-jobs2": (
        ["colength", "--family", "fermat-quartic", "--primes", "3,5,7", "--n", "1", "--jobs", "2"],
        {
            "colength.csv": "e8f46e072a0836acb7628089eac07b67b11d7ccf897dc1b0a2ce3c7700878622",
            "colength.json": "6dc5267c6e0f0afaa11a63cd62ba623ce85bba552922d18662851f9b0ae61b34",
        },
    ),
    "colength-ring": (
        ["colength", "--ring", "fermat:s=3,d=4,p=5", "--ideal", "x^2,y^2,z^2", "--n", "1,2"],
        {
            "colength.csv": "cd57277c493f3bfb2ac40707a9da3385b6ce81da59d8295102d2adb728722ee1",
            "colength.json": "4adf8d6ff5cdbd0937dde08cf24af5cdba64b57754b060a37f3c338a4b8f6985",
        },
    ),
    "profile": (
        ["profile", "--family", "fermat-quartic", "--primes", "5", "--n", "1"],
        {
            "profile.csv": "b0d723e7bb3537423013fe19b24859095b91e8bd92b4a62eb35ac544c63d173d",
            "profile.json": "3a746ac24abf5b8801fa4e1afde07f5ecec90f9f667d20affb51e590bebd2469",
        },
    ),
    "hn": (
        ["hn", "--family", "fermat-quartic", "--primes", "5,7", "--n", "1"],
        {
            "hn.csv": "311f76c1024876aa45d1dde46b5746cb20534281ac28f439d3849ca95e512e3e",
            "hn.json": "07d4b78f5810f7d8e110bfc24d5a5646b1df0ef0cfe89c1f34cbe454a4cd39dd",
        },
    ),
    "limits": (
        ["limits", "--family", "fermat-quartic", "--primes", "5,7", "--n", "1"],
        {
            "limits.json": "2c6766e7f04ac26366a3c9fffed57dbdaee2db5c94d7da06f6580e3c6faf3d9d",
        },
    ),
    "sandwich": (
        ["sandwich", "--family", "diagonal:2,2,2", "--primes", "5,7", "--n", "1,2"],
        {
            "sandwich.csv": "8cbc1319ee086ecc1595c771e8d575aeda8293ef5298b54d30fc344ed9ff54d6",
            "sandwich.json": "242fb02a7d0520f012b93442ce68f3523d287f317392ae88c11418e29521d354",
        },
    ),
    "convergence": (
        ["convergence", "--family", "fermat-quartic", "--primes", "3,5,7", "--n", "1"],
        {
            "convergence.csv": "8d73c30dc533fdd32022ab34aab523ee1fe42d2909a914f52a42dfecd06b91b2",
            "convergence_fit.json": "04988203108ba0fbca5ef0d0adf263d561f1d29b3297b22f793615a363c11ae4",
        },
    ),
    "gm": (
        ["gm", "--d", "4,4,4,4"],
        {
            "gm.json": "89654ecde9c751dea3c2a60c2f2e234ab2f25d6de6129f80408e9222613af28e",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_out_files_match_golden_digests(case, tmp_path):
    argv, expected = GOLDEN[case]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert got == expected
