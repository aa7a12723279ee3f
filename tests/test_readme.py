"""The README's library example and typical runs work as written."""

import re
import shlex
from pathlib import Path

import pytest

from hklab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


TYPICAL_RUNS = [
    shlex.split(line)[1:]
    for line in re.search(r"Typical runs:\n\n```sh\n(.*?)```", TEXT, re.S)
    .group(1)
    .splitlines()
    if line.startswith("hk-lab ")
]


def test_readme_lists_typical_runs():
    assert TYPICAL_RUNS


# each run is named by its subcommand; a subcommand's later runs add their
# position, so adding a run renames no earlier one
RUN_IDS = [
    argv[0] if all(run[0] != argv[0] for run in TYPICAL_RUNS[:i]) else f"{argv[0]}-{i}"
    for i, argv in enumerate(TYPICAL_RUNS)
]


@pytest.mark.parametrize("argv", TYPICAL_RUNS, ids=RUN_IDS)
def test_readme_typical_run_exits_0(argv, tmp_path):
    out = argv.index("--out")
    assert main([*argv[:out], "--out", str(tmp_path), *argv[out + 2 :]]) == 0
