"""Tests of the benchmark's own output checkers.

Each checker must accept a real ``sternseq`` output and reject the same
output with one altered value, with one dropped line, and with a wrong
exit code.  Run from the root of a source tree::

    python3 -m pytest -q perfbench/test_checkers.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import reference
from run import CLI, child_env

SEED = 20240517


def _bump_bfile(lines: list[str], at: int) -> None:
    index, value = lines[at].split(" ")
    lines[at] = f"{index} {int(value) + 1}"


def _bump_jsonlines(lines: list[str], at: int) -> None:
    doc = json.loads(lines[at])
    doc["value"] = str(int(doc["value"]) + 1)
    lines[at] = json.dumps(doc)


def _bump_plot(lines: list[str], at: int) -> None:
    n, value, running = lines[at].split(",")
    lines[at] = f"{n},{int(value) + 1},{running}"


def _bump_verify(lines: list[str], at: int) -> None:
    lines[at] = lines[at].replace("checked=", "checked=1")


def _middle_sampled(count: int) -> int:
    """A middle line that the seeded sample recomputes."""
    sample = reference._sample(SEED, count)
    return sample[len(sample) // 2]


CASES = {
    "verify": (
        ["verify", "--k-range", "12..14"],
        lambda code, path: reference.check_verify(code, path, SEED, lo=12, hi=14),
        _bump_verify,
        lambda lines: next(i for i, line in enumerate(lines) if line.startswith("crossval")),
    ),
    "closed-form-bits": (
        ["records", "--bits", "300", "--source", "closed-form", "--format", "bfile"],
        lambda code, path: reference.check_closed_form_bits(code, path, SEED, k=300),
        _bump_bfile,
        lambda lines: _middle_sampled(len(lines)),
    ),
    "closed-form-sweep": (
        ["records", "--max-bits", "60", "--source", "closed-form", "--format", "jsonlines"],
        lambda code, path: reference.check_closed_form_sweep(code, path, SEED, max_bits=60),
        _bump_jsonlines,
        lambda lines: _middle_sampled(len(lines)),
    ),
    "plot": (
        ["plot", "--max", "5000"],
        lambda code, path: reference.check_plot(code, path, SEED, max_n=5000),
        _bump_plot,
        lambda lines: len(lines) // 2,
    ),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, tmp_path_factory):
    cli_args, check, bump, pick = CASES[request.param]
    done = subprocess.run(
        [sys.executable, "-c", CLI, *cli_args],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.splitlines(), check, bump, pick, tmp_path_factory.mktemp(request.param)


def _write(directory, lines: list[str]) -> str:
    path = directory / "out.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_real_output_passes(case):
    lines, check, _, _, directory = case
    assert check(0, _write(directory, lines)) == []


def test_altered_value_fails(case):
    lines, check, bump, pick, directory = case
    corrupted = list(lines)
    bump(corrupted, pick(corrupted))
    assert check(0, _write(directory, corrupted))


def test_dropped_line_fails(case):
    lines, check, _, pick, directory = case
    corrupted = list(lines)
    del corrupted[pick(corrupted)]
    assert check(0, _write(directory, corrupted))


def test_wrong_exit_code_fails(case):
    lines, check, _, _, directory = case
    assert check(1, _write(directory, lines))


def test_stern_reference_matches_doubled_row():
    row = reference.stern_row(1 << 12)
    assert [reference.stern(n) for n in range(1 << 12)] == row.tolist()
