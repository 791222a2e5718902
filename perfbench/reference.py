"""Independent reference and output checkers for the benchmark workloads.

Nothing here imports ``sternseq``: the reference values come from the
pair recurrence over the bits of ``n``, a plain Fibonacci loop and a
numpy doubling of the sequence, so a fault in the package cannot also
hide in its own check.

Every checker takes the child's exit code, the path of its standard
output and a seed for the sampled checks, and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import random
import re
import sys
import warnings

import numpy as np

SAMPLED_LINES = 64
_BLOCK_BYTES = 8 << 20


def stern(n: int) -> int:
    """``a(n)`` by the pair recurrence ``(a(m), a(m+1))`` over the bits of ``n``."""
    lo, hi = 0, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            lo += hi
        else:
            hi += lo
    return lo


def fibonacci_table(n: int) -> list[int]:
    """``[F(0), ..., F(n)]``."""
    table = [0, 1]
    while len(table) <= n:
        table.append(table[-1] + table[-2])
    return table[: n + 1]


def record_count(k: int) -> int:
    """The paper's count of k-bit record-setters, valid from 12 bits on."""
    return 3 * k // 4 - (-1) ** k


def stern_row(count: int) -> np.ndarray:
    """``a(0) .. a(count - 1)`` by doubling: ``a(2n) = a(n)``, ``a(2n+1) = a(n) + a(n+1)``."""
    row = np.array([0, 1], dtype=np.int64)
    while row.size < count:
        doubled = np.empty(2 * row.size - 1, dtype=np.int64)
        doubled[0::2] = row
        doubled[1::2] = row[:-1] + row[1:]
        row = doubled
    return row[:count]


def _decimal_digits(values: np.ndarray) -> np.ndarray:
    powers = 10 ** np.arange(1, 19, dtype=np.int64)
    return np.searchsorted(powers, values, side="right") + 1


def _small_records() -> list[tuple[int, int]]:
    """``(index, a(index))`` of every record-setter in ``1 .. 2**11 - 1``."""
    row = stern_row(1 << 11).tolist()
    records, best = [], row[0]
    for index in range(1, len(row)):
        if row[index] > best:
            best = row[index]
            records.append((index, best))
    return records


def _sample(seed: int, count: int) -> list[int]:
    """Line numbers to check by recurrence: the first, the last and a seeded sample."""
    picked = random.Random(seed).sample(range(count), min(SAMPLED_LINES, count))
    return sorted({0, count - 1, *picked})


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="ascii", errors="replace") as fh:
        return fh.read().splitlines()


def check_verify(exit_code: int, path: str, seed: int, *, lo: int, hi: int) -> list[str]:
    """``verify --k-range lo..hi`` with all five suites (``lo >= 12``)."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    expected_counts = {
        "crossval": hi - lo + 1,
        "substrings": sum(record_count(k) for k in range(12, hi + 1)),
    }
    suites = []
    for line in _read_lines(path):
        if line.startswith("  note: "):
            continue
        match = re.fullmatch(r"(\w+) +(PASS|FAIL)  checked=(\d+)", line)
        if not match:
            problems.append(f"unexpected line {line[:80]!r}")
            continue
        suite, status, checked = match.group(1), match.group(2), int(match.group(3))
        suites.append(suite)
        if status != "PASS":
            problems.append(f"suite {suite} reports {status}")
        if suite in expected_counts and checked != expected_counts[suite]:
            problems.append(f"{suite} checked={checked}, expected {expected_counts[suite]}")
    if suites != ["tables", "identities", "substrings", "extremal", "crossval"]:
        problems.append(f"suite lines {suites}, expected the five suites in order")
    return problems


def check_closed_form_bits(exit_code: int, path: str, seed: int, *, k: int) -> list[str]:
    """``records --bits k --source closed-form --format bfile`` for ``k >= 12``."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    lines = _read_lines(path)
    if len(lines) != record_count(k):
        return problems + [f"{len(lines)} lines, expected {record_count(k)}"]
    try:
        rows = [tuple(map(int, line.split(" "))) for line in lines]
    except ValueError as exc:
        return problems + [f"unparsable line: {exc}"]
    if any(len(row) != 2 for row in rows):
        return problems + ["a line does not hold exactly 'index value'"]
    fib = fibonacci_table(k + 1)
    for (i0, v0), (i1, v1) in zip(rows, rows[1:]):
        if not (i0 < i1 and v0 < v1):
            problems.append(f"index {i1} does not follow {i0} with a larger index and value")
            break
    if any(index.bit_length() != k for index, _ in rows):
        problems.append(f"an index is not exactly {k} bits long")
    if rows[0][1] <= fib[k]:
        problems.append(f"first value does not exceed F({k}), the maximum of shorter indices")
    if rows[-1][1] != fib[k + 1]:
        problems.append(f"last value is not F({k + 1}), the row maximum")
    for line_no in _sample(seed, len(rows)):
        index, value = rows[line_no]
        if stern(index) != value:
            problems.append(f"line {line_no + 1}: value differs from a({index})")
    return problems


def check_closed_form_sweep(exit_code: int, path: str, seed: int, *, max_bits: int) -> list[str]:
    """``records --max-bits K --source closed-form --format jsonlines``."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    rows = []
    try:
        for line in _read_lines(path):
            doc = json.loads(line)
            rows.append((int(doc["index"]), doc["bits"], int(doc["value"]), doc["k"]))
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unparsable line: {exc!r}"]
    if not rows:
        return problems + ["empty listing"]
    fib = fibonacci_table(max_bits + 1)
    per_k: dict[int, list[int]] = {}
    previous = -1
    for index, bits, value, k in rows:
        if value <= previous:
            problems.append(f"value at index {index} is not a new record")
            break
        previous = value
        if bits != format(index, "b") or k != len(bits):
            problems.append(f"row of index {index}: bits or k do not match the index")
            break
        per_k.setdefault(k, []).append(value)
    if sorted(per_k) != list(range(1, max_bits + 1)):
        problems.append(f"bit lengths listed are not exactly 1..{max_bits}")
    small = _small_records()
    if [(i, v) for i, _, v, k in rows if k < 12] != small:
        problems.append("rows below 12 bits differ from a brute-force scan")
    for k, values in per_k.items():
        if k >= 12 and len(values) != record_count(k):
            problems.append(f"{len(values)} rows of {k} bits, expected {record_count(k)}")
        if values[-1] != fib[k + 1]:
            problems.append(f"last {k}-bit value is not F({k + 1}), the row maximum")
    for line_no in _sample(seed, len(rows)):
        index, _, value, _ = rows[line_no]
        if stern(index) != value:
            problems.append(f"line {line_no + 1}: value differs from a({index})")
    return problems[:20]


def check_plot(exit_code: int, path: str, seed: int, *, max_n: int) -> list[str]:
    """``plot --max N`` in the default csv format: rows ``n,a(n),max a(0..n)``.

    Compares every row with the numpy reference; the seed is unused
    because the whole output is checked.
    """
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    count = max_n + 1
    values = stern_row(count)
    running = np.maximum.accumulate(values)
    index = np.arange(count, dtype=np.int64)
    expected_bytes = int(
        (_decimal_digits(index) + _decimal_digits(values) + _decimal_digits(running)).sum()
    ) + 3 * count
    row = 0
    size = 0
    with open(path, "rb") as fh:
        tail = b""
        while True:
            block = fh.read(_BLOCK_BYTES)
            data = tail + block
            cut = data.rfind(b"\n") + 1 if block else len(data)
            data, tail = data[:cut], data[cut:]
            if not data:
                break
            size += len(data)
            lines = data.count(b"\n") + (0 if data.endswith(b"\n") else 1)
            if data.count(b",") != 2 * lines or b" " in data:
                return problems + [f"a line near row {row} is not 'n,a,m'"]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    parsed = np.fromstring(data.replace(b",", b" "), dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning):
                return problems + [f"unparsable rows near row {row}"]
            if parsed.size != 3 * lines:
                return problems + [f"a line near row {row} does not hold three numbers"]
            got = parsed.reshape(-1, 3)
            end = row + len(got)
            if end > count:
                return problems + [f"more than {count} rows"]
            bad = np.flatnonzero(
                (got[:, 0] != index[row:end])
                | (got[:, 1] != values[row:end])
                | (got[:, 2] != running[row:end])
            )
            if bad.size:
                return problems + [f"row {row + int(bad[0])} differs from the reference"]
            row = end
    if row != count:
        problems.append(f"{row} rows, expected {count}")
    elif size != expected_bytes:
        problems.append(f"{size} bytes, expected {expected_bytes}")
    return problems


if __name__ == "__main__":
    # reference.py CHECKER PARAMS_JSON EXIT_CODE OUTPUT_PATH SEED -> JSON list of problems
    checker, params, exit_code, path, seed = sys.argv[1:]
    found = globals()[checker](int(exit_code), path, int(seed), **json.loads(params))
    print(json.dumps(found))
