"""Acceptance suite: one test per exit criterion, exact tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in the captured output of a failure).  All comparisons are on exact
integers; the stated runtime ceilings are asserted as well.
"""

import random
import resource
import time

from sternseq import (
    audit_substring_properties,
    fib,
    g_split,
    g_value,
    hyperbinary_count_dp,
    hyperbinary_enumerate,
    mu_of,
    records,
    records_scan,
    stern_a,
    stern_range,
    stern_s,
    verify_extremal_lemmas,
)
from sternseq.cli import main
from sternseq.closedform import kbit_rows, scan_listing
from sternseq.tables import FIRST_RECORDS, SMALL_BITLENGTH_RECORDS


def _report(capsys, criterion: int, description: str, ok: bool, elapsed: float, limit: float | None):
    within = limit is None or elapsed <= limit
    status = "PASS" if ok and within else "FAIL"
    budget = f", limit {limit:.0f}s" if limit is not None else ""
    with capsys.disabled():
        print(f"criterion {criterion:02d} [{status}] {description} ({elapsed:.2f}s{budget})")
    assert ok, f"criterion {criterion} failed: {description}"
    assert within, f"criterion {criterion} exceeded its runtime limit: {elapsed:.2f}s > {limit}s"


def test_c01_table_of_initial_values(capsys):
    start = time.perf_counter()
    code = main(["table", "1"])
    out = capsys.readouterr().out.splitlines()
    values = [int(line.split()[1]) for line in out]
    ok = code == 0 and values == [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4]
    _report(capsys, 1, "table 1 emits a(0..15) exactly", ok, time.perf_counter() - start, 1.0)


def test_c02_first_record_setters(capsys):
    start = time.perf_counter()
    pairs = records_scan(8, "A")
    # The reference table lists the first 18 records; they are exactly
    # the records with index <= 147 (the scan legitimately continues
    # with 149, 165, 171 below 2**8).
    ok = (
        pairs[: len(FIRST_RECORDS)] == list(FIRST_RECORDS)
        and [p for p in pairs if p[0] <= 147] == list(FIRST_RECORDS)
    )
    _report(capsys, 2, "scan reproduces the 18 reference record pairs", ok, time.perf_counter() - start, 1.0)


def test_c03_per_bitlength_records_below_twelve(capsys):
    start = time.perf_counter()
    ok = True
    for k, found in scan_listing(range(1, 12)):
        expected = SMALL_BITLENGTH_RECORDS[k]
        ok = ok and tuple(format(index, "b") for index, *_ in found) == expected
        ok = ok and [index for index, *_ in found] == [int(bits, 2) for bits in expected]
    _report(capsys, 3, "per-bit-length records for k < 12 match the reference", ok, time.perf_counter() - start, 1.0)


def test_c04_classification_equivalence_to_24_bits(capsys):
    start = time.perf_counter()
    records._records_scan_cached.cache_clear()
    ok = True
    for k, scanned in scan_listing(range(12, 25)):
        closed = list(kbit_rows(k))
        ok = ok and len(closed) == len(scanned) == (3 * k) // 4 - (-1) ** k
        ok = ok and all(
            index == at and value == found and family.bits(k // 2, p) == format(at, "b")
            for (index, value, family, p), (at, found, _, _) in zip(closed, scanned)
        )
    ok = ok and records._records_scan_cached.cache_info().misses == 1  # one scan for all k
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = ok and peak_mib <= 256
    _report(capsys, 4, "closed forms equal brute force for 12 <= k <= 24", ok, time.perf_counter() - start, 120.0)


def test_c05_hyperbinary_equivalences(capsys):
    start = time.perf_counter()
    shifted = stern_range(1, (1 << 16) + 1)
    ok = all(hyperbinary_count_dp(n) == int(shifted[n]) for n in range(1 << 16))
    ok = ok and all(
        len(hyperbinary_enumerate(n)) == int(shifted[n]) for n in range(4096 + 1)
    )
    _report(capsys, 5, "digit DP and enumeration both count s(n)", ok, time.perf_counter() - start, 30.0)


def test_c06_matrix_calculus_on_random_strings(capsys):
    start = time.perf_counter()
    rng = random.Random(1858)
    ok = True
    for _ in range(10_000):
        len_x = rng.randint(0, 12)
        x = "".join(rng.choice("01") for _ in range(len_x))
        y = "".join(rng.choice("01") for _ in range(rng.randint(0, 24 - len_x)))
        ok = ok and mu_of(x + y) == mu_of(x) * mu_of(y)
        ok = ok and g_split(x, y) == g_value(x + y)
        z = "".join(rng.choice("01") for _ in range(rng.randint(0, 20)))
        ok = ok and g_value(z) == stern_s(int(z, 2) if z else 0)
        if not ok:
            break
    _report(capsys, 6, "matrix homomorphism, split identity, G = s on 10^4 samples", ok, time.perf_counter() - start, 10.0)


def test_c07_fibonacci_identities(capsys):
    start = time.perf_counter()
    ok = True
    for i in range(1, 41):
        block = "10" * i
        ok = ok and g_value(block) == fib(2 * i + 1)
        ok = ok and g_value(block + "0") == fib(2 * i + 2)
        ok = ok and g_value("1" + block) == fib(2 * i + 2)
        ok = ok and g_value("1" + block + "0") == fib(2 * i + 3)
        ok = ok and mu_of(block).rows == (
            (fib(2 * i + 1), fib(2 * i)),
            (fib(2 * i), fib(2 * i - 1)),
        )
    _report(capsys, 7, "Fibonacci value identities for 1 <= i <= 40", ok, time.perf_counter() - start, None)


def test_c08_closed_form_indices_and_values(capsys):
    start = time.perf_counter()
    ok = True
    for k in range(12, 41):
        for index, value, family, p in kbit_rows(k):
            ok = ok and index == int(family.bits(k // 2, p), 2)
            if k <= 24:
                ok = ok and value == stern_a(index)
            else:
                ok = ok and value == g_value(format(index - 1, "b"))
    _report(capsys, 8, "closed-form indices and values exact for 12 <= k <= 40", ok, time.perf_counter() - start, None)


def test_c09_substring_audit_to_24_bits(capsys):
    start = time.perf_counter()
    report = audit_substring_properties(24)
    ok = (
        report.violations == []
        and (72, "allowed-exception-1001000") in report.informational
    )
    _report(capsys, 9, "no 11/10000/interior-1000 among records of 12..24 bits", ok, time.perf_counter() - start, None)


def test_c10_extremal_lemmas(capsys):
    start = time.perf_counter()
    report = verify_extremal_lemmas(8)
    ok = report.violations == []
    _report(capsys, 10, "exhaustive extremal checks report zero failures", ok, time.perf_counter() - start, 60.0)
