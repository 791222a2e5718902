"""The verification suites run by ``sternseq verify``.

:data:`SUITES` maps each suite name, in run order, to its check
``(lo, hi) -> AuditReport`` over the bit-length range ``lo..hi``.  The
suites:

    tables      the frozen reference tables against the recurrence and the scan
    identities  the transfer-matrix identities on seeded random strings, the
                Fibonacci value identities and the pinned dominance witnesses
    substrings  the structural substring audit of all records below ``2**hi``
    extremal    the exhaustive extremal lemmas about 10/100-block strings of up
                to about ``hi`` digits, and never fewer than 34
    crossval    the closed-form families against one brute-force scan
"""

from __future__ import annotations

import random

from .closedform import cross_validate, scan_listing
from .core import stern_a, stern_s
from .fibonacci import fib
from .records import (
    AuditReport,
    audit_substring_properties,
    records_scan,
    verify_dominance_witnesses,
    verify_extremal_lemmas,
)
from .strings import g_split, g_value, mu_of
from .tables import (
    FIRST_RECORDS,
    FIRST_RECORDS_BITS,
    INITIAL_VALUES,
    SMALL_BITLENGTH_MAX,
    SMALL_BITLENGTH_RECORDS,
)

__all__ = ["SUITES"]

IDENTITY_SAMPLES = 10_000
IDENTITY_SEED = 20220926


def _tables(lo: int, hi: int) -> AuditReport:
    """The reference tables, with the per-bit-length table restricted to ``lo..hi``."""
    violations = [
        (n, f"a({n}) = {stern_a(n)}, reference says {expected}")
        for n, expected in enumerate(INITIAL_VALUES)
        if stern_a(n) != expected
    ]
    checked = len(INITIAL_VALUES) + len(FIRST_RECORDS)
    if records_scan(FIRST_RECORDS_BITS, "A")[: len(FIRST_RECORDS)] != list(FIRST_RECORDS):
        violations.append((0, "first record-setters do not match the reference list"))
    for k, rows in scan_listing(range(lo, min(hi, SMALL_BITLENGTH_MAX) + 1)):
        found = tuple(format(index, "b") for index, *_ in rows)
        checked += len(found)
        if found != SMALL_BITLENGTH_RECORDS[k]:
            violations.append(
                (1 << (k - 1), f"{k}-bit record-setters do not match the reference list")
            )
    return AuditReport(violations, checked)


def _random_binary(rng: random.Random, max_len: int) -> str:
    """A uniform binary string of ``0..max_len`` digits, leading zeros kept."""
    length = rng.randint(0, max_len)
    return format(rng.getrandbits(length), f"0{length}b") if length else ""


def _identities() -> AuditReport:
    """Identities of the string calculus, keyed by the integer value of the string."""
    violations = []
    rng = random.Random(IDENTITY_SEED)
    for _ in range(IDENTITY_SAMPLES):
        x = _random_binary(rng, 12)
        y = _random_binary(rng, 24 - len(x))
        xy = int(x + y or "0", 2)
        if mu_of(x + y) != mu_of(x) * mu_of(y):
            violations.append((xy, f"matrix homomorphism fails for {x!r} + {y!r}"))
        if g_split(x, y) != g_value(x + y):
            violations.append((xy, f"split identity fails for {x!r} + {y!r}"))
        z = _random_binary(rng, 20)
        n = int(z or "0", 2)
        if g_value(z) != stern_s(n):
            violations.append((n, f"g_value({z!r}) disagrees with the shifted sequence"))
    fibonacci_blocks = range(1, 41)
    for i in fibonacci_blocks:
        block = "10" * i
        ok = (
            g_value(block) == fib(2 * i + 1)
            and g_value(block + "0") == fib(2 * i + 2)
            and g_value("1" + block) == fib(2 * i + 2)
            and g_value("1" + block + "0") == fib(2 * i + 3)
            and mu_of(block).rows
            == ((fib(2 * i + 1), fib(2 * i)), (fib(2 * i), fib(2 * i - 1)))
        )
        if not ok:
            violations.append((int(block, 2), f"Fibonacci value identities fail for (10)^{i}"))
    witnesses = verify_dominance_witnesses()
    return AuditReport(
        violations + witnesses.violations,
        IDENTITY_SAMPLES + len(fibonacci_blocks) + witnesses.checked_count,
    )


# Each check looks its function up by name when called, so that a function
# replaced on this module (by a test or a tracer) is the one that runs.
SUITES = {
    "tables": lambda lo, hi: _tables(lo, hi),
    "identities": lambda lo, hi: _identities(),
    "substrings": lambda lo, hi: audit_substring_properties(hi),
    "extremal": lambda lo, hi: verify_extremal_lemmas(max(8, (hi - 2) // 4)),
    "crossval": lambda lo, hi: cross_validate(lo, hi),
}
