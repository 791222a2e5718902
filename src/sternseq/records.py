"""Brute-force search for record-setters and exhaustive lemma audits.

A record-setter is an index whose value strictly exceeds every earlier
value.  Two indexing conventions coexist: "A" records the diatomic
sequence ``a`` itself (OEIS A212288), "S" records the shifted sequence
``s(n) = a(n+1)``.  The "S" record-setters are the "A" ones from index 1
on, each moved down by one with its value; only :func:`records_scan` and
:func:`shifted_listing` apply that map.

The scan here is deliberately dumb (linear, windowed) so it can act
as ground truth for the closed-form classification and for the
structural properties of record-setters: no ``11`` substring, no
``10000`` substring, ``1000`` only as a prefix, and decomposability
into 10/100/1000 blocks.  :func:`verify_extremal_lemmas` exhaustively
checks the extremal value facts about 10/100-block strings that the
classification rests on.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sequence
from functools import lru_cache
from typing import Literal, NamedTuple

from .budget import check_bits_budget
from .core import running_windows
from .fibonacci import fib
from .strings import Comparator, dominates, g_value, mu_of
from .tables import SMALL_BITLENGTH_MAX

__all__ = [
    "AuditReport",
    "DOMINANCE_WITNESSES",
    "DominanceWitness",
    "audit_substring_properties",
    "records_scan",
    "shifted_listing",
    "verify_dominance_witnesses",
    "verify_extremal_lemmas",
]

#: Bit length from which the structural substring properties are
#: asserted unconditionally, the first one the closed forms cover;
#: smaller record-setters may violate them (e.g. "11" itself) and are
#: only reported informationally.
HARD_AUDIT_MIN_BITS = SMALL_BITLENGTH_MAX + 1

#: The single record-setter allowed to carry "1000" away from the front.
INTERIOR_1000_EXCEPTION = "1001000"

_BLOCKS_RE = re.compile(r"(?:10{1,3})+")


@lru_cache(maxsize=8)
def _records_scan_cached(k_max: int) -> tuple[tuple[int, int], ...]:
    import numpy as np

    records = [(0, 0)]
    for lo, _, running in running_windows(1, 1 << k_max):
        top = records[-1][1]  # the running maximum before the window
        if running[-1] > top:
            rises = np.flatnonzero(np.insert(running[1:] > running[:-1], 0, running[0] > top))
            records.extend(zip((rises + lo).tolist(), running[rises].tolist()))
    return tuple(records)


def records_scan(k_max: int, convention: Literal["A", "S"] = "A") -> list[tuple[int, int]]:
    """The ``(index, value)`` of every record-setter with index below ``2**k_max``, in index order.

    Index 0 is included in both conventions (value 0 for "A", 1 for
    "S").  Both read one scan of ``a`` below ``2**k_max``: the "S" records
    are its records from index 1 on, each moved down by one.  This is
    exact: an "S" scan reads ``a(1 .. 2**k_max)``, and ``a(2**k_max) = 1``
    is never a record, since ``a(1) = 1`` comes first.  Raises
    ``BudgetExceededError`` when ``k_max`` exceeds the ceiling on index bits.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if convention not in ("A", "S"):
        raise ValueError(f"convention must be 'A' or 'S', got {convention!r}")
    check_bits_budget(k_max, f"scan of all indices below 2**{k_max}")
    scan = _records_scan_cached(k_max)
    if convention == "A":
        return list(scan)
    return [(index - 1, value) for index, value in scan[1:]]


def shifted_listing(source, k_values: range):
    """The "S" listing of the s-index bit lengths ``k_values``, from an "A" listing.

    ``source(range)``, such as :func:`~sternseq.closedform.scan_listing`, is
    called now, for the "A" bit lengths: 1 for s-index 0, none for 1 bit and
    ``k`` for ``k >= 2``.  As a row is read, its index moves down by one,
    exactly for :func:`~sternseq.closedform.kbit_listing`'s decimal rows too,
    and its family's pattern ends in 0, not 1; ``k`` 1 becomes 0.
    """
    ks = [k or 1 for k in k_values if k != 1]
    listing = source(range(min(ks, default=1), max(ks, default=0) + 1))
    return ((k if k > 1 else 0, _shifted_rows(rows)) for k, rows in listing)


def _shifted_rows(rows):
    run = shifted = None  # one pattern-flipped family for each run of a family
    for index, value, family, parameter in rows:
        if family is not run:
            run, shifted = family, family and family._replace(
                bits=lambda n, p, bits=family.bits: bits(n, p)[:-1] + "0"
            )
        yield index - 1, value, shifted, parameter


class AuditReport(NamedTuple):
    """Outcome of an exhaustive property audit.

    ``violations`` holds ``(index, property)`` pairs for hard failures;
    an empty list means every audited property held.  ``informational``
    collects expected small-size exceptions that are reported but not
    counted as failures; it defaults to the empty tuple.
    """

    violations: list[tuple[int, str]]
    checked_count: int
    informational: Sequence[tuple[int, str]] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _substring_violations(bits: str) -> list[str]:
    problems = []
    if "11" in bits:
        problems.append("contains-11")
    if "10000" in bits:
        problems.append("contains-10000")
    if "1000" in bits[1:]:
        problems.append("interior-1000")
    if not _BLOCKS_RE.fullmatch(bits):
        problems.append("not-10/100/1000-blocks")
    return problems


def audit_substring_properties(k_max: int) -> AuditReport:
    """Check the structural substring properties of s-convention records.

    For every record-setter with bit length in ``[12, k_max]`` the
    properties are hard assertions and any failure lands in
    ``violations``.  Below 12 bits the same checks run informationally;
    the only expected finding there is the 7-bit record 1001000, whose
    interior 1000 is a known one-off exception.
    """
    violations: list[tuple[int, str]] = []
    informational: list[tuple[int, str]] = []
    checked = 0
    for index, _ in records_scan(k_max, "S")[1:]:
        bits = format(index, "b")
        problems = _substring_violations(bits)
        if len(bits) >= HARD_AUDIT_MIN_BITS:
            checked += 1
            violations.extend((index, p) for p in problems)
        else:
            for p in problems:
                if bits == INTERIOR_1000_EXCEPTION and p == "interior-1000":
                    informational.append((index, "allowed-exception-1001000"))
                else:
                    informational.append((index, p))
    return AuditReport(violations, checked, informational)


class DominanceWitness(NamedTuple):
    """A pinned replacement argument: ``smaller`` dominates ``excluded``.

    ``pinned_smaller``/``pinned_excluded`` freeze the entries of each
    string's matrix that ``kind`` compares (:meth:`Comparator.entries`).
    """

    kind: Comparator
    smaller: str
    excluded: str
    pinned_smaller: tuple[int, ...]
    pinned_excluded: tuple[int, ...]


_INF, _PRE, _SUF = Comparator.INFIX, Comparator.PREFIX, Comparator.SUFFIX

#: The concrete comparisons behind the structural exclusions: anything
#: containing 111 or 11 or 10000, or carrying 1000/1001000/10001000 away
#: from the front, can be replaced by a smaller string without lowering
#: the value, so it never sets a record.  A witness need not satisfy the
#: exclusions itself (one of them contains "110").
DOMINANCE_WITNESSES: tuple[DominanceWitness, ...] = (
    DominanceWitness(_INF, "101", "111", (2, 3, 1, 2), (1, 3, 0, 1)),
    DominanceWitness(_SUF, "10100", "11010", (8, 5), (8, 3)),
    DominanceWitness(_PRE, "1010", "10000", (5, 3), (5, 1)),
    DominanceWitness(_INF, "1000100", "1010000", (14, 5, 11, 4), (14, 3, 9, 2)),
    DominanceWitness(_INF, "10001000", "10010000", (19, 5, 15, 4), (19, 4, 14, 3)),
    DominanceWitness(_INF, "10010010", "100010000", (26, 15, 19, 11), (24, 5, 19, 4)),
    DominanceWitness(_INF, "100100", "101000", (11, 4, 8, 3), (11, 3, 7, 2)),
    DominanceWitness(_INF, "100100100", "101001000", (41, 15, 30, 11), (41, 11, 26, 7)),
    DominanceWitness(_INF, "1000101010", "1001001000", (60, 37, 47, 29), (56, 15, 41, 11)),
    DominanceWitness(_INF, "10000101010", "10001001000", (73, 45, 60, 37), (71, 19, 56, 15)),
    DominanceWitness(_INF, "100011010", "100100010", (35, 22, 27, 17), (34, 19, 25, 14)),
    DominanceWitness(_INF, "1000101010", "1001000100", (60, 37, 47, 29), (53, 19, 39, 14)),
    DominanceWitness(_INF, "1001010100", "10010001000", (76, 29, 55, 21), (72, 19, 53, 14)),
    DominanceWitness(_PRE, "1010010", "10001000", (19, 11), (19, 5)),
    DominanceWitness(_INF, "101010100", "1010001000", (55, 21, 34, 13), (53, 14, 34, 9)),
    DominanceWitness(_INF, "10001010100", "100010001000", (97, 37, 76, 29), (91, 24, 72, 19)),
)


def verify_dominance_witnesses() -> AuditReport:
    """Recompute every pinned dominance witness and compare exactly."""
    violations: list[tuple[int, str]] = []
    for w in DOMINANCE_WITNESSES:
        label = f"{w.smaller}-vs-{w.excluded}"
        if w.kind.entries(mu_of(w.smaller)) != w.pinned_smaller:
            violations.append((int(w.smaller, 2), f"pinned-matrix-{label}"))
        if w.kind.entries(mu_of(w.excluded)) != w.pinned_excluded:
            violations.append((int(w.excluded, 2), f"pinned-matrix-{label}"))
        if not dominates(w.kind, w.smaller, w.excluded):
            violations.append((int(w.excluded, 2), f"no-dominance-{label}"))
        if int(w.smaller, 2) >= int(w.excluded, 2):
            violations.append((int(w.excluded, 2), f"witness-not-smaller-{label}"))
    return AuditReport(violations, len(DOMINANCE_WITNESSES))


def _block_strings(length: int, hundreds: int):
    """The 10/100-block strings of ``length`` digits with ``hundreds`` 100s, in index order."""
    tens, rem = divmod(length - 3 * hundreds, 2)
    if rem or tens < 0:
        return
    # Lexicographic order of the 100s' positions puts the earlier 100 first: index order.
    for at in itertools.combinations(range(tens + hundreds), hundreds):
        yield "".join("100" if i in at else "10" for i in range(tens + hundreds))


def verify_extremal_lemmas(n_max: int) -> AuditReport:
    """Exhaustively confirm the extremal facts about 10/100-block strings.

    For each size parameter up to ``n_max`` (lengths up to about
    ``4*n_max + 2`` digits):

    (i)   among strings with exactly two 100s, the largest value is
          attained exactly at ``(10)^n 0 (10)^(n-1) 0`` for length 4n
          (value ``F(4n) + F(2n)^2``); for length 4n+2 the maximum
          ``F(4n+2) + F(2n) F(2n+2)`` is attained at
          ``(10)^n 0 (10)^n 0`` and (for n >= 2) at nothing else except
          the larger string ``(10)^(n+1) 0 (10)^(n-1) 0`` -- the product
          ``F(2i) F(2j+2)`` is symmetric around its odd midpoint, so the
          two placements tie and only the smaller can set a record;
    (ii)  among ``(10)^i 0 (10)^(n-i)`` (a single 100), the minimum is
          ``F(2n+1) + F(2n-1)``, attained exactly at ``i = 1``;
    (iii) at equal odd length, every three-100 string has a strictly
          smaller value than every single-100 string;
    (iv)  ``F(2i+1) F(2n-2i)`` is strictly decreasing and
          ``F(2i) F(2n-2i)`` strictly increasing over their index
          ranges.

    Failures are collected in the report, keyed by the offending
    string's integer value (or the size parameter for (iv)).  The
    enumeration is exhaustive, and its cost grows about as ``n_max**5``:
    on one core, 0.01 s at 8, 0.2 s at 16 and 2.0 s at 25.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    violations: list[tuple[int, str]] = []
    checked = 0

    for length in [4 * n for n in range(2, n_max + 1)] + [4 * n + 2 for n in range(1, n_max + 1)]:
        n, half = length // 4, length // 2
        ties = 2 if length % 4 and n >= 2 else 1  # (10)^(n+1) 0 (10)^(n-1) 0 ties at 4n+2
        expect = ["10" * i + "0" + "10" * (half - 1 - i) + "0" for i in range(n, n + ties)]
        strings = list(_block_strings(length, 2))
        values = [g_value(x) for x in strings]
        checked += len(strings)
        best = max(values)
        best_strs = [x for x, val in zip(strings, values) if val == best]
        if best != fib(length) + fib(2 * n) * fib(length - 2 * n) or best_strs != expect:
            violations.append((int(best_strs[0], 2), f"two-100-max-length-{length}"))

    min_single = {}  # by length
    for n in range(1, 2 * n_max + 1):
        candidates = list(_block_strings(2 * n + 1, 1))  # the 100 as block i - 1, i = 1..n
        values = [g_value(x) for x in candidates]
        checked += len(candidates)
        best = min_single[2 * n + 1] = min(values)
        if best != fib(2 * n + 1) + fib(2 * n - 1) or values[0] != best or values.count(best) > 1:
            violations.append((int(candidates[0], 2), f"single-100-min-n-{n}"))

    for length in range(9, 4 * n_max + 2, 2):
        checked += 1
        if max(g_value(x) for x in _block_strings(length, 3)) >= min_single[length]:
            violations.append((length, f"three-vs-one-100-length-{length}"))

    for n in range(1, 2 * n_max + 2):
        decreasing = [fib(2 * i + 1) * fib(2 * n - 2 * i) for i in range(n)]
        increasing = [fib(2 * i) * fib(2 * n - 2 * i) for i in range(n // 2 + 1)]
        checked += 1
        if any(a <= b for a, b in zip(decreasing, decreasing[1:])):
            violations.append((n, f"odd-fib-products-not-decreasing-n-{n}"))
        if any(a >= b for a, b in zip(increasing, increasing[1:])):
            violations.append((n, f"even-fib-products-not-increasing-n-{n}"))

    return AuditReport(violations, checked)
