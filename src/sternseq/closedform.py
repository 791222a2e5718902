"""Closed-form description of the k-bit record-setters.

From 12 bits on, the record-setters of the diatomic sequence fall into
three families for even bit lengths ``k = 2n``::

    E1:  100 (10)^a 0 (10)^(n-3-a) 11     0 <= a <= n-3
    E2:  (10)^b 0 (10)^(n-b-1) 1          1 <= b <= floor(n/2)
    E3:  (10)^(n-1) 11

and five for odd bit lengths ``k = 2n+1``::

    O1:  1000 (10)^(n-2) 1
    O2:  100100 (10)^(n-4) 011
    O3:  100 (10)^b 0 (10)^(n-2-b) 1      1 <= b <= ceil(n/2)-1
    O4:  (10)^(a+1) 0 (10)^(n-2-a) 11     0 <= a <= n-2
    O5:  (10)^n 1

giving ``floor(3k/4) - (-1)^k`` record-setters per bit length; below 12
bits the record-setters are irregular and ship as frozen data
(:mod:`sternseq.tables`).  One table, ``_FAMILIES``, holds each family's
parameter range, its index, its Stern value (the paper's products of
Fibonacci and Lucas numbers, read from one Fibonacci table) and its bit
pattern.  An index is its pattern read in binary:
an alternating number ``T[i] = 2**i // 3`` (``1010...``) less at most
two others, give or take a constant below 4, with no division.  The
index and value bodies run unchanged on ``int`` and on exact
``decimal.Decimal`` tables, and every public function reads the same
table.

Within a bit length the families' indices follow each other in the order
listed above, and each grows with its parameter, so a row is the runs of
its families one after another.  :func:`kbit_rows` yields those runs in
``int``, one family at a time, and checks that every index exceeds the
last and has ``k`` bits.  :func:`kbit_listing` yields the rows of many bit
lengths, from one pair of tables built for the longest, in exact decimal,
a number type and context that only this module picks; so ``sternseq
records`` never converts an index from binary to decimal text.
:func:`scan_listing` lists one brute-force scan, whose record-setters are
plain ``(index, value)`` pairs, in the same shape, the one place that
splits it by bit length; :func:`cross_validate` compares it with the
closed forms, and each index formula with its family's bit pattern.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import stern_a
from .records import AuditReport, records_scan
from .tables import SMALL_BITLENGTH_MAX, SMALL_BITLENGTH_RECORDS

__all__ = ["count_kbit", "cross_validate", "kbit_listing", "kbit_rows", "scan_listing"]


class _Family(NamedTuple):
    """One family's formulas over the half-length ``n`` and the parameter ``p``.

    ``index`` reads the alternating numbers ``T[i] = 2**i // 3`` (binary
    ``1010...`` of ``i - 1`` bits) and ``value`` the Fibonacci numbers
    ``F[i] = F(i)``, all at ``0..2n+2``.  The Lucas numbers of E1 and O3
    are written out from ``F``, ``L(i) = F(i-1) + F(i+1)``.
    """

    family_id: str
    params: Callable[[int], range | tuple[None]]  # the values of p for n
    index: Callable  # (n, p, T) -> index
    value: Callable  # (n, p, F) -> Stern value
    bits: Callable[[int, int | None], str]  # (n, p) -> binary pattern


_FAMILIES = {family.family_id: family for family in (
    _Family(
        "E1", lambda n: range(0, n - 2),
        lambda n, p, T: T[2 * n + 1] - T[2 * n - 2] - T[2 * n - 2 * p - 3],
        lambda n, p, F: (
            (F[2 * p + 2] + F[2 * p + 4]) * F[2 * n - 2 * p - 3]
            + (F[2 * p] + F[2 * p + 2]) * F[2 * n - 2 * p - 4]
        ),
        lambda n, p: f"100{'10' * p}0{'10' * (n - 3 - p)}11",
    ),
    _Family(
        "E2", lambda n: range(1, n // 2 + 1),
        lambda n, p, T: T[2 * n + 1] - T[2 * n - 2 * p],
        lambda n, p, F: F[2 * p + 2] * F[2 * n - 2 * p] + F[2 * p] * F[2 * n - 2 * p - 1],
        lambda n, p: f"{'10' * p}0{'10' * (n - p - 1)}1",
    ),
    _Family(
        "E3", lambda n: (None,),
        lambda n, p, T: T[2 * n + 1] + 1,
        lambda n, p, F: F[2 * n + 1],
        lambda n, p: "10" * (n - 1) + "11",
    ),
    _Family(
        "O1", lambda n: (None,),
        lambda n, p, T: T[2 * n + 2] - T[2 * n - 1] - T[2 * n - 2] - 1,
        lambda n, p, F: F[2 * n + 1] + F[2 * n - 4],
        lambda n, p: "1000" + "10" * (n - 2) + "1",
    ),
    _Family(
        "O2", lambda n: (None,),
        lambda n, p, T: T[2 * n + 2] - T[2 * n - 1] - T[2 * n - 4] - 3,
        lambda n, p, F: F[2 * n + 1] + 8 * F[2 * n - 8],
        lambda n, p: "100100" + "10" * (n - 4) + "011",
    ),
    _Family(
        "O3", lambda n: range(1, (n + 1) // 2),
        lambda n, p, T: T[2 * n + 2] - T[2 * n - 1] - T[2 * n - 2 * p - 2] - 1,
        lambda n, p, F: (
            (F[2 * p + 2] + F[2 * p + 4]) * F[2 * n - 2 * p - 2]
            + (F[2 * p] + F[2 * p + 2]) * F[2 * n - 2 * p - 3]
        ),
        lambda n, p: f"100{'10' * p}0{'10' * (n - 2 - p)}1",
    ),
    _Family(
        "O4", lambda n: range(0, n - 1),
        lambda n, p, T: T[2 * n + 2] - T[2 * n - 2 * p - 1],
        lambda n, p, F: (
            F[2 * p + 4] * F[2 * n - 2 * p - 1] + F[2 * p + 2] * F[2 * n - 2 * p - 2]
        ),
        lambda n, p: f"{'10' * (p + 1)}0{'10' * (n - 2 - p)}11",
    ),
    _Family(
        "O5", lambda n: (None,),
        lambda n, p, T: T[2 * n + 2],
        lambda n, p, F: F[2 * n + 2],
        lambda n, p: "10" * n + "1",
    ),
)}


def _families(k: int) -> list[_Family]:
    """The table entries of bit length ``k``, in index order."""
    return [family for family_id, family in _FAMILIES.items() if family_id[0] == "EO"[k % 2]]


def count_kbit(k: int) -> int:
    """Number of record-setters with exactly ``k`` bits."""
    if k < 1:
        raise ValueError("bit length must be >= 1")
    if k <= SMALL_BITLENGTH_MAX:
        return len(SMALL_BITLENGTH_RECORDS[k])
    return (3 * k) // 4 - (-1) ** k


def _tables(k_max: int, one):
    """Tables ``T[i] = 2**i // 3`` and ``F[i] = F(i)`` for ``i <= 2 * (k_max // 2) + 2``.

    ``T[2j + 1]`` is ``(10)^j`` and ``T[2j + 2]`` is ``(10)^j 1`` read in
    binary, so ``T[i + 1] = 2 T[i] + i % 2``; ``2**i == T[i] + T[i + 1] + 1``.
    Entries have the type of ``one``.
    """
    m = 2 * (k_max // 2) + 2
    T, F = [0 * one], [0 * one, one]
    for i in range(m):
        T.append(T[-1] + T[-1] + i % 2)
    for _ in range(m - 1):
        F.append(F[-1] + F[-2])
    return T, F


def _rows(k: int, T, F):
    """The rows of :func:`kbit_rows` in the type of ``F[1]``, from tables that cover ``k`` bits."""
    expected = count_kbit(k)
    if k <= SMALL_BITLENGTH_MAX:
        for index in sorted(int(bits, 2) for bits in SMALL_BITLENGTH_RECORDS[k]):
            yield F[1] * index, F[1] * stern_a(index), None, None
        return
    n = k // 2
    runs = [(family, family.params(n)) for family in _families(k)]
    if (count := sum(len(params) for _, params in runs)) != expected:
        raise RuntimeError(f"family instantiation for k={k} gives {count} rows")
    previous, top = T[k - 1] + T[k], T[k] + T[k + 1] + 1  # 2**(k-1) - 1, 2**k
    for family, params in runs:
        index_of, value_of = family.index, family.value
        for p in params:
            index = index_of(n, p, T)
            if not previous < index < top:
                raise RuntimeError(
                    f"family instantiation for k={k} is out of order or outside k bits"
                )
            previous = index
            yield index, value_of(n, p, F), family, p


def kbit_listing(k_values):
    """The ``(k, rows)`` of each nonzero ``k`` of the sequence ``k_values``, in decimal.

    ``rows`` are those of :func:`kbit_rows`, with ``decimal.Decimal`` numbers
    in an exact context (unbounded precision; ``Inexact``, ``Rounded`` and
    ``InvalidOperation`` trapped), whose tables are built once, on the call,
    for the largest ``k``.  Each ``rows`` makes its own copy of the
    context current from its first row to its last, so its rows stay exact
    whatever context the reader set, also after the listing is closed; but
    two ``rows`` read interleaved leave the reader in a copy of that context.
    Rows are made as they are read, family run by family run, the shape
    :func:`sternseq.cli.format_records` writes.  A negative ``k`` raises
    ``ValueError`` on the call.
    """
    import decimal

    if min(k_values, default=0) < 0:
        raise ValueError(f"bit length must be >= 0, got {min(k_values)}")
    traps = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation]
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=traps)
    with decimal.localcontext(exact):
        tables = _tables(max(k_values, default=1), decimal.Decimal(1))

    def rows(k):
        with decimal.localcontext(exact):
            yield from _rows(k, *tables)

    return ((k, rows(k)) for k in k_values if k)  # a(0) has none


def kbit_rows(k: int):
    """Yield ``(index, value, family, parameter)`` of each ``k``-bit record-setter, in index order.

    Numbers are ``int``.  Below 12 bits they come from the frozen table,
    and ``family`` and ``parameter`` are ``None``.  From 12 bits on,
    ``family`` is the family's table entry (``family.family_id`` names it
    and ``family.bits(k // 2, parameter)`` is the row's binary pattern),
    and the rows are made family by family, over each family's parameter
    range, as they are yielded.  The row count is checked against
    :func:`count_kbit`, and each index must exceed the last and lie in
    ``[2**(k-1), 2**k)``; either failure raises ``RuntimeError``.
    """
    yield from _rows(k, *_tables(k, 1))


def scan_listing(k_values: range):
    """The scan as ``(k, rows)`` for each ``k`` in ``k_values``, as :func:`kbit_listing` lists.

    The one :func:`~sternseq.records.records_scan` runs on the call, of at
    least 1 bit, with its ceiling check; none runs for an empty range, and a
    negative ``k`` raises ``ValueError`` first.  ``rows`` lists the
    ``(index, value, family, parameter)`` of the "A" record-setters of
    ``k`` bits, maybe none; a row has the family and parameter of the
    :func:`kbit_rows` row with its index, or ``None``, as below 12 bits.
    """
    if k_values and k_values[0] < 0:
        raise ValueError(f"bit length must be >= 0, got {k_values[0]}")
    found = {k: [] for k in k_values}
    for index, value in records_scan(max(k_values[-1], 1), "A") if k_values else ():
        if index.bit_length() in found:
            found[index.bit_length()].append((index, value))

    def listing():
        for k, records in found.items():
            rows = kbit_rows(k) if k > SMALL_BITLENGTH_MAX else ()
            families = {index: (family, p) for index, _, family, p in rows}
            yield k, [(i, v, *families.get(i, (None, None))) for i, v in records]

    return listing()


def cross_validate(lo: int, hi: int) -> AuditReport:
    """Compare the closed forms for ``lo..hi`` bits against one brute-force scan.

    Each bit length of :func:`scan_listing` must equal the rows of
    :func:`kbit_rows` element-wise in index and Stern value.  From 12
    bits on, each row's index must also be its family's bit pattern read
    in binary.  Violations are keyed by the scanned index, the pattern's
    index for a formula mismatch, or the first index of the bit length
    for a count mismatch; ``checked_count`` is the number of bit lengths.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"bit-length range must satisfy 1 <= lo <= hi, got {lo}..{hi}")
    violations: list[tuple[int, str]] = []
    for k, found in scan_listing(range(lo, hi + 1)):
        expected = list(kbit_rows(k))
        if len(expected) != len(found):
            count = f"{len(expected)} by closed form, {len(found)} by scan"
            violations.append((1 << (k - 1), f"{k}-bit record-setters: {count}"))
        for (index, value, _, _), (at, scanned, _, _) in zip(expected, found):
            if index != at:
                violations.append((at, f"closed form gives index {index}"))
            elif value != scanned:
                violations.append((at, f"closed form gives value {value}"))
        for index, _, family, p in expected:  # from 12 bits on: the formula, keyed at its pattern
            if family is not None and (at := int(family.bits(k // 2, p), 2)) != index:
                violations.append((at, f"{family.family_id}({p}) formula gives {index}"))
    return AuditReport(violations, hi - lo + 1)
