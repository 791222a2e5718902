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

giving ``floor(3k/4) - (-1)^k`` record-setters per bit length.  Each
family also has an explicit index (a geometric sum over a powers-of-two
table, exact division by 3) and an explicit Stern value built from
Fibonacci and Lucas products; below 12 bits the record-setters are
irregular and ship as frozen data (:mod:`sternseq.tables`).

:func:`kbit_rows` yields one bit length's rows as it makes them, in
``int`` or in exact ``decimal.Decimal``, so ``sternseq records`` never
converts an index from binary to decimal text.  :func:`generate_kbit`
lists the int rows as :class:`~sternseq.records.RecordSetter` records.
:func:`cross_validate` checks a range of bit lengths against one
brute-force scan, and each index formula against its rendered bits.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .core import stern_a
from .fibonacci import fib_lucas_table
from .records import AuditReport, RecordSetter, records_scan
from .tables import SMALL_BITLENGTH_MAX, SMALL_BITLENGTH_RECORDS

__all__ = [
    "FamilyDescriptor",
    "closed_form_index",
    "closed_form_stern_value",
    "count_kbit",
    "cross_validate",
    "family_descriptors",
    "generate_kbit",
    "kbit_rows",
    "render_bits",
]

CLOSED_FORM_MIN_BITS = SMALL_BITLENGTH_MAX + 1

EVEN_FAMILIES = ("E1", "E2", "E3")
ODD_FAMILIES = ("O1", "O2", "O3", "O4", "O5")


@dataclass(frozen=True, slots=True)
class FamilyDescriptor:
    """One record-setter pattern: family id plus its free parameter."""

    parity: str  # "even" | "odd"
    family_id: str
    parameter: int | None = None

    def __post_init__(self):
        families = EVEN_FAMILIES if self.parity == "even" else ODD_FAMILIES
        if self.parity not in ("even", "odd") or self.family_id not in families:
            raise ValueError(f"unknown family {self.parity}/{self.family_id}")


def _parameter_range(family_id: str, n: int) -> range | None:
    if family_id == "E1":
        return range(0, n - 2)
    if family_id == "E2":
        return range(1, n // 2 + 1)
    if family_id == "O3":
        return range(1, (n + 1) // 2)
    if family_id == "O4":
        return range(0, n - 1)
    return None  # E3, O1, O2, O5 take no parameter


def _check_descriptor(descriptor: FamilyDescriptor, n: int) -> None:
    param_range = _parameter_range(descriptor.family_id, n)
    if param_range is None:
        if descriptor.parameter is not None:
            raise ValueError(f"{descriptor.family_id} takes no parameter")
        return
    if descriptor.parameter is None or descriptor.parameter not in param_range:
        raise ValueError(
            f"{descriptor.family_id} parameter must lie in "
            f"[{param_range.start}, {param_range.stop - 1}] for n={n}, "
            f"got {descriptor.parameter}"
        )


def render_bits(descriptor: FamilyDescriptor, n: int) -> str:
    """Binary string of the record-setter described by ``descriptor``.

    ``n`` is the half-length: the result has ``2n`` bits for even
    families and ``2n + 1`` bits for odd ones.
    """
    _check_descriptor(descriptor, n)
    p = descriptor.parameter
    match descriptor.family_id:
        case "E1":
            return "100" + "10" * p + "0" + "10" * (n - 3 - p) + "11"
        case "E2":
            return "10" * p + "0" + "10" * (n - p - 1) + "1"
        case "E3":
            return "10" * (n - 1) + "11"
        case "O1":
            return "1000" + "10" * (n - 2) + "1"
        case "O2":
            return "100100" + "10" * (n - 4) + "011"
        case "O3":
            return "100" + "10" * p + "0" + "10" * (n - 2 - p) + "1"
        case "O4":
            return "10" * (p + 1) + "0" + "10" * (n - 2 - p) + "11"
        case "O5":
            return "10" * n + "1"
    raise AssertionError


def _exact_third(numerator: int) -> int:
    q, r = divmod(numerator, 3)
    if r:
        raise ArithmeticError(f"{numerator} is not divisible by 3")
    return q


class _Table:
    """A table whose entries are computed when read, ``T[i] == entry(i)``."""

    def __init__(self, entry):
        self.entry = entry

    def __getitem__(self, i: int):
        return self.entry(i)


_POWERS_OF_TWO = _Table((1).__lshift__)  # P[i] == 1 << i in int arithmetic


def _index(descriptor: FamilyDescriptor, n: int, P):
    """Geometric-sum index of one family, read from a powers-of-two table covering ``0..2n+2``."""
    p = descriptor.parameter
    match descriptor.family_id:
        case "E1":
            return P[2 * n - 1] + _exact_third(P[2 * n - 2] - P[2 * n - 2 * p - 3] + 1)
        case "E2":
            return _exact_third(P[2 * n + 1] - P[2 * n - 2 * p] - 1)
        case "E3":
            return _exact_third(P[2 * n + 1] + 1)
        case "O1":
            return P[2 * n] + _exact_third(P[2 * n - 2] - 1)
        case "O2":
            return P[2 * n] + P[2 * n - 3] + _exact_third(P[2 * n - 4] - 7)
        case "O3":
            return P[2 * n] + _exact_third(P[2 * n - 1] - P[2 * n - 2 * p - 2] - 1)
        case "O4":
            return _exact_third(P[2 * n + 2] - P[2 * n - 2 * p - 1] + 1)
        case "O5":
            return _exact_third(P[2 * n + 2] - 1)
    raise AssertionError


def closed_form_index(descriptor: FamilyDescriptor, n: int) -> int:
    """Integer index of the record-setter, by geometric-sum closed form."""
    _check_descriptor(descriptor, n)
    return _index(descriptor, n, _POWERS_OF_TWO)


# Smallest half-length at which a parameterless family's Fibonacci
# indices are all non-negative (the others need only n >= 0).
_MIN_HALF_LENGTH = {"O1": 2, "O2": 4}


def _stern_value(descriptor: FamilyDescriptor, n: int, F: list[int], L: list[int]) -> int:
    """Fibonacci/Lucas product of one family, read from tables covering ``0..2n+2``."""
    p = descriptor.parameter
    match descriptor.family_id:
        case "E1":
            return L[2 * p + 3] * F[2 * n - 2 * p - 3] + L[2 * p + 1] * F[2 * n - 2 * p - 4]
        case "E2":
            return F[2 * p + 2] * F[2 * n - 2 * p] + F[2 * p] * F[2 * n - 2 * p - 1]
        case "E3":
            return F[2 * n + 1]
        case "O1":
            return F[2 * n + 1] + F[2 * n - 4]
        case "O2":
            return F[2 * n + 1] + 8 * F[2 * n - 8]
        case "O3":
            return L[2 * p + 3] * F[2 * n - 2 * p - 2] + L[2 * p + 1] * F[2 * n - 2 * p - 3]
        case "O4":
            return F[2 * p + 4] * F[2 * n - 2 * p - 1] + F[2 * p + 2] * F[2 * n - 2 * p - 2]
        case "O5":
            return F[2 * n + 2]
    raise AssertionError


def closed_form_stern_value(descriptor: FamilyDescriptor, n: int) -> int:
    """Stern value of the record-setter, as a Fibonacci/Lucas product."""
    _check_descriptor(descriptor, n)
    if n < _MIN_HALF_LENGTH.get(descriptor.family_id, 0):
        raise ValueError(f"{descriptor.family_id} has no closed-form value for n={n}")
    return _stern_value(descriptor, n, *fib_lucas_table(2 * n + 2))


def family_descriptors(k: int) -> list[FamilyDescriptor]:
    """All family descriptors for bit length ``k >= 12``."""
    if k < CLOSED_FORM_MIN_BITS:
        raise ValueError(f"closed forms start at {CLOSED_FORM_MIN_BITS} bits, got {k}")
    n = k // 2
    parity = "even" if k % 2 == 0 else "odd"
    families = EVEN_FAMILIES if parity == "even" else ODD_FAMILIES
    out = []
    for family_id in families:
        param_range = _parameter_range(family_id, n)
        if param_range is None:
            out.append(FamilyDescriptor(parity, family_id))
        else:
            out.extend(FamilyDescriptor(parity, family_id, p) for p in param_range)
    return out


def count_kbit(k: int) -> int:
    """Number of record-setters with exactly ``k`` bits."""
    if k < 1:
        raise ValueError("bit length must be >= 1")
    if k <= SMALL_BITLENGTH_MAX:
        return len(SMALL_BITLENGTH_RECORDS[k])
    return (3 * k) // 4 - (-1) ** k


def kbit_rows(k: int, one=1):
    """Yield ``(index, value, descriptor)`` of each ``k``-bit record-setter, in index order.

    Numbers have the type of ``one``: ``int``, or ``decimal.Decimal`` in an exact context.
    Below 12 bits they come from the frozen table, without descriptor; from 12 bits on each
    row is made as it is yielded and checked to exceed the last and lie in ``[P[k-1], P[k])``.
    """
    if k < 1:
        raise ValueError("bit length must be >= 1")
    if k <= SMALL_BITLENGTH_MAX:
        for index in sorted(int(bits, 2) for bits in SMALL_BITLENGTH_RECORDS[k]):
            yield one * index, one * stern_a(index), None
        return
    n = k // 2
    descriptors = family_descriptors(k)
    if len(descriptors) != count_kbit(k):
        raise RuntimeError(f"family instantiation for k={k} gives {len(descriptors)} rows")
    P, F = [one], [0 * one, one]
    for _ in range(2 * n + 2):
        P.append(P[-1] + P[-1])
        F.append(F[-1] + F[-2])
    L = _Table(lambda i: F[i - 1] + F[i + 1])  # Lucas numbers, not stored
    # Each family's index grows with its parameter (checked below), so merging the families'
    # runs gives index order.  groupby empties a group once it moves on: take list(run) now.
    runs = [
        ((_index(d, n, P), d) for d in list(run))
        for _, run in itertools.groupby(descriptors, key=attrgetter("family_id"))
    ]
    previous = P[k - 1] - 1
    for index, descriptor in heapq.merge(*runs, key=itemgetter(0)):
        if not previous < index < P[k]:
            raise RuntimeError(f"family instantiation for k={k} is out of order or outside k bits")
        previous = index
        yield index, _stern_value(descriptor, n, F, L), descriptor


def generate_kbit(k: int) -> list[RecordSetter]:
    """All ``k``-bit record-setters in index order: the int rows of :func:`kbit_rows`."""
    return [RecordSetter(i, value, descriptor=d) for i, value, d in kbit_rows(k)]


def cross_validate(lo: int, hi: int) -> AuditReport:
    """Compare the closed forms for ``lo..hi`` bits against one brute-force scan.

    The records of a single scan below ``2**hi`` are grouped by bit
    length, and each group must equal :func:`generate_kbit` element-wise
    in index and Stern value.  From 12 bits on, each closed-form index
    formula must also reproduce its rendered bits.  Violations are keyed
    by the scanned index, the rendered index for a formula mismatch, or
    the first index of the bit length for a count mismatch;
    ``checked_count`` is the number of bit lengths.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"bit-length range must satisfy 1 <= lo <= hi, got {lo}..{hi}")
    scanned: dict[int, list[RecordSetter]] = {k: [] for k in range(lo, hi + 1)}
    for record in records_scan(hi, "A"):
        if record.bit_length >= lo:
            scanned[record.bit_length].append(record)
    violations: list[tuple[int, str]] = []
    for k, found in scanned.items():
        expected = generate_kbit(k)
        if len(expected) != len(found):
            count = f"{len(expected)} by closed form, {len(found)} by scan"
            violations.append((1 << (k - 1), f"{k}-bit record-setters: {count}"))
        for entry, record in zip(expected, found):
            if entry.index != record.index:
                violations.append((record.index, f"closed form gives index {entry.index}"))
            elif entry.value != record.value:
                violations.append((record.index, f"closed form gives value {entry.value}"))
        for entry in expected:  # from 12 bits on: the formula, keyed at the rendered bits
            d, index = entry.descriptor, entry.index
            if d and (at := int(render_bits(d, k // 2), 2)) != index:
                violations.append((at, f"{d.family_id}({d.parameter}) formula gives {index}"))
    return AuditReport(violations, hi - lo + 1)
