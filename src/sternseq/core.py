"""Stern diatomic sequence and hyperbinary oracles.

The sequence (OEIS A002487) is defined by ``a(0) = 0``, ``a(1) = 1``,
``a(2n) = a(n)`` and ``a(2n+1) = a(n) + a(n+1)``; the shifted form
``s(n) = a(n+1)`` counts the hyperbinary representations of ``n``
(expansions in base 2 using each power at most twice).

Besides the recurrence this module provides two independent oracles --
explicit enumeration of the representations and a carry-state dynamic
program over the binary digits -- plus dense windows ``a(lo) .. a(hi - 1)``
of any index range, computed without earlier values, and the one windowed
pass with a running maximum that brute-force scans and ``plot`` read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .fibonacci import fib

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "hyperbinary_count_dp",
    "hyperbinary_enumerate",
    "running_windows",
    "stern_a",
    "stern_range",
    "stern_s",
]


def stern_a(n: int) -> int:
    """Value ``a(n)`` of the diatomic sequence, by the recurrence.

    Iterates the pair ``(a(m), a(m+1))`` along the binary digits of
    ``n``; exact for arbitrarily large ``n``.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    a, b = 0, 1  # (a(m), a(m+1)) for the growing bit prefix m of n
    for ch in bin(n)[2:]:
        if ch == "0":
            b = a + b
        else:
            a = a + b
    return a


def stern_s(n: int) -> int:
    """Shifted value ``s(n) = a(n+1)``, the hyperbinary count of ``n``."""
    return stern_a(n + 1)


def hyperbinary_count_dp(n: int) -> int:
    """Count hyperbinary representations of ``n`` by a digit DP.

    Walks the binary digits of ``n`` from the least significant end,
    tracking in ``borrow`` the number of partial expansions that have
    overpaid the processed suffix by exactly one unit of the next
    power (only 0 or 1 units are ever useful).  Independent of the
    diatomic recurrence; equals ``stern_s(n)`` for all ``n >= 0``.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    exact, borrow = 1, 0
    while n:
        if n & 1:
            exact, borrow = exact + borrow, borrow
        else:
            exact, borrow = exact, exact + borrow
        n >>= 1
    return exact


def _iter_hyperbinary(n: int):
    """Yield the hyperbinary representations of ``n`` as digit strings.

    Order: the canonical binary string first, then depth-first over
    breaking choices, preferring to break the leftmost positions.  Each
    output has the same length as the canonical string (leading zeros
    are kept); the rightmost position never breaks.
    """
    canonical = bin(n)[2:] if n else ""
    yield canonical
    digits = [int(ch) for ch in canonical]
    t = len(digits)
    acc: list[str] = []

    def walk(j: int, carry: int, broke: bool):
        if j == t:
            if broke:  # the no-break leaf is the canonical string again
                yield "".join(acc)
            return
        val = digits[j] + 2 * carry
        if j < t - 1 and 1 <= val <= 3:
            acc.append(str(val - 1))
            yield from walk(j + 1, 1, True)
            acc.pop()
        if val <= 2:
            acc.append(str(val))
            yield from walk(j + 1, 0, broke)
            acc.pop()

    yield from walk(0, 0, False)


def hyperbinary_enumerate(n: int) -> list[str]:
    """All distinct hyperbinary representations of ``n``.

    Starts from the canonical binary string and applies the breaking
    rewrite ``10 -> 02`` at each position at most once; intended for
    oracle-scale ``n`` (the count grows like a Stern value).  ``n = 0``
    yields the single empty representation.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    return list(_iter_hyperbinary(n))


_WINDOW = 1 << 16  # indices per window of running_windows

# Row values for k-bit indices are bounded by F(k+1) (Lucas), so 32-bit
# cells hold rows up to k = 45 (F46 < 2**31) and 64-bit up to k = 91.
_WIDTH_32_MAX_BITS = 45
_WIDTH_64_MAX_BITS = 91


def _cell_dtype(bits: int) -> np.dtype:
    import numpy as np

    if bits > _WIDTH_64_MAX_BITS:
        return np.dtype(object)
    dtype = np.dtype(np.uint32 if bits <= _WIDTH_32_MAX_BITS else np.uint64)
    # Checked promotion: the Lucas bound F(bits+1) must fit the cells.
    if fib(bits + 1) > int(np.iinfo(dtype).max):
        raise OverflowError(f"values of {bits}-bit indices may not fit {dtype} cells")
    return dtype


def stern_range(lo: int, hi: int) -> np.ndarray:
    """Dense array of ``a(n)`` for ``lo <= n < hi``, in the narrowest exact cells.

    The cells are chosen by the bit length of ``hi - 1``, once per call and
    checked against the Lucas bound: ``uint32`` up to 45 bits, ``uint64`` up
    to 91, Python ints beyond (see :func:`_cell_dtype`).
    Computed by recursive descent on the parent range
    ``[lo//2, hi//2]`` (even indices copy their parent, odd indices sum
    adjacent parents), so a chunk of any row costs O(chunk + log hi)
    without materializing earlier rows.
    """
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid index range [{lo}, {hi})")
    return _range(lo, hi, _cell_dtype(max(hi - 1, 1).bit_length()))


def _range(lo: int, hi: int, dtype: np.dtype) -> np.ndarray:
    import numpy as np

    if hi <= 16 or hi - lo <= 8:
        return np.array([stern_a(n) for n in range(lo, hi)], dtype=dtype)
    parents = _range(lo // 2, hi // 2 + 1, dtype)
    out = np.empty(hi - lo, dtype=dtype)
    n_even_first = (hi - lo + 1) // 2  # count of positions with i even
    n_odd_first = (hi - lo) // 2
    if lo % 2 == 0:
        out[0::2] = parents[:n_even_first]
        out[1::2] = parents[:n_odd_first] + parents[1 : n_odd_first + 1]
    else:
        out[0::2] = parents[:n_even_first] + parents[1 : n_even_first + 1]
        out[1::2] = parents[1 : n_odd_first + 1]
    return out


def running_windows(lo: int, hi: int):
    """Yield ``(start, values, running)`` over ``[lo, hi)`` in windows of up to ``2**16`` indices.

    ``values`` is the window's :func:`stern_range`, ``running`` the maximum of ``a`` from ``lo``
    to each index: a constant column, not accumulated, where no value exceeds the one carried in.
    """
    import numpy as np

    top = 0  # the running maximum before the window; no value is below it
    for start in range(lo, hi, _WINDOW):
        values = stern_range(start, min(start + _WINDOW, hi))
        if values.max() <= top:
            running = np.full(len(values), top, values.dtype)
        else:
            running = np.maximum.accumulate(np.maximum(values, top))
            top = int(running[-1])
        yield start, values, running
