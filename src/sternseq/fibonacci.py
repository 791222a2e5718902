"""Fibonacci and Lucas numbers (exact integers).

Cost model: :func:`fib` and :func:`lucas` use fast doubling, O(log n)
multiplications each.  Nothing is cached across calls.  A caller that
needs many values of one range builds one table and indexes it; the
closed forms read the one table builder, :func:`sternseq.closedform._tables`
(one additive pass, O(m) big-number additions for ``F(0..m)``).
"""

from __future__ import annotations

__all__ = ["fib", "lucas"]


def _fib_pair(n: int) -> tuple[int, int]:
    """``(F(n), F(n+1))`` by fast doubling over the bits of ``n``."""
    if n < 0:
        raise ValueError("index must be non-negative")
    a, b = 0, 1  # (F(m), F(m+1)) for the growing bit prefix m of n
    for ch in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b  # F(2m), F(2m+1)
        if ch == "1":
            a, b = b, a + b
    return a, b


def fib(n: int) -> int:
    """``F(n)`` with ``F(0) = 0``, ``F(1) = 1``."""
    return _fib_pair(n)[0]


def lucas(n: int) -> int:
    """``L(n)`` with ``L(0) = 2``, ``L(1) = 1``."""
    f, f_next = _fib_pair(n)
    return 2 * f_next - f
