"""Digit-string calculus for hyperbinary counting.

The central object is ``G(x)``: the number of proper hyperbinary strings
(digits 0..2, most significant digit first) reachable from the digit
string ``x`` by "breaking" digits, where breaking a position turns one
unit of its weight into two units of the next position's weight (one
step to the right), and no position may be broken twice.  For a plain
binary string
``x`` this counts the hyperbinary representations of ``[x]_2``, i.e.
``G(x) = s([x]_2)`` for the shifted Stern sequence ``s(n) = a(n+1)``.

``G`` linearizes: each digit ``d`` has a 2x2 transfer matrix over the
state "did the previous position break", and ``G(x)`` is the top-left
entry of the product in string order.  For binary strings the matrix
``mu(x)``, a :class:`Mat2` named tuple of its four entries, collects the
values of ``G`` on ``x`` and its two derived strings:

* ``double_prime(x)`` ("x''"): drop trailing zeros, decrement the last
  digit -- the version of ``x`` that has donated one broken unit to a
  string on its right;
* ``prime(x)`` ("x'"): add two to the leading digit, then normalize --
  the version of ``x`` that has received a broken unit from the left.

``mu(xy) = mu(x) * mu(y)``, which turns substring replacement arguments
into entrywise matrix comparisons: :func:`dominates` compares the
entries that a :class:`Comparator` (infix, suffix or prefix) selects.

Digits 2 and 3 only ever arise inside the transforms: 3 marks a digit
that must still break, and 4 (a digit broken twice) is impossible, so
such strings have ``G = 0``.  The annihilator :data:`BOTTOM` stands for
"no string at all" with ``G(BOTTOM) = 0``.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = [
    "BOTTOM",
    "Bottom",
    "Comparator",
    "GenStringOrZero",
    "Mat2",
    "dominates",
    "double_prime",
    "g_split",
    "g_value",
    "mu_of",
    "prime",
]


class Bottom:
    """Annihilator string: ``G(BOTTOM) = 0``, transforms map it to itself."""

    _instance: "Bottom | None" = None

    def __new__(cls) -> "Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = Bottom()

GenStringOrZero = str | Bottom

_DIGITS = frozenset("0123")


def _check_digits(x: str) -> None:
    if x.strip("0123"):
        bad = sorted(set(x) - _DIGITS)
        raise ValueError(f"digit string may only contain 0-3, got {bad} in {x!r}")


def _check_binary(x: str) -> None:
    if x.strip("01"):
        raise ValueError(f"string must be binary (digits 0/1 only), got {x!r}")


class Mat2(NamedTuple):
    """2x2 matrix of non-negative integers, row-major ``[[g, g_dp], [g_p, g_p_dp]]``.

    A named tuple of its four entries; for a binary string ``x`` those of
    ``mu_of(x)`` are ``G(x), G(x''), G(x'), G((x')'')`` in that order.
    ``*`` is the matrix product; tuple ``+``, repetition and order raise ``TypeError``.
    """

    g: int
    g_dp: int
    g_p: int
    g_p_dp: int
    __add__ = __radd__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = None  # type: ignore

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.g * other.g + self.g_dp * other.g_p,
            self.g * other.g_dp + self.g_dp * other.g_p_dp,
            self.g_p * other.g + self.g_p_dp * other.g_p,
            self.g_p * other.g_dp + self.g_p_dp * other.g_p_dp,
        )

    @property
    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.g, self.g_dp), (self.g_p, self.g_p_dp))


def mu_of(x: str) -> Mat2:
    """Transfer matrix of a binary digit string: the product of its digits' matrices.

    Digit 1 has ``[[1, 1], [0, 1]]``: it may stay or break, and after a
    broken unit arrives it is a 3 that must break.  Digit 0 has
    ``[[1, 0], [1, 1]]``: it cannot break alone, and after a unit arrives
    it is a 2 that may stay or break.  ``mu_of("")`` is the identity.
    """
    _check_binary(x)
    a, b, c, d = 1, 0, 0, 1
    for ch in x:
        if ch == "1":
            b = a + b
            d = c + d
        else:
            a = a + b
            c = c + d
    return Mat2(a, b, c, d)


def g_value(x: GenStringOrZero) -> int:
    """Number of proper hyperbinary strings reachable from ``x`` by breaking.

    Accepts digits 0-3 (3 = "must break") and :data:`BOTTOM`.  For a
    binary string this equals the shifted Stern value ``s([x]_2)``;
    ``g_value("") == 1`` (the empty representation of zero).
    """
    if isinstance(x, Bottom):
        return 0
    _check_digits(x)
    # Fold the row vector (1, 0), "no incoming break", through the digits' transfer
    # matrices; r0/r1 = counts with the previous position unbroken/broken.
    r0, r1 = 1, 0
    for ch in x:
        if ch == "1":
            r0, r1 = r0, r0 + r1
        elif ch == "0":
            r0, r1 = r0 + r1, r1
        elif ch == "2":
            r0, r1 = r0, r0
        else:  # "3"
            r0, r1 = 0, r0
    return r0


def prime(h: GenStringOrZero) -> GenStringOrZero:
    """Add two to the leading digit of ``h`` and normalize.

    Models a broken unit arriving from the left.  The leading 2 or 3 is
    rewritten away (``2h -> 1h``, ``3 1^i 0 h -> 1h``); a string of the
    form ``1^j`` (including the empty string) has no such reduction and
    collapses to the canonical unbreakable string ``"3"``, which keeps
    ``g_value(prime(h)) = 0`` while ``double_prime("3") = "2"`` still
    carries one representation.  Inputs whose leading digit is already
    2 or 3 would need a digit broken twice, so they map to
    :data:`BOTTOM`.
    """
    if isinstance(h, Bottom):
        return BOTTOM
    _check_digits(h)
    if not h:
        return "3"
    lead = h[0]
    if lead == "0":
        return "1" + h[1:]  # 0+2 = 2, then 2h -> 1h
    if lead in "23":
        return BOTTOM
    # lead == "1": the string starts 3 1^i ...; find the end of the run.
    i = 1
    while i < len(h) and h[i] == "1":
        i += 1
    if i == len(h):
        return "3"
    if h[i] == "0":
        return "1" + h[i + 1 :]
    return BOTTOM  # 3 1^i followed by 2/3: double break, no representations


def double_prime(h: GenStringOrZero) -> GenStringOrZero:
    """Strip trailing zeros and decrement the last digit of ``h``.

    Models donating a broken unit to a string on the right.  All-zero
    or empty input has nothing to donate and yields :data:`BOTTOM`.
    """
    if isinstance(h, Bottom):
        return BOTTOM
    _check_digits(h)
    stripped = h.rstrip("0")
    if not stripped:
        return BOTTOM
    last = stripped[-1]
    return stripped[:-1] + str(int(last) - 1)


def g_split(x: str, y: str) -> int:
    """Evaluate ``G(xy)`` by splitting: ``G(x)G(y) + G(x'')G(y')``.

    The two summands count the representations of the concatenation in
    which the boundary bit does not / does break.
    """
    return g_value(x) * g_value(y) + g_value(double_prime(x)) * g_value(prime(y))


class Comparator(enum.Enum):
    """Dominance relations justifying substring replacements.

    Each compares the entries of ``mu(x)`` that :meth:`entries` selects:
    ``INFIX`` the whole matrix ``(G(x), G(x''), G(x'), G((x')''))``,
    ``SUFFIX`` the reachable column ``(G(x), G(x'))`` (right boundary
    fixed), ``PREFIX`` the reachable row ``(G(x), G(x''))`` (left boundary
    fixed).  Infix dominance implies the other two.
    """

    INFIX = "infix"
    SUFFIX = "suffix"
    PREFIX = "prefix"

    def entries(self, m: Mat2) -> tuple[int, ...]:
        """The entries of ``m`` this relation compares, in the order listed above."""
        if self is Comparator.INFIX:
            return tuple(m)
        if self is Comparator.SUFFIX:
            return (m.g, m.g_p)
        return (m.g, m.g_dp)


def dominates(kind: Comparator, t: str, y: str) -> bool:
    """Whether ``t`` dominates ``y``: each entry ``kind`` compares is at least as large.

    See :class:`Comparator` for the entries.  Only the matrix inequality
    is tested; callers combine it with ``[t]_2 < [y]_2`` when using it to
    rule out record candidates.
    """
    if not isinstance(kind, Comparator):
        raise TypeError(f"unknown comparator {kind!r}")
    return all(a >= b for a, b in zip(kind.entries(mu_of(t)), kind.entries(mu_of(y))))
