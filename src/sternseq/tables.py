"""Frozen reference data for the small regimes.

``INITIAL_VALUES`` are a(0..15) of OEIS A002487.  ``FIRST_RECORDS`` are
the first running-maximum indices of the sequence and their values
(prefixes of OEIS A212288 / A212289).  ``SMALL_BITLENGTH_RECORDS`` lists
every record-setter with fewer than 12 bits, keyed by bit length; from
12 bits on the closed-form families take over (see
:mod:`sternseq.closedform`).
"""

from __future__ import annotations

INITIAL_VALUES: tuple[int, ...] = (0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4)

#: (index, value) of the first 18 record-setters in the a-convention.
FIRST_RECORDS: tuple[tuple[int, int], ...] = (
    (0, 0),
    (1, 1),
    (3, 2),
    (5, 3),
    (9, 4),
    (11, 5),
    (19, 7),
    (21, 8),
    (35, 9),
    (37, 11),
    (43, 13),
    (69, 14),
    (73, 15),
    (75, 18),
    (83, 19),
    (85, 21),
    (139, 23),
    (147, 26),
)

#: The scan below ``2**FIRST_RECORDS_BITS`` holds every entry of ``FIRST_RECORDS``.
FIRST_RECORDS_BITS = FIRST_RECORDS[-1][0].bit_length()

#: Binary forms of all k-bit record-setters (a-convention) for k < 12.
SMALL_BITLENGTH_RECORDS: dict[int, tuple[str, ...]] = {
    1: ("1",),
    2: ("11",),
    3: ("101",),
    4: ("1001", "1011"),
    5: ("10011", "10101"),
    6: ("100011", "100101", "101011"),
    7: ("1000101", "1001001", "1001011", "1010011", "1010101"),
    8: ("10001011", "10010011", "10010101", "10100101", "10101011"),
    9: (
        "100010101",
        "100100101",
        "100101011",
        "101001011",
        "101010011",
        "101010101",
    ),
    10: (
        "1000101011",
        "1001001011",
        "1001010011",
        "1001010101",
        "1010010101",
        "1010101011",
    ),
    11: (
        "10001010101",
        "10010010101",
        "10010100101",
        "10010101011",
        "10100101011",
        "10101001011",
        "10101010011",
        "10101010101",
    ),
}

SMALL_BITLENGTH_MAX = 11
