"""Ceiling on the indices that brute-force scans may visit.

Full record scans and ``plot`` are bounded by a ceiling on the index
bit length: indices below 2**ceiling are allowed, anything larger
raises :class:`BudgetExceededError`.  The ceiling bounds the work, not
the memory, and neither peak grows with it.  ``plot`` reads fixed-size
windows (``core.running_windows``), so its work is the indices it
writes.  The record scan is a branch and bound over the bits of the
index (``records.records_scan``) whose work grows about as ``k**4``
prefixes for ``k`` bits, not as ``2**k``; the default of 24 bits is
kept for both.  The ``STERNSEQ_MAX_BITS`` environment variable raises
or lowers it.
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
