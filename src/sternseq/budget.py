"""Memory budget for brute-force scans and row materialization.

Dense rows and full scans are bounded by a ceiling on the index bit
length: operations touching indices below 2**ceiling are allowed,
anything larger raises :class:`BudgetExceededError`.  At the default
of 24 bits a full scan (``verify --k-range 12..24``) peaks at 72.6 MiB
of resident memory; ``plot`` streams its rows, so its peak does not
depend on the ceiling.  The ceiling can be raised through the
``STERNSEQ_MAX_BITS`` environment variable when more memory is
available.
"""

from __future__ import annotations

import os

DEFAULT_MAX_BITS = 24

MAX_BITS_ENV_VAR = "STERNSEQ_MAX_BITS"


class BudgetExceededError(Exception):
    """A scan or row allocation would exceed the configured memory ceiling."""


def memory_ceiling_bits() -> int:
    """Current ceiling on index bit length for dense operations."""
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
