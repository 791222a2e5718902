"""Stern diatomic sequence toolkit.

Exact computation of the sequence (OEIS A002487) by recurrence,
hyperbinary enumeration, and digit dynamic programming; the 2x2
transfer-matrix calculus on digit strings behind it; brute-force
scanning and auditing of its record-setters (A212288/A212289); and the
closed-form classification of all record-setters from 12 bits on.
"""

from .budget import BudgetExceededError, memory_ceiling_bits
from .closedform import count_kbit, cross_validate
from .core import (
    hyperbinary_count_dp,
    hyperbinary_enumerate,
    stern_a,
    stern_range,
    stern_s,
)
from .fibonacci import fib, lucas
from .records import (
    AuditReport,
    audit_substring_properties,
    records_scan,
    verify_extremal_lemmas,
)
from .strings import (
    BOTTOM,
    Bottom,
    Comparator,
    Mat2,
    dominates,
    double_prime,
    g_split,
    g_value,
    mu_of,
    prime,
)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "AuditReport",
    "Bottom",
    "BudgetExceededError",
    "Comparator",
    "Mat2",
    "audit_substring_properties",
    "count_kbit",
    "cross_validate",
    "dominates",
    "double_prime",
    "fib",
    "g_split",
    "g_value",
    "hyperbinary_count_dp",
    "hyperbinary_enumerate",
    "lucas",
    "memory_ceiling_bits",
    "mu_of",
    "prime",
    "records_scan",
    "stern_a",
    "stern_range",
    "stern_s",
    "verify_extremal_lemmas",
]
