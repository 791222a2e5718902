"""Command-line frontend.

Subcommands::

    value    exact sequence values by recurrence, matrix product, or DP
    records  record-setter listings from brute-force scan or closed forms
    verify   run the verification suites, exit non-zero on any failure
    plot     emit "n, a(n), running maximum" rows for external plotting
    table    reproduce the three frozen reference tables

Exit codes: 0 success (also when the reader stops early, as ``head`` does),
1 verification failure, 2 usage or write error, 3 scan ceiling exceeded: the
indices to scan go beyond the ceiling on index bits (``STERNSEQ_MAX_BITS``).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext

from .budget import (
    DEFAULT_MAX_BITS,
    MAX_BITS_ENV_VAR,
    BudgetExceededError,
    check_bits_budget,
    memory_ceiling_bits,
)
from .closedform import CLOSED_FORM_MIN_BITS, kbit_listing, kbit_rows
from .core import hyperbinary_count_dp, stern_a, stern_range, stern_s
from .records import check_scan_budget, records_in_bitlength, records_scan
from .strings import g_value
from .tables import FIRST_RECORDS, SMALL_BITLENGTH_MAX
from .verify import SCAN_BITS, SUITES

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

FORMATS = ("plain", "csv", "jsonlines", "bfile")

#: Rows of ``plot`` computed and written per window.
_PLOT_CHUNK = 1 << 16


class UsageError(Exception):
    """A request the command line cannot carry out as given (exit code 2)."""


@contextmanager
def _output(path: str | None):
    """The file at ``path``, or standard output, flushed; a write error becomes a UsageError."""
    try:
        with open(path, "w") if path else nullcontext(sys.stdout) as stream:
            yield stream
            stream.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise UsageError(f"cannot write {path or 'standard output'}: {exc.strerror}") from exc


def format_records(rows, fmt: str, convention: str = "A"):
    """Render ``(index, value, k, family, parameter)`` rows, one line each, in an output format.

    ``index`` and ``value`` are ``int`` or ``decimal.Decimal``; ``family``
    and ``parameter`` are as :func:`~sternseq.closedform.kbit_rows` yields
    them.  A row with a family takes its bits from the family's pattern,
    not from its index; ``bfile`` makes no bits.  ``bfile`` follows the
    OEIS flat-file convention ("index value" per line); ``jsonlines``
    string-encodes the integers so arbitrarily large values survive tools
    that parse numbers as doubles.  The family column is the family id,
    if any.  Every ``jsonlines`` field is decimal or binary digits, an
    ASCII family id or an int, so the line is the ``json.dumps`` layout
    written out directly, with nothing to escape.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "csv":
        yield "index,bits,value,k,family"
    for index, value, k, family, parameter in rows:
        if fmt == "bfile":
            yield f"{index} {value}"
            continue
        bits = family.bits(k // 2, parameter) if family else format(int(index), "b")
        if family and convention == "S":
            bits = bits[:-1] + "0"  # every pattern ends in 1
        family_id = family and family.family_id
        if fmt == "plain":
            yield f"{index} {bits} {value}" + (f" {family_id}" if family else "")
        elif fmt == "csv":
            yield f"{index},{bits},{value},{k},{family_id or ''}"
        else:
            doc = f'"index": "{index}", "bits": "{bits}", "value": "{value}", "k": {k}'
            yield f'{{{doc}, "family": "{family_id}"}}' if family else f"{{{doc}}}"


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse OEIS b-file lines ("n value", comments starting with #)."""
    pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        n, value = line.split()
        pairs.append((int(n), int(value)))
    return pairs


def _scanned(k: int, convention: str, exact_bits: bool):
    """The scanned rows, each given the family and parameter of its "A" index."""
    records = records_in_bitlength(k, convention) if exact_bits else records_scan(k, convention)
    shift = 1 if convention == "S" else 0
    patterns = {
        index - shift: (family, parameter)
        for kk in range(max(CLOSED_FORM_MIN_BITS, k if exact_bits else 1), k + 1)
        for index, _, family, parameter in kbit_rows(kk)
    }
    return (
        (r.index, r.value, r.bit_length, *patterns.get(r.index, (None, None))) for r in records
    )


def _closed_form(k: int, convention: str, exact_bits: bool):
    """The closed-form rows in exact decimal, shifted down by one index under convention "S"."""
    import decimal

    traps = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation]
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=traps)
    shift = 1 if convention == "S" else 0
    with decimal.localcontext(exact):
        k_values = (k,) if exact_bits else range(1, k + 1)
        for kk, rows in kbit_listing(k_values, decimal.Decimal(1)):
            for index, value, family, parameter in rows:
                index -= shift
                if index or not exact_bits:  # the 1-bit record maps to s-index 0
                    yield index, value, kk if index else 0, family, parameter


# ----------------------------- subcommands -----------------------------


def cmd_value(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("the index must be non-negative")
    shifted = n if args.convention == "S" else n - 1
    if args.method == "recurrence":
        value = stern_s(n) if args.convention == "S" else stern_a(n)
    elif args.method == "dp":
        value = 0 if shifted < 0 else hyperbinary_count_dp(shifted)
    else:  # matrix
        value = 0 if shifted < 0 else g_value(format(shifted, "b"))
    print(value)
    return EXIT_OK


def cmd_records(args) -> int:
    exact_bits = args.bits is not None
    k = args.bits if exact_bits else args.max_bits
    if k < 1:
        raise UsageError("bit length must be >= 1")
    source = _scanned if args.source == "scan" else _closed_form
    lines = format_records(source(k, args.convention, exact_bits), args.format, args.convention)
    with _output(args.output) as out:
        out.writelines(f"{line}\n" for line in lines)
    return EXIT_OK


def _decimal_lines(columns, sep: str) -> str:
    """Equal-length, non-empty columns of non-negative int64 as text, one line per row.

    All lines are laid out in one byte matrix: each column gets as many
    digit positions as its largest number has digits, filled from the
    right by division by 10, then one position for ``sep`` (a newline
    after the last column).  A mask keeps each number's digits from its
    leading one on, and its last digit, so 0 is "0"; the masked bytes
    in row-major order are the lines.
    """
    import numpy as np

    widths = [len(str(int(column.max()))) for column in columns]
    text = np.empty((len(columns[0]), sum(widths) + len(columns)), np.uint8)
    keep = np.ones(text.shape, bool)
    at = 0
    for i, (column, width) in enumerate(zip(columns, widths)):
        rest = column
        for j in range(at + width - 1, at - 1, -1):
            above = rest // 10
            text[:, j] = rest - 10 * above + ord("0")
            keep[:, j] = rest > 0
            rest = above
        keep[:, at + width - 1] = True
        text[:, at + width] = ord("\n" if i == len(columns) - 1 else sep)
        at += width + 1
    return text[keep].tobytes().decode("ascii")


def cmd_plot(args) -> int:
    import numpy as np

    if args.max < 0:
        raise UsageError("--max must be non-negative")
    check_bits_budget(args.max.bit_length(), f"plot of values up to index {args.max}")
    sep = "," if args.format == "csv" else " "
    top = 0  # the running maximum before the window
    with _output(args.output) as out:
        for lo in range(0, args.max + 1, _PLOT_CHUNK):
            hi = min(lo + _PLOT_CHUNK, args.max + 1)
            values = stern_range(lo, hi, np.int64)
            running = np.maximum.accumulate(values)
            np.maximum(running, top, out=running)
            top = running[-1]
            out.write(_decimal_lines((np.arange(lo, hi, dtype=np.int64), values, running), sep))
    return EXIT_OK


def cmd_table(args) -> int:
    if args.which == 1:
        for n in range(16):
            print(n, stern_a(n))
    elif args.which == 2:
        for i, record in enumerate(records_scan(8, "A")[: len(FIRST_RECORDS)]):
            print(i, record.index, record.value)
    else:
        for k in range(1, SMALL_BITLENGTH_MAX + 1):
            for record in records_in_bitlength(k, "A"):
                print(k, record.bits, record.index)
    return EXIT_OK


def _parse_k_range(text: str) -> tuple[int, int]:
    lo_str, sep, hi_str = text.partition("..")
    if not sep:
        raise ValueError
    lo, hi = int(lo_str), int(hi_str)
    if lo < 1 or hi < lo:
        raise ValueError
    return lo, hi


def cmd_verify(args) -> int:
    try:
        lo, hi = _parse_k_range(args.k_range)
    except ValueError:
        raise UsageError(f"--k-range must look like 1..12, got {args.k_range!r}") from None
    suites = args.suites.split(",") if args.suites else list(SUITES)
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise UsageError(f"unknown suites {unknown}; pick from {','.join(SUITES)}")
    scan_bits = max(SCAN_BITS[suite](lo, hi) for suite in suites)
    if scan_bits:
        check_scan_budget(scan_bits)  # before any suite prints its result
    any_failed = False
    for suite in suites:
        report = SUITES[suite](lo, hi)
        any_failed = any_failed or not report.ok
        print(f"{suite:<11} {'PASS' if report.ok else 'FAIL'}  checked={report.checked_count}")
        for index, note in report.informational:
            print(f"  note: index {index}: {note}")
        for index, prop in report.violations[:20]:
            print(f"  FAIL: {prop} (at {index})")
        if len(report.violations) > 20:
            print(f"  ... and {len(report.violations) - 20} more")
    return EXIT_VERIFY_FAILED if any_failed else EXIT_OK


# ----------------------------- parser -----------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sternseq",
        description="Stern diatomic sequence: values, record-setters, verification.",
        epilog=(
            f"Dense scans are limited to indices below 2**{DEFAULT_MAX_BITS} "
            f"by default (override with {MAX_BITS_ENV_VAR})."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="print one sequence value")
    p_value.add_argument("n", type=int)
    p_value.add_argument("--convention", choices=("A", "S"), default="A")
    p_value.add_argument(
        "--method", choices=("recurrence", "matrix", "dp"), default="recurrence"
    )
    p_value.set_defaults(func=cmd_value)

    p_records = sub.add_parser("records", help="list record-setters")
    group = p_records.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-bits", type=int, help="all records below 2**K")
    group.add_argument("--bits", type=int, help="records with exactly K bits")
    p_records.add_argument("--convention", choices=("A", "S"), default="A")
    p_records.add_argument("--source", choices=("scan", "closed-form"), default="scan")
    p_records.add_argument("--format", choices=FORMATS, default="plain")
    p_records.add_argument("--output", help="write to a file instead of stdout")
    p_records.set_defaults(func=cmd_records)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--k-range", default="1..12", help="bit-length range, e.g. 12..24")
    p_verify.add_argument("--suites", help=f"comma-separated subset of {','.join(SUITES)}")
    p_verify.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="emit n, a(n), running-maximum rows")
    p_plot.add_argument("--max", type=int, required=True)
    p_plot.add_argument("--format", choices=("csv", "plain"), default="csv")
    p_plot.add_argument("--output", help="write to a file instead of stdout")
    p_plot.set_defaults(func=cmd_plot)

    p_table = sub.add_parser(
        "table",
        help="reproduce a reference table: 1 = first values, "
        "2 = first record-setters, 3 = per-bit-length record-setters",
    )
    p_table.add_argument("which", type=int, choices=(1, 2, 3))
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        memory_ceiling_bits()  # checked before parsing, so that --help reports a bad value too
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = build_parser().parse_args(argv)
    try:
        with _output(None):  # so that what the subcommands print is flushed and checked here
            return args.func(args)
    except BrokenPipeError:
        # What is still buffered goes to the null device, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (UsageError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
