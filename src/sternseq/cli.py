"""Command-line frontend.

Subcommands::

    value    exact sequence values by recurrence, matrix product, or DP
    records  record-setter listings from brute-force scan or closed forms
    verify   run the verification suites, exit non-zero on any failure
    plot     emit "n, a(n), running maximum" rows for external plotting
    table    reproduce the three frozen reference tables

Exit codes: 0 success (also when the reader stops early, as ``head`` does),
1 verification failure, 2 usage or write error, 3 scan ceiling exceeded: the
indices to scan go beyond the ceiling on index bits (``STERNSEQ_MAX_BITS``),
130 interrupted (``SIGINT``, Ctrl-C).

:func:`main` starts numpy's OpenBLAS with one thread unless
``OPENBLAS_NUM_THREADS`` is set: sternseq calls no BLAS routine, so a
thread pool would only slow start-up.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext
from functools import partial

from .budget import (
    DEFAULT_MAX_BITS,
    MAX_BITS_ENV_VAR,
    BudgetExceededError,
    check_bits_budget,
    memory_ceiling_bits,
)
from .closedform import kbit_listing, scan_listing
from .core import hyperbinary_count_dp, running_windows, stern_a
from .records import records_scan, shifted_listing
from .strings import g_value
from .tables import FIRST_RECORDS, FIRST_RECORDS_BITS, SMALL_BITLENGTH_MAX
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130

FORMATS = ("plain", "csv", "jsonlines", "bfile")


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
        if not path:
            _discard_stdout()
        raise UsageError(f"cannot write {path or 'standard output'}: {exc.strerror}") from exc


def _discard_stdout() -> None:
    """Point standard output at the null device, so that the flush at exit cannot fail."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


#: Per format: the text before the index, between index and bits, and
#: between bits and value, then the line's tail after the value, for a
#: row with a family and for one without.
_LINE_PARTS = {
    "plain": ("", " ", " ", " {family}\n", "\n"),
    "csv": ("", ",", ",", ",{k},{family}\n", ",{k},\n"),
    "jsonlines": (
        '{"index": "', '", "bits": "', '", "value": "',
        '", "k": {k}, "family": "{family}"}}\n', '", "k": {k}}}\n',
    ),
    "bfile": ("", "", " ", "\n", "\n"),
}


def _bits_of(fmt: str, n: int, family):
    """The bits of a row in a run: from its parameter with a family, from its index without."""
    if fmt == "bfile":
        return lambda _: ""
    if not family:
        return lambda index: format(int(index), "b")
    return partial(family.bits, n)


def format_records(listing, fmt: str):
    """Render a listing in an output format, one line per row, each ending in a newline.

    ``listing`` yields ``(k, rows)`` as
    :func:`~sternseq.closedform.kbit_listing` does: the record-setters
    whose index has ``k`` bits, in index order, as rows ``(index, value,
    family, parameter)`` of ``int`` or exact decimal numbers.  A row
    with a family takes its bits from the family's pattern, not from its
    index; ``bfile`` makes no bits.  The text of a line other than its
    index, bits and value is fixed once for each run of rows of one
    family, and each line is made as its row is read.

    ``bfile`` follows the OEIS flat-file convention ("index value" per
    line); ``jsonlines`` string-encodes the integers so arbitrarily large
    values survive tools that parse numbers as doubles.  The family
    column is the family id, if any.  Every ``jsonlines`` field is
    decimal or binary digits, an ASCII family id or an int, so the line
    is the ``json.dumps`` layout written out directly, with nothing to
    escape.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "csv":
        yield "index,bits,value,k,family\n"
    head, after_index, after_bits, family_tail, bare_tail = _LINE_PARTS[fmt]
    for k, rows in listing:
        n = k // 2
        run = 0  # the family of the current run; no row has this one
        for index, value, family, parameter in rows:
            if family is not run:
                run = family
                bits_of = _bits_of(fmt, n, family)
                tail = (family_tail if family else bare_tail).format(
                    k=k, family=family and family.family_id
                )
            bits = bits_of(parameter if family else index)
            yield f"{head}{index!s}{after_index}{bits}{after_bits}{value!s}{tail}"


# ----------------------------- subcommands -----------------------------


def cmd_value(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("the index must be non-negative")
    shifted = n if args.convention == "S" else n - 1
    if args.method == "recurrence":
        value = stern_a(shifted + 1)
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
    k_values = range(k if exact_bits else 0, k + 1)
    source = scan_listing if args.source == "scan" else kbit_listing
    listing = shifted_listing(source, k_values) if args.convention == "S" else source(k_values)
    with _output(args.output) as out:
        out.writelines(format_records(listing, args.format))
    return EXIT_OK


def _decimal_lines(columns, sep: str) -> bytes:
    """Equal-length, non-empty columns of non-negative integers as ASCII lines, one per row.

    Each column is a numpy integer array of its own width (``plot`` puts
    int64 indices beside values in their narrowest cells).  The text is
    laid out position-major: each column gets as many text positions as
    its largest number has digits, then one for ``sep`` (a newline after
    the last column), and each position is one contiguous byte row over
    all the lines.  Digits are filled from the right by division by 10,
    in uint32 when the column has at most 9 digits and in its own cells
    otherwise.  A position left of a number's leading digit holds NUL,
    and the last digit is always written, so 0 is "0".  A column that
    changes value in fewer than a quarter of its rows (``plot``'s running
    maximum) has only the first number of each run formatted, and each
    position's bytes repeated over the run.  The lines are the bytes in
    row-major order with every NUL deleted (no separator is NUL),
    returned as ``bytes`` for a binary stream.
    """
    import numpy as np

    rows = len(columns[0])
    widths = [len(str(int(column.max()))) for column in columns]
    text = np.empty((sum(widths) + len(columns), rows), np.uint8)
    at = 0
    for i, (column, width) in enumerate(zip(columns, widths)):
        changes = column[1:] != column[:-1]
        runs = 4 * np.count_nonzero(changes) < rows
        if runs:
            starts = np.flatnonzero(np.concatenate(([True], changes)))
            column = column[starts]
        if width <= 9:
            column = column.astype(np.uint32, copy=False)
        digits = np.empty((width, len(column)), np.uint8) if runs else text[at : at + width]
        rest = column
        for j in range(width - 1, -1, -1):
            above = rest // 10
            row = digits[j]
            np.subtract(rest, 10 * above, out=row, casting="unsafe")
            row += ord("0")
            if j < width - 1:
                row *= rest > 0  # NUL left of the leading digit
            rest = above
        if runs:
            text[at : at + width] = np.repeat(digits, np.diff(starts, append=rows), axis=1)
        text[at + width] = ord("\n" if i == len(columns) - 1 else sep)
        at += width + 1
    return text.T.tobytes().replace(b"\0", b"")


#: Rows of a window that ``plot`` formats in one call.  A block's text
#: buffers (about 300 KB) stay in the heap and are reused by the next
#: block; those of a whole window (about 3.5 MB) are handed back to the
#: OS when freed and faulted in again by the next window.
_PLOT_BLOCK = 1 << 14


def cmd_plot(args) -> int:
    import numpy as np

    if args.max < 0:
        raise UsageError("--max must be non-negative")
    check_bits_budget(args.max.bit_length(), f"plot of values up to index {args.max}")
    sep = "," if args.format == "csv" else " "
    with _output(args.output) as out:
        out.flush()  # the windows go straight to the byte stream underneath, if there is one
        write = out.buffer.write if hasattr(out, "buffer") else lambda b: out.write(b.decode())
        for lo, values, running in running_windows(0, args.max + 1):
            indices = np.arange(lo, lo + len(values), dtype=np.int64)
            for at in range(0, len(values), _PLOT_BLOCK):
                block = slice(at, at + _PLOT_BLOCK)
                write(_decimal_lines((indices[block], values[block], running[block]), sep))
    return EXIT_OK


def cmd_table(args) -> int:
    if args.which == 1:
        for n in range(16):
            print(n, stern_a(n))
    elif args.which == 2:
        first = records_scan(FIRST_RECORDS_BITS, "A")[: len(FIRST_RECORDS)]
        for i, (index, value) in enumerate(first):
            print(i, index, value)
    else:
        for k, rows in scan_listing(range(1, SMALL_BITLENGTH_MAX + 1)):
            for index, *_ in rows:
                print(k, format(index, "b"), index)
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
    suites = list(SUITES) if args.suites is None else args.suites.split(",")
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise UsageError(f"unknown suites {unknown}; pick from {','.join(SUITES)}")
    if len(set(suites)) < len(suites):
        raise UsageError(f"--suites names a suite more than once: {args.suites!r}")
    # All suites run before any prints: a scan past the ceiling prints nothing.
    reports = [(suite, SUITES[suite](lo, hi)) for suite in suites]
    any_failed = False
    for suite, report in reports:
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
    # Subcommands import numpy lazily, so this is in place when OpenBLAS starts its threads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
        _discard_stdout()  # what is still buffered
        return EXIT_OK
    except (UsageError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
