"""Tests for the brute-force record scan and the exhaustive audits."""

import itertools
import re

import pytest

from sternseq import (
    AuditReport,
    BudgetExceededError,
    audit_substring_properties,
    fib,
    g_value,
    records_scan,
    stern_s,
    verify_extremal_lemmas,
)
from sternseq.budget import MAX_BITS_ENV_VAR
from sternseq.closedform import kbit_listing, scan_listing
from sternseq.records import _block_strings, shifted_listing
from sternseq.tables import FIRST_RECORDS, SMALL_BITLENGTH_RECORDS


class TestRecordsScan:
    def test_first_records_match_reference(self):
        pairs = records_scan(8, "A")
        assert pairs[: len(FIRST_RECORDS)] == list(FIRST_RECORDS)
        # The reference list is exactly the records with index <= 147;
        # three more 8-bit records follow below 2**8.
        assert pairs[len(FIRST_RECORDS) :] == [(149, 29), (165, 30), (171, 34)]

    def test_smallest_scan(self):
        assert records_scan(1, "A") == [(0, 0), (1, 1)]

    def test_shifted_convention_matches_reference(self):
        pairs = records_scan(8, "S")
        expected = [(0, 1)] + [(v - 1, a) for v, a in FIRST_RECORDS[2:]]
        assert pairs[: len(expected)] == expected

    def test_shifted_records_are_translates(self):
        # Every positive record index of a corresponds to the index one
        # less for s, with the same value.
        a_recs = records_scan(12, "A")
        s_recs = records_scan(12, "S")
        assert [i for i, _ in s_recs] == [i - 1 for i, _ in a_recs if i >= 1]
        assert [v for _, v in s_recs] == [v for i, v in a_recs if i >= 1]

    @pytest.mark.parametrize("k", range(1, 15))
    def test_shifted_records_match_running_maximum_of_s(self, k):
        # Independent of the "A" scan that records_scan(k, "S") reads.
        naive, best = [], -1
        for n in range(1 << k):
            v = stern_s(n)
            if v > best:
                naive.append((n, v))
                best = v
        assert records_scan(k, "S") == naive

    def test_both_conventions_share_one_cached_scan(self):
        from sternseq import records as records_module

        records_module._records_scan_cached.cache_clear()
        records_scan(11, "A")
        records_scan(11, "S")
        info = records_module._records_scan_cached.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_records_strictly_increase(self):
        recs = records_scan(10, "A")
        assert all(a[1] < b[1] for a, b in zip(recs, recs[1:]))
        assert all(a[0] < b[0] for a, b in zip(recs, recs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            records_scan(0, "A")
        with pytest.raises(ValueError, match="convention must be 'A' or 'S', got 'a'"):
            records_scan(4, "a")

    def test_budget(self, monkeypatch):
        monkeypatch.setenv(MAX_BITS_ENV_VAR, "8")
        with pytest.raises(BudgetExceededError):
            records_scan(9, "A")
        records_scan(8, "A")


@pytest.fixture(scope="module")
def rows_by_bits():
    """``{k: [(bits, index, value), ...]}`` for k = 1..24, from one scan listing."""
    return {
        k: [(format(index, "b"), index, value) for index, value, _, _ in rows]
        for k, rows in scan_listing(range(1, 25))
    }


class TestRecordsInBitlength:
    def test_five_bit_records(self, rows_by_bits):
        assert rows_by_bits[5] == [
            ("10011", 19, 7),
            ("10101", 21, 8),
        ]

    def test_two_bit_records(self, rows_by_bits):
        assert [(index, value) for _, index, value in rows_by_bits[2]] == [(3, 2)]

    def test_twelve_bit_records(self, rows_by_bits):
        recs = rows_by_bits[12]
        assert len(recs) == 8
        assert recs[0][:2] == ("100010101011", 2219)
        assert recs[-1][:2] == ("101010101011", 2731)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_small_rows_match_reference(self, rows_by_bits, k):
        assert tuple(bits for bits, _, _ in rows_by_bits[k]) == SMALL_BITLENGTH_RECORDS[k]

    @pytest.mark.parametrize("k", range(12, 17))
    def test_count_law(self, rows_by_bits, k):
        assert len(rows_by_bits[k]) == (3 * k) // 4 - (-1) ** k

    @pytest.mark.parametrize("k", range(2, 25))
    def test_largest_record_per_bitlength_is_fibonacci(self, rows_by_bits, k):
        assert max(value for _, _, value in rows_by_bits[k]) == fib(k + 1)

    def test_scans_are_prefix_consistent(self):
        longer = records_scan(14, "A")
        shorter = records_scan(10, "A")
        assert longer[: len(shorter)] == shorter


def _running_maximum(shift, k_max=12):
    """Records of ``n -> a(n + shift)`` below ``2**k_max``, by a plain running maximum."""
    from sternseq import stern_a

    found, best = [], -1
    for n in range(1 << k_max):
        v = stern_a(n + shift)
        if v > best:
            found.append((n, v))
            best = v
    return found


_RUNNING_MAXIMUM = {"A": _running_maximum(0), "S": _running_maximum(1)}


@pytest.mark.parametrize("source", [scan_listing, kbit_listing], ids=["scan", "closed-form"])
def test_shifted_listing_is_running_maximum_of_s_by_bit_length(source):
    # Independent of the "A" listings that shifted_listing reads.
    naive = [(n.bit_length(), n, v) for n, v in _running_maximum(1, k_max=14)]
    for k_values in [*(range(k, k + 1) for k in range(15)), range(0, 15)]:
        ks, found = [], []
        for k, rows in shifted_listing(source, k_values):
            ks.append(k)
            for index, value, family, p in rows:
                found.append((k, int(index), int(value)))
                if family is not None:
                    assert family.bits(k // 2, p) == format(int(index), "b")
        assert ks == [k for k in k_values if k != 1]  # s-index 0 has k 0; none has 1 bit
        assert found == [(k, n, v) for k, n, v in naive if k in k_values]


def _dense_records(k, convention):
    """``records_scan(k, convention)`` read from the dense pass, ``core.running_windows``.

    "A" reads ``a`` on ``[0, 2**k)``, "S" reads it on ``[1, 2**k]``; a record is
    an index where the running maximum rises, moved down by the pass's start.
    """
    import numpy as np

    from sternseq.core import running_windows

    lo = 0 if convention == "A" else 1
    found, top = [], -1
    for start, _, running in running_windows(lo, (1 << k) + lo):
        running = running.astype(np.int64)
        if running[-1] > top:
            rises = np.flatnonzero(np.diff(running, prepend=top) > 0)
            found.extend(zip((rises + start - lo).tolist(), running[rises].tolist()))
            top = int(running[-1])
    return found


_DENSE_MAX_BITS = 22


@pytest.fixture(scope="module")
def dense_records():
    """The dense pass's records below ``2**22``, in each convention."""
    return {c: _dense_records(_DENSE_MAX_BITS, c) for c in ("A", "S")}


@pytest.mark.parametrize("convention", ["A", "S"])
@pytest.mark.parametrize("k", range(1, _DENSE_MAX_BITS + 1))
def test_scan_matches_the_dense_pass(dense_records, k, convention):
    assert records_scan(k, convention) == [
        (n, v) for n, v in dense_records[convention] if n < 1 << k
    ]


def test_split_identity_exhaustively():
    # The scan's one premise, for every prefix m < 2**8, L <= 8 more bits and 0 <= t <= 2**L.
    a = [0, 1]
    while len(a) <= (1 << 16) + (1 << 8) + 1:
        n = len(a)
        a.append(a[n // 2] if n % 2 == 0 else a[n // 2] + a[n // 2 + 1])
    for L in range(9):
        for t in range((1 << L) + 1):
            assert a[(1 << L) - t] + a[t] == a[(1 << L) + t]
            for m in range(1 << 8):
                assert a[(m << L) + t] == a[(1 << L) - t] * a[m] + a[t] * a[m + 1]


class TestScanCells:
    @pytest.fixture
    def records_module(self):
        from sternseq import records as records_module

        records_module._records_scan_cached.cache_clear()
        yield records_module
        records_module._records_scan_cached.cache_clear()

    @pytest.mark.parametrize("convention", ["A", "S"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 37, 64])
    def test_every_chunk_size_matches_running_maximum(self, monkeypatch, chunk, convention):
        # Small windows carry the dense pass's running maximum across many
        # boundaries; window size 1 makes every record the first index of its window.
        from sternseq import core

        monkeypatch.setattr(core, "_WINDOW", chunk)
        for k in range(1, 13):
            expected = [(n, v) for n, v in _RUNNING_MAXIMUM[convention] if n < 1 << k]
            assert _dense_records(k, convention) == expected

    def test_index_and_value_are_python_ints(self, records_module):
        for convention in ("A", "S"):
            for index, value in records_scan(12, convention):
                assert type(index) is int and type(value) is int

    @pytest.mark.parametrize("k", [1, 12, 21])
    def test_scan_asks_for_the_narrowest_exact_cells(self, monkeypatch, k):
        # The dense pass that plot reads, over the indices below 2**k.
        import numpy as np

        from sternseq import core
        from sternseq.core import _cell_dtype, running_windows

        cells = []
        stern_range = core.stern_range

        def spy(lo, hi):
            window = stern_range(lo, hi)
            cells.append(window.dtype)
            return window

        monkeypatch.setattr(core, "stern_range", spy)
        for _ in running_windows(0, 1 << k):
            pass
        assert cells and set(cells) == {_cell_dtype(k)} == {np.dtype(np.uint32)}


class TestSubstringAudit:
    def test_audit_to_twelve_bits(self):
        report = audit_substring_properties(12)
        assert report.ok
        assert report.violations == []
        assert report.checked_count == 8
        assert report.informational == [(72, "allowed-exception-1001000")]

    def test_informational_band_only(self):
        report = audit_substring_properties(7)
        assert report.checked_count == 0
        assert (72, "allowed-exception-1001000") in report.informational
        assert report.violations == []

    def test_default_informational_is_empty_and_immutable(self):
        # The default is one object that every report shares, so it may not be mutable.
        first, second = AuditReport([], 0), AuditReport([], 0)
        assert first.informational == () == second.informational
        with pytest.raises(AttributeError):
            first.informational.append((1, "note"))
        assert first.ok

    def test_vacuous_audit(self):
        report = audit_substring_properties(1)
        assert report.ok
        assert report.checked_count == 0
        assert report.informational == []

    def test_empty_range_is_rejected(self):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            audit_substring_properties(0)

    def test_audit_to_sixteen_bits(self):
        report = audit_substring_properties(16)
        assert report.ok
        assert report.checked_count == sum(
            (3 * k) // 4 - (-1) ** k for k in range(12, 17)
        )

    def test_records_decompose_into_blocks(self):
        # Direct restatement of what the audit asserts, for one row.
        for bits in [format(i, "b") for i, _ in records_scan(14, "S") if i.bit_length() == 14]:
            assert "11" not in bits
            assert "10000" not in bits
            assert bits.find("1000", 1) == -1
            rest = bits
            while rest:
                assert rest[0] == "1"
                zeros = len(rest[1:]) - len(rest[1:].lstrip("0"))
                take = min(zeros, 3)
                assert take >= 1
                rest = rest[1 + take :]


class TestExtremalLemmas:
    def test_exhaustive_checks_pass(self):
        report = verify_extremal_lemmas(8)
        assert report.ok
        assert report.violations == []
        assert report.checked_count > 800

    def test_two_hundreds_maximum_length_eight(self):
        # Independent re-derivation: all length-8 strings built from
        # 10/100 blocks with exactly two 100s.
        strings = {
            "".join(blocks)
            for blocks in itertools.permutations(["100", "100", "10"], 3)
        }
        values = {x: g_value(x) for x in strings}
        assert max(values.values()) == 30 == fib(8) + fib(4) ** 2
        assert max(values, key=values.get) == "10100100"

    def test_single_hundred_minimum_length_seven(self):
        candidates = ["10" * i + "0" + "10" * (3 - i) for i in range(1, 4)]
        values = [g_value(x) for x in candidates]
        assert min(values) == 18 == fib(7) + fib(5)
        assert values[0] == 18  # attained at the leftmost placement

    def test_fibonacci_product_monotonicity_small(self):
        n = 3
        assert [fib(2 * i + 1) * fib(2 * n - 2 * i) for i in range(n)] == [8, 6, 5]

    @pytest.mark.parametrize("length", range(1, 25))
    def test_block_strings_are_every_match_in_index_order(self, length):
        # Every binary string up to 16 digits; past that, every concatenation of blocks.
        if length <= 16:
            candidates = (format(i, f"0{length}b") for i in range(2**length))
        else:
            candidates = (
                "".join(blocks)
                for n in range(length // 3, length // 2 + 1)
                for blocks in itertools.product(["10", "100"], repeat=n)
            )
        matches = [x for x in candidates if len(x) == length and re.fullmatch("(10|100)+", x)]
        for hundreds in (1, 2, 3):
            strings = list(_block_strings(length, hundreds))
            assert set(strings) == {x for x in matches if x.count("100") == hundreds}
            assert all(int(x, 2) < int(y, 2) for x, y in zip(strings, strings[1:]))

    @pytest.mark.parametrize(
        "name, perturbed, expected",
        [
            ("g_value", lambda x: g_value(x) + (x == "10100100"), [(164, "two-100-max-length-8")]),
            (
                "g_value",
                lambda x: g_value(x) + 1000 * (len(x) == 13 and x.count("100") == 3),
                [(13, "three-vs-one-100-length-13")],
            ),
            (
                "fib",
                lambda i: fib(i) + (i == 9),
                [(298, "single-100-min-n-4"), (6, "odd-fib-products-not-decreasing-n-6")],
            ),
        ],
        ids=["two-100-max", "three-vs-one-100", "single-100-min-and-fib-products"],
    )
    def test_each_lemma_can_fail(self, monkeypatch, name, perturbed, expected):
        monkeypatch.setattr(f"sternseq.records.{name}", perturbed)
        report = verify_extremal_lemmas(8)
        assert not report.ok and report.checked_count == 846
        assert set(expected) <= set(report.violations)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_extremal_lemmas(0)
        report = verify_extremal_lemmas(11)  # no upper limit, only a cost
        assert report.ok and report.checked_count > verify_extremal_lemmas(8).checked_count
