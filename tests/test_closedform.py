"""Tests for the closed-form record-setter families and helpers."""

import decimal
import itertools
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sternseq import count_kbit, cross_validate, fib, g_value, lucas, stern_a
from sternseq import closedform, records_scan
from sternseq import records as records_module
from sternseq.budget import MAX_BITS_ENV_VAR, BudgetExceededError
from sternseq.closedform import kbit_listing, kbit_rows, scan_listing
from sternseq.records import shifted_listing
from sternseq.tables import SMALL_BITLENGTH_MAX, SMALL_BITLENGTH_RECORDS

#: An exact decimal context, as :func:`kbit_listing` builds its tables in.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


class TestFibLucas:
    def test_fibonacci_examples(self):
        assert fib(12) == 144
        assert fib(0) == 0
        assert fib(90) == 2880067194370816120 == fib(89) + fib(88)

    def test_lucas_examples(self):
        assert lucas(0) == 2
        assert lucas(1) == 1
        assert lucas(10) == 123 == fib(9) + fib(11)

    @pytest.mark.parametrize("n", range(1, 91))
    def test_lucas_fibonacci_identity(self, n):
        assert lucas(n) == fib(n - 1) + fib(n + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fib(-1)
        with pytest.raises(ValueError):
            lucas(-2)

    def test_no_cache(self):
        assert not hasattr(fib, "cache_info")
        assert not hasattr(lucas, "cache_info")

    def test_fast_doubling_matches_additive_loop(self):
        f, f_next = 0, 1
        l, l_next = 2, 1
        for n in range(2001):
            assert fib(n) == f
            assert lucas(n) == l
            f, f_next = f_next, f + f_next
            l, l_next = l_next, l + l_next

    @pytest.mark.parametrize("m", [10**5, 10**5 + 1])
    def test_doubling_and_cassini_at_large_n(self, m):
        f_prev, f, f_next = fib(m - 1), fib(m), fib(m + 1)
        assert fib(2 * m) == f * lucas(m)
        assert f_prev * f_next - f * f == (-1) ** m

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3, 500])
    def test_table_matches_scalars(self, k_max):
        # The closed forms' one table builder, in both number types.
        m = 2 * (k_max // 2) + 2
        for one in (1, Decimal(1)):
            with decimal.localcontext(_EXACT):
                T, F = closedform._tables(k_max, one)
                assert T == [2**i // 3 for i in range(m + 1)]
                # The alternating numbers: (10)^j and (10)^j 1 read in binary.
                assert [T[2 * j + 1] for j in range(1, m // 2)] == [
                    int("10" * j, 2) for j in range(1, m // 2)
                ]
                assert [T[2 * j + 2] for j in range(m // 2)] == [
                    int("10" * j + "1", 2) for j in range(m // 2)
                ]
                assert F == [fib(i) for i in range(m + 1)]
            assert {type(x) for x in T + F} == {type(one)}


def _runs(k):
    """``(family_id, parameters)`` of each family run of ``kbit_rows(k)``, in row order."""
    return [
        (family.family_id, [p for _, _, _, p in rows])
        for family, rows in itertools.groupby(kbit_rows(k), key=lambda row: row[2])
    ]


class TestFamilies:
    def test_family_counts(self):
        # The module docstring's ranges: even k = 2n runs E1 (0 <= a <= n-3),
        # E2 (1 <= b <= floor(n/2)) and E3; odd k = 2n+1 runs O1, O2,
        # O3 (1 <= b <= ceil(n/2)-1), O4 (0 <= a <= n-2) and O5.
        for k in range(12, 65):
            n = k // 2
            if k % 2:
                expected = [
                    ("O1", [None]),
                    ("O2", [None]),
                    ("O3", list(range(1, (n + 1) // 2))),
                    ("O4", list(range(0, n - 1))),
                    ("O5", [None]),
                ]
            else:
                expected = [
                    ("E1", list(range(0, n - 2))),
                    ("E2", list(range(1, n // 2 + 1))),
                    ("E3", [None]),
                ]
            assert _runs(k) == expected
        # even k = 2n: (n-2) + floor(n/2) + 1; odd k = 2n+1: 3 + (ceil(n/2)-1) + (n-1)
        assert [len(list(kbit_rows(k))) for k in (12, 13, 14, 15)] == [8, 10, 9, 12]


class TestClosedForms:
    def test_even_index_examples(self):
        rows = list(kbit_rows(12))
        (index, _, e1, p), (last, _, e3, _) = rows[0], rows[-1]
        assert (e1.family_id, p, index) == ("E1", 0, 2219)
        assert (e3.family_id, last) == ("E3", 2731)
        assert int(e1.bits(6, 0), 2) == 2219

    def test_odd_index_examples(self):
        rows = list(kbit_rows(13))
        (_, _, o1, _), (index, _, o5, _) = rows[0], rows[-1]
        assert (o5.family_id, index) == ("O5", 5461)
        assert o5.bits(6, None) == "1010101010101"
        assert (o1.family_id, o1.bits(6, None)) == ("O1", "1000101010101")

    def test_stern_value_examples(self):
        rows12, rows13 = list(kbit_rows(12)), list(kbit_rows(13))
        assert rows12[0][1] == 157
        assert rows12[-1][1] == 233 == fib(13)
        assert rows13[-1][1] == 377 == fib(14)
        assert stern_a(2219) == 157
        assert stern_a(5461) == 377

    @pytest.mark.parametrize("k", [*range(12, 301), 599, 600, 601, 6000, 6001])
    def test_index_formula_matches_rendering(self, k):
        # Each row's family bit pattern is its index formula's value in binary.
        for index, _, family, p in kbit_rows(k):
            assert family.bits(k // 2, p) == format(index, "b")

    @pytest.mark.parametrize("k", [*range(12, 121), 599, 600, 601, 6000, 6001])
    def test_decimal_index_formula_matches_rendering(self, k):
        # The same in the listing's exact decimal, the number type `records` writes.
        (_, rows), = kbit_listing([k])
        for index, _, family, p in rows:
            assert index == int(family.bits(k // 2, p), 2)

    @pytest.mark.parametrize("k", range(12, 41))
    def test_stern_value_formula_matches_matrix_calculus(self, k):
        # Large-k oracle: a(v) = s(v-1) = G(binary(v-1)) via the
        # transfer-matrix product, no scan involved; v is read off the
        # family's bit pattern, not its index formula.
        for _, value, family, p in kbit_rows(k):
            index = int(family.bits(k // 2, p), 2)
            assert value == g_value(format(index - 1, "b"))


class TestGenerateKbit:
    def test_small_k_from_table(self):
        entries = list(kbit_rows(5))
        assert [(format(i, "b"), i, v) for i, v, _, _ in entries] == [
            ("10011", 19, 7),
            ("10101", 21, 8),
        ]
        assert next(kbit_rows(5))[2:] == (None, None)

    def test_twelve_bits(self):
        indices = [i for i, _, _, _ in kbit_rows(12)]
        assert len(indices) == 8
        assert (format(indices[0], "b"), indices[0]) == ("100010101011", 2219)
        assert (format(indices[-1], "b"), indices[-1]) == ("101010101011", 2731)
        assert [family_id for family_id, _ in _runs(12)] == ["E1", "E2", "E3"]

    def test_thirteen_bits(self):
        indices = [i for i, _, _, _ in kbit_rows(13)]
        assert len(indices) == 10
        assert format(indices[0], "b") == "1000101010101"
        assert indices[-1] == 5461
        assert [family_id for family_id, _ in _runs(13)] == ["O1", "O2", "O3", "O4", "O5"]

    @pytest.mark.parametrize("k", range(12, 65))
    def test_structural_invariants(self, k):
        rows = list(kbit_rows(k))
        indices = [i for i, _, _, _ in rows]
        assert len(indices) == count_kbit(k) == (3 * k) // 4 - (-1) ** k
        assert all(i.bit_length() == k for i in indices)
        assert all(a < b for a, b in zip(indices, indices[1:]))
        assert all(format(i, "b") == family.bits(k // 2, p) for i, _, family, p in rows)

    @pytest.mark.parametrize("k", [1000, 1001])
    def test_deep_row_values_match_recurrence(self, k):
        # Independent of the table: the recurrence on each index.  The
        # rows must not depend on the table size either: k's rows read
        # from tables built for 3k equal those from tables built for k.
        for index, value, _, _ in kbit_rows(k):
            assert value == stern_a(index)
        (k_read, rows), _ = kbit_listing((k, 3 * k))
        assert k_read == k
        assert list(rows) == list(kbit_rows(k))

    def test_decimal_rows_do_not_depend_on_table_size(self):
        # `sternseq records` reads decimal tables built for its longest bit length.
        k = 101
        (_, rows), _ = kbit_listing((k, 3 * k))
        rows = list(rows)
        assert rows == list(next(kbit_listing((k,)))[1]) == list(kbit_rows(k))
        assert {type(n) for index, value, _, _ in rows for n in (index, value)} == {Decimal}

    def test_decimal_rows_stay_exact_in_any_context(self):
        # The reader's context, set before the listing, rounds to 5 digits and traps nothing.
        expected = list(kbit_rows(600))
        with decimal.localcontext(decimal.Context(prec=5, traps=[])) as context:
            settings = (context.prec, context.Emax, dict(context.traps), dict(context.flags))
            k, rows = next(kbit_listing([600]))  # the listing is closed here, its rows are not
            rows = list(rows)
            shifted = [row[0] for _, s in shifted_listing(kbit_listing, range(600, 601)) for row in s]
            assert decimal.getcontext() is context
            assert (context.prec, context.Emax, dict(context.traps), dict(context.flags)) == settings
        assert (k, rows) == (600, expected)
        assert {type(n) for index, value, _, _ in rows for n in (index, value)} == {Decimal}
        assert shifted == [index - 1 for index, _, _, _ in expected]

    def test_validation(self):
        with pytest.raises(ValueError):
            list(kbit_rows(0))

    @pytest.mark.parametrize(
        "rows_of", [kbit_rows, lambda k: next(kbit_listing([k]))[1]], ids=["int", "Decimal"]
    )
    def test_row_checks_hold_for_both_number_types(self, monkeypatch, rows_of):
        # E3, the last 12-bit row, pushed past 2**12 by a corrupted index body.
        e3 = closedform._FAMILIES["E3"]
        corrupted = e3._replace(index=lambda n, p, T: e3.index(n, p, T) + T[2 * n] + 1)
        monkeypatch.setitem(closedform._FAMILIES, "E3", corrupted)
        rows = rows_of(12)
        assert [i for i, _, _, _ in itertools.islice(rows, 7)][-1] == 2709
        with pytest.raises(RuntimeError, match="out of order or outside k bits"):
            next(rows)

    def test_family_run_out_of_parameter_order_fails(self, monkeypatch):
        # A row is one run per family, each in parameter order; a run
        # whose index falls is caught, not written out of order.
        e1 = closedform._FAMILIES["E1"]
        reversed_run = e1._replace(params=lambda n: e1.params(n)[::-1])
        monkeypatch.setitem(closedform._FAMILIES, "E1", reversed_run)
        for rows in (kbit_rows(14), next(kbit_listing([14]))[1]):
            with pytest.raises(RuntimeError, match="out of order or outside k bits"):
                list(rows)

    def test_row_count_check(self, monkeypatch):
        # E2 one parameter wider: 9 rows of 12 bits where count_kbit(12) is 8.
        e2 = closedform._FAMILIES["E2"]
        widened = e2._replace(params=lambda n: range(1, n // 2 + 2))
        monkeypatch.setitem(closedform._FAMILIES, "E2", widened)
        with pytest.raises(RuntimeError, match="gives 9 rows"):
            next(kbit_rows(12))
        with pytest.raises(RuntimeError, match="gives 9 rows"):
            next(next(kbit_listing([12]))[1])

    @pytest.mark.parametrize("k, expected", [(12, 8), (13, 10), (7, 5), (1, 1), (11, 8)])
    def test_count_kbit(self, k, expected):
        assert count_kbit(k) == expected
        assert count_kbit(k) == len(
            list(kbit_rows(k)) if k >= 12 else SMALL_BITLENGTH_RECORDS[k]
        )


class TestScanListing:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 14), st.integers(0, 14))
    @example(0, 0)  # index 0 alone: (0, [(0, 0, None, None)])
    def test_scan_rows_with_closed_form_families(self, lo, hi):
        assume(lo <= hi)
        listing = [(k, list(rows)) for k, rows in scan_listing(range(lo, hi + 1))]
        assert [k for k, _ in listing] == list(range(lo, hi + 1))
        scan = records_scan(max(hi, 1))
        for k, rows in listing:
            assert [(i, v) for i, v, _, _ in rows] == [(i, v) for i, v in scan if i.bit_length() == k]
            families = {i: (f, p) for i, _, f, p in kbit_rows(k)} if k else {}
            assert [(f, p) for i, _, f, p in rows] == [
                families.get(i, (None, None)) for i, _, _, _ in rows
            ]
            if k <= SMALL_BITLENGTH_MAX:
                assert all(f is None and p is None for _, _, f, p in rows)
            else:
                assert all(f is not None for _, _, f, _ in rows)

    @pytest.mark.parametrize("k_values", [range(12, 12), range(1, 1), range(5, 3)])
    def test_empty_range_scans_nothing(self, k_values):
        records_module._records_scan_cached.cache_clear()
        assert list(scan_listing(k_values)) == []
        assert records_module._records_scan_cached.cache_info().misses == 0

    def test_scan_and_ceiling_check_run_on_the_call(self, monkeypatch):
        monkeypatch.setenv(MAX_BITS_ENV_VAR, "8")
        with pytest.raises(BudgetExceededError, match=r"below 2\*\*11 "):
            scan_listing(range(1, 12))  # not read
        monkeypatch.setenv(MAX_BITS_ENV_VAR, "11")
        records_module._records_scan_cached.cache_clear()
        scan_listing(range(1, 12))
        assert records_module._records_scan_cached.cache_info().misses == 1

    def test_negative_bit_lengths_are_rejected_by_both_sources(self):
        records_module._records_scan_cached.cache_clear()
        with pytest.raises(ValueError, match="bit length must be >= 0, got -2"):
            scan_listing(range(-2, 3))  # on the call, before the scan
        assert records_module._records_scan_cached.cache_info().misses == 0
        with pytest.raises(ValueError, match="bit length must be >= 0, got -2"):
            kbit_listing(range(-2, 3))  # on the call, before the tables


class TestCrossValidation:
    @pytest.mark.parametrize("k", range(1, 25))
    def test_against_brute_force(self, k):
        report = cross_validate(k, k)
        assert report.ok, report.violations
        assert report.violations == []

    def test_beyond_default_ceiling(self, monkeypatch):
        from sternseq.budget import MAX_BITS_ENV_VAR

        monkeypatch.setenv(MAX_BITS_ENV_VAR, "26")
        for k in (25, 26):
            report = cross_validate(k, k)
            assert report.ok, report.violations

    def test_one_scan_covers_the_range(self):
        report = cross_validate(1, 16)
        assert (report.violations, report.checked_count) == ([], 16)

    def test_corrupted_index_formula_fails(self, monkeypatch):
        # O5 two above its rendering: still the last 13- and 15-bit row.
        o5 = closedform._FAMILIES["O5"]
        corrupted = o5._replace(index=lambda n, p, T: o5.index(n, p, T) + 2)
        monkeypatch.setitem(closedform._FAMILIES, "O5", corrupted)
        report = cross_validate(12, 16)
        assert not report.ok
        assert (5461, "O5(None) formula gives 5463") in report.violations
        assert (5461, "closed form gives index 5463") in report.violations

    @pytest.mark.parametrize("lo, hi", [(0, 5), (-1, 3), (6, 5)])
    def test_invalid_range(self, lo, hi):
        with pytest.raises(ValueError):
            cross_validate(lo, hi)
