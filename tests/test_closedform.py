"""Tests for the closed-form record-setter families and helpers."""

import itertools
from decimal import Decimal

import pytest

from sternseq import (
    FamilyDescriptor,
    closed_form_index,
    closed_form_stern_value,
    count_kbit,
    cross_validate,
    family_descriptors,
    fib,
    fib_lucas_table,
    g_value,
    generate_kbit,
    lucas,
    render_bits,
    stern_a,
)
from sternseq import closedform
from sternseq.closedform import kbit_rows
from sternseq.tables import SMALL_BITLENGTH_RECORDS


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
        with pytest.raises(ValueError):
            fib_lucas_table(-1)

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

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 500])
    def test_table_matches_scalars(self, m):
        F, L = fib_lucas_table(m)
        assert F == [fib(i) for i in range(m + 1)]
        assert L == [lucas(i) for i in range(m + 1)]


class TestFamilies:
    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            FamilyDescriptor("even", "O1")
        with pytest.raises(ValueError):
            FamilyDescriptor("sideways", "E1", 0)

    def test_parameter_ranges_enforced(self):
        n = 6
        with pytest.raises(ValueError):
            closed_form_index(FamilyDescriptor("even", "E1", n - 2), n)
        with pytest.raises(ValueError):
            closed_form_index(FamilyDescriptor("even", "E2", 0), n)
        with pytest.raises(ValueError):
            closed_form_index(FamilyDescriptor("odd", "O3", (n + 1) // 2), n)
        with pytest.raises(ValueError):
            closed_form_index(FamilyDescriptor("odd", "O4", n - 1), n)
        with pytest.raises(ValueError):
            render_bits(FamilyDescriptor("even", "E3", 1), n)

    def test_family_counts(self):
        # even k = 2n: (n-2) + floor(n/2) + 1; odd k = 2n+1: 3 + (ceil(n/2)-1) + (n-1)
        assert len(family_descriptors(12)) == 8
        assert len(family_descriptors(13)) == 10
        assert len(family_descriptors(14)) == 9
        assert len(family_descriptors(15)) == 12

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            family_descriptors(11)


class TestClosedForms:
    def test_even_index_examples(self):
        n = 6
        assert closed_form_index(FamilyDescriptor("even", "E1", 0), n) == 2219
        assert closed_form_index(FamilyDescriptor("even", "E3"), n) == 2731
        assert int(render_bits(FamilyDescriptor("even", "E1", 0), n), 2) == 2219

    def test_odd_index_examples(self):
        n = 6
        assert closed_form_index(FamilyDescriptor("odd", "O5"), n) == 5461
        assert render_bits(FamilyDescriptor("odd", "O5"), n) == "1010101010101"
        assert render_bits(FamilyDescriptor("odd", "O1"), n) == "1000101010101"

    def test_stern_value_examples(self):
        n = 6
        assert closed_form_stern_value(FamilyDescriptor("even", "E1", 0), n) == 157
        assert closed_form_stern_value(FamilyDescriptor("even", "E3"), n) == 233 == fib(13)
        assert closed_form_stern_value(FamilyDescriptor("odd", "O5"), n) == 377 == fib(14)
        assert stern_a(2219) == 157
        assert stern_a(5461) == 377

    def test_stern_value_rejects_negative_fibonacci_indices(self):
        for descriptor, n in [
            (FamilyDescriptor("odd", "O1"), 1),
            (FamilyDescriptor("odd", "O2"), 3),
            (FamilyDescriptor("even", "E3"), -1),
        ]:
            with pytest.raises(ValueError):
                closed_form_stern_value(descriptor, n)
        o2 = FamilyDescriptor("odd", "O2")
        assert closed_form_stern_value(o2, 4) == stern_a(int(render_bits(o2, 4), 2)) == 34

    @pytest.mark.parametrize("k", range(12, 65))
    def test_index_formula_matches_rendering(self, k):
        n = k // 2
        for descriptor in family_descriptors(k):
            assert closed_form_index(descriptor, n) == int(render_bits(descriptor, n), 2)

    @pytest.mark.parametrize("k", range(12, 41))
    def test_stern_value_formula_matches_matrix_calculus(self, k):
        # Large-k oracle: a(v) = s(v-1) = G(binary(v-1)) via the
        # transfer-matrix product, no scan involved.
        n = k // 2
        for descriptor in family_descriptors(k):
            index = int(render_bits(descriptor, n), 2)
            assert closed_form_stern_value(descriptor, n) == g_value(format(index - 1, "b"))


class TestGenerateKbit:
    def test_small_k_from_table(self):
        entries = generate_kbit(5)
        assert [(e.bits, e.index, e.value) for e in entries] == [
            ("10011", 19, 7),
            ("10101", 21, 8),
        ]
        assert entries[0].descriptor is None

    def test_twelve_bits(self):
        entries = generate_kbit(12)
        assert len(entries) == 8
        assert (entries[0].bits, entries[0].index) == ("100010101011", 2219)
        assert (entries[-1].bits, entries[-1].index) == ("101010101011", 2731)
        assert entries[0].descriptor.family_id == "E1"
        assert entries[-1].descriptor.family_id == "E3"

    def test_thirteen_bits(self):
        entries = generate_kbit(13)
        assert len(entries) == 10
        assert entries[0].bits == "1000101010101"
        assert entries[0].descriptor.family_id == "O1"
        assert entries[-1].index == 5461
        assert entries[-1].descriptor.family_id == "O5"

    @pytest.mark.parametrize("k", range(12, 65))
    def test_structural_invariants(self, k):
        entries = generate_kbit(k)
        assert len(entries) == count_kbit(k) == (3 * k) // 4 - (-1) ** k
        assert all(e.index.bit_length() == k for e in entries)
        assert all(a.index < b.index for a, b in zip(entries, entries[1:]))
        assert all(int(e.bits, 2) == e.index for e in entries)

    @pytest.mark.parametrize("k", [1000, 1001])
    def test_deep_row_values_match_recurrence(self, k):
        # Independent of the table: the recurrence on each index, and the
        # single-descriptor path with a table of its own.
        n = k // 2
        for entry in generate_kbit(k):
            assert entry.value == stern_a(entry.index)
            assert closed_form_stern_value(entry.descriptor, n) == entry.value

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_kbit(0)

    @pytest.mark.parametrize("one", [1, Decimal(1)], ids=["int", "Decimal"])
    def test_row_checks_hold_for_both_number_types(self, monkeypatch, one):
        # E3, the last 12-bit row, pushed past 2**12 by a corrupted index body.
        e3 = closedform._FAMILIES["E3"]
        corrupted = e3._replace(index=lambda n, p, P: e3.index(n, p, P) + P[2 * n])
        monkeypatch.setitem(closedform._FAMILIES, "E3", corrupted)
        rows = kbit_rows(12, one)
        assert [i for i, _, _, _ in itertools.islice(rows, 7)][-1] == 2709
        with pytest.raises(RuntimeError, match="out of order or outside k bits"):
            next(rows)

    def test_family_run_out_of_parameter_order_fails(self, monkeypatch):
        # A row is one run per family, each in parameter order; a run
        # whose index falls is caught, not written out of order.
        e1 = closedform._FAMILIES["E1"]
        reversed_run = e1._replace(params=lambda n: e1.params(n)[::-1])
        monkeypatch.setitem(closedform._FAMILIES, "E1", reversed_run)
        for one in (1, Decimal(1)):
            with pytest.raises(RuntimeError, match="out of order or outside k bits"):
                list(kbit_rows(14, one))

    def test_row_bits_equal_render_bits(self):
        # The rows carry no checked descriptor: their bits must still be
        # the rendered pattern of generate_kbit's descriptor, and the index.
        for k in range(12, 301):
            n = k // 2
            for (index, _, family, p), entry in zip(kbit_rows(k), generate_kbit(k), strict=True):
                assert family.bits(n, p) == render_bits(entry.descriptor, n) == format(index, "b")

    @pytest.mark.parametrize("k, expected", [(12, 8), (13, 10), (7, 5), (1, 1), (11, 8)])
    def test_count_kbit(self, k, expected):
        assert count_kbit(k) == expected
        assert count_kbit(k) == len(
            generate_kbit(k) if k >= 12 else SMALL_BITLENGTH_RECORDS[k]
        )


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
        corrupted = o5._replace(index=lambda n, p, P: o5.index(n, p, P) + 2)
        monkeypatch.setitem(closedform._FAMILIES, "O5", corrupted)
        report = cross_validate(12, 16)
        assert not report.ok
        assert (5461, "O5(None) formula gives 5463") in report.violations
        assert (5461, "closed form gives index 5463") in report.violations

    @pytest.mark.parametrize("lo, hi", [(0, 5), (-1, 3), (6, 5)])
    def test_invalid_range(self, lo, hi):
        with pytest.raises(ValueError):
            cross_validate(lo, hi)
