"""Tests for the sequence core: recurrence, dense windows and rows, hyperbinary oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sternseq import (
    fib,
    hyperbinary_count_dp,
    hyperbinary_enumerate,
    stern_a,
    stern_range,
    stern_s,
)
from sternseq import core
from sternseq.core import running_windows
from sternseq.tables import INITIAL_VALUES

A_FIRST_16 = (0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4)


def _narrowest_cells(hi: int) -> np.dtype:
    """The cells of ``stern_range(lo, hi)``: 32 bits below ``2**45``, 64 below ``2**91``."""
    top = hi - 1
    return np.dtype(np.uint32 if top < 2**45 else np.uint64 if top < 2**91 else object)


class TestSternValues:
    def test_initial_values(self):
        assert tuple(stern_a(n) for n in range(16)) == A_FIRST_16
        assert A_FIRST_16 == INITIAL_VALUES

    def test_known_large_value(self):
        # 2219 = 100010101011_2; value also equals L3*F9 + L1*F8 = 136 + 21.
        assert stern_a(2219) == 157

    @pytest.mark.parametrize("n, expected", [(0, 1), (10, 5), (42, 13)])
    def test_shifted_values(self, n, expected):
        assert stern_s(n) == expected

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            stern_a(-1)

    def test_recurrence_identities_bulk(self):
        # Vectorized check of a(2n) = a(n), a(2n+1) = a(n) + a(n+1) on
        # 10**5 random n, against a dense table built independently of
        # the pairwise iteration in stern_a.
        table = stern_range(0, 1 << 21)
        rng = np.random.default_rng(7)
        n = rng.integers(0, 1 << 20, size=100_000)
        assert np.array_equal(table[2 * n], table[n])
        assert np.array_equal(table[2 * n + 1], table[n] + table[n + 1])

    @given(st.integers(min_value=0, max_value=10**30))
    def test_recurrence_identities_large(self, n):
        assert stern_a(2 * n) == stern_a(n)
        assert stern_a(2 * n + 1) == stern_a(n) + stern_a(n + 1)


class TestSternRange:
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 1),
            (0, 100),
            (7, 99),
            (1000, 1001),
            (511, 1033),
            (2**45 - 50, 2**45 + 50),
            (2**91 - 50, 2**91 + 50),
        ],
    )
    def test_matches_scalar_values(self, lo, hi):
        window = stern_range(lo, hi)
        assert window.tolist() == [stern_a(n) for n in range(lo, hi)]
        assert window.dtype == _narrowest_cells(hi)

    @given(st.sampled_from([45, 91]), st.integers(-300, 300), st.integers(0, 300))
    @settings(max_examples=50, deadline=None)
    def test_windows_near_cell_width_boundaries(self, bits, offset, length):
        # The cells widen from 32 to 64 bits past 2**45 and to
        # Python ints past 2**91; windows on either side and across agree.
        lo = 2**bits + offset
        window = stern_range(lo, lo + length)
        assert window.tolist() == [stern_a(n) for n in range(lo, lo + length)]
        assert window.dtype == _narrowest_cells(lo + length)

    def test_empty_and_invalid(self):
        assert len(stern_range(5, 5)) == 0
        # An empty range still has the cells of its width.
        assert stern_range(5, 5).dtype == np.dtype(np.uint32)
        assert stern_range(2**50, 2**50).dtype == np.dtype(np.uint64)
        assert stern_range(2**100, 2**100).dtype == np.dtype(object)
        with pytest.raises(ValueError):
            stern_range(5, 4)
        with pytest.raises(ValueError):
            stern_range(-1, 4)


def _row(k: int) -> np.ndarray:
    """The row of all k-bit indices, ``a(2**(k-1)) .. a(2**k - 1)``."""
    return stern_range(1 << (k - 1), 1 << k)


class TestSternRow:
    """Bit-length rows ``a(2**(k-1)) .. a(2**k - 1)``, read from ``stern_range``."""

    def test_row_four(self):
        row = _row(4)
        assert row.tolist() == [1, 4, 3, 5, 2, 5, 3, 4]
        assert row.dtype == np.uint32

    def test_row_one(self):
        assert _row(1).tolist() == [1]

    def test_row_length(self):
        for k in (1, 2, 5, 10):
            assert len(_row(k)) == 1 << (k - 1)

    def test_row_twelve_max_is_fibonacci(self):
        assert int(_row(12).max()) == 233 == fib(13)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_row_maximum_and_first_position(self, k):
        # Lucas's bound: the largest k-bit value is F(k+1).  The first
        # index attaining it is one past the first s-index doing so,
        # whose binary form is (10)^n for k = 2n and (10)^n 0 for
        # k = 2n+1.
        row = _row(k)
        assert int(row.max()) == fib(k + 1)
        first_index = (1 << (k - 1)) + int(np.argmax(row))
        if k == 1:
            assert first_index == 1
        else:
            s_first = int("10" * (k // 2) + "0" * (k % 2), 2)
            assert first_index == s_first + 1

    @staticmethod
    def _windows(k: int, window: int) -> np.ndarray:
        """The k-bit row as concatenated ``stern_range`` windows of ``window`` indices."""
        lo, hi = 1 << (k - 1), 1 << k
        return np.concatenate(
            [stern_range(start, min(start + window, hi)) for start in range(lo, hi, window)]
        )

    @pytest.mark.parametrize("k", [1, 2, 5, 13, 16])
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    def test_chunked_equals_unchunked(self, k, chunk_size):
        assert np.array_equal(_row(k), self._windows(k, chunk_size))

    def test_chunked_equals_unchunked_large_row(self):
        whole = _row(20)
        for chunk_size in (4096, 100_000):
            assert np.array_equal(whole, self._windows(20, chunk_size))

    def test_cell_width_policy(self):
        from sternseq.core import _cell_dtype

        assert _cell_dtype(45) == np.dtype(np.uint32)
        assert _cell_dtype(46) == np.dtype(np.uint64)
        assert _cell_dtype(91) == np.dtype(np.uint64)
        assert _cell_dtype(92) == np.dtype(object)
        # The Lucas bound F(k+1) of each width's widest row fits its cells.
        assert fib(46) <= np.iinfo(np.uint32).max
        assert fib(92) <= np.iinfo(np.uint64).max

    @pytest.mark.parametrize("bits", [45, 91])
    def test_cell_width_check_raises(self, monkeypatch, bits):
        # An explicit check, not an assert, so that python -O keeps it.
        from sternseq import core

        monkeypatch.setattr(core, "fib", lambda n: 1 << 64)
        with pytest.raises(OverflowError, match=f"values of {bits}-bit indices"):
            core._cell_dtype(bits)
        with pytest.raises(OverflowError):
            stern_range(0, 100)

    @pytest.mark.parametrize("lo, hi", [(0, 2**20), (2**45 - 100, 2**45 + 100)])
    def test_cell_width_decided_once_per_call(self, monkeypatch, lo, hi):
        # The recursion builds every level in the cells of the call's top index.
        widths = []
        cell_dtype = core._cell_dtype
        monkeypatch.setattr(
            core, "_cell_dtype", lambda bits: widths.append(bits) or cell_dtype(bits)
        )
        stern_range(lo, hi)
        assert widths == [(hi - 1).bit_length()]

    def test_object_dtype_path(self):
        # Past 91-bit indices the cells are Python ints, and remain exact.
        lo = 2**100
        window = stern_range(lo, lo + 64)
        assert window.dtype == np.dtype(object)
        assert window.tolist() == [stern_a(n) for n in range(lo, lo + 64)]


_MAXIMUM = np.maximum


class _CountedMaximum:
    """``np.maximum``, counting the running maxima it accumulates."""

    def __init__(self) -> None:
        self.accumulated = 0

    def __call__(self, *args, **kwargs):
        return _MAXIMUM(*args, **kwargs)

    def accumulate(self, *args, **kwargs):
        self.accumulated += 1
        return _MAXIMUM.accumulate(*args, **kwargs)


def _running_windows(lo: int, hi: int, window: int) -> tuple[list, int]:
    """``running_windows(lo, hi)`` in windows of ``window``, checked, and its count of accumulations.

    The windows are contiguous from ``lo`` to ``hi`` and hold at most
    ``window`` indices, ``values`` are ``stern_a`` and ``running`` is the
    plain running maximum from ``lo``, in the cells of ``values``.
    """
    maximum = _CountedMaximum()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_WINDOW", window)
        patch.setattr(np, "maximum", maximum)
        windows = list(running_windows(lo, hi))
    at = lo
    for start, values, running in windows:
        assert start == at and 0 < len(values) == len(running) <= window
        assert running.dtype == values.dtype
        at += len(values)
    assert at == hi
    values = [v for _, window_values, _ in windows for v in window_values.tolist()]
    assert values == [stern_a(n) for n in range(lo, hi)]
    assert [r for *_, running in windows for r in running.tolist()] == list(
        itertools.accumulate(values, max)
    )
    return windows, maximum.accumulated


class TestRunningWindows:
    @pytest.mark.parametrize(
        "bits, narrow, wide", [(45, np.uint32, np.uint64), (91, np.uint64, object)]
    )
    def test_pass_across_a_cell_width_boundary(self, bits, narrow, wide):
        windows, accumulated = _running_windows(2**bits - 40, 2**bits + 40, 16)
        # The cells widen in the middle of the pass, and the maximum is carried across.
        cells = [values.dtype for _, values, _ in windows]
        assert cells == [np.dtype(narrow)] * 2 + [np.dtype(wide)] * 3
        # Only the windows that rise above the maximum carried in accumulate one.
        tops = [0] + [running[-1] for *_, running in windows[:-1]]
        rising = sum(values.max() > top for (_, values, _), top in zip(windows, tops))
        assert accumulated == rising < len(windows)

    @given(
        st.sampled_from([45, 91]),
        st.integers(-120, 120),
        st.integers(0, 150),
        st.integers(1, 40),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_window_size_near_cell_width_boundaries(self, bits, offset, length, window):
        lo = 2**bits + offset
        _running_windows(lo, lo + length, window)


class TestHyperbinaryEnumeration:
    def test_representations_of_43(self):
        # Canonical string first, then depth-first with leftmost breaks
        # preferred; this is the documented, frozen output order.
        assert list(hyperbinary_enumerate(43)) == [
            "101011",
            "012211",
            "020211",
            "021011",
            "100211",
        ]

    def test_zero_has_the_empty_representation(self):
        result = hyperbinary_enumerate(0)
        assert list(result) == [""]
        assert type(result) is list

    def test_representations_of_4(self):
        result = hyperbinary_enumerate(4)
        assert sorted(result) == ["012", "020", "100"]
        assert len(result) == stern_s(4) == 3

    @pytest.mark.parametrize("n", list(range(60)) + [255, 256, 511, 1000])
    def test_counts_distinctness_and_values(self, n):
        reprs = hyperbinary_enumerate(n)
        assert len(set(reprs)) == len(reprs) == stern_s(n)
        for digits in reprs:
            assert set(digits) <= set("012")
            assert sum(int(ch) << i for i, ch in enumerate(reversed(digits))) == n

    @given(st.integers(min_value=0, max_value=4096))
    @settings(max_examples=200)
    def test_count_matches_shifted_sequence(self, n):
        assert len(hyperbinary_enumerate(n)) == stern_s(n)

    def test_bulk_distinctness_and_evaluation(self):
        s_values = stern_range(1, (1 << 12) + 1)
        for n in range(1 << 12):
            reprs = hyperbinary_enumerate(n)
            assert len(set(reprs)) == len(reprs) == int(s_values[n])
            assert all(set(r) <= set("012") for r in reprs)
            assert all(
                sum(int(ch) << i for i, ch in enumerate(reversed(r))) == n for r in reprs
            )


class TestHyperbinaryCountDp:
    @pytest.mark.parametrize("n, expected", [(43, 5), (0, 1), (4, 3)])
    def test_examples(self, n, expected):
        assert hyperbinary_count_dp(n) == expected

    def test_agrees_with_recurrence_at_boundary(self):
        n = 2**16 - 1
        assert hyperbinary_count_dp(n) == stern_s(n)

    def test_agrees_with_recurrence_bulk(self):
        s_values = stern_range(1, (1 << 12) + 1)
        for n in range(1 << 12):
            assert hyperbinary_count_dp(n) == int(s_values[n])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hyperbinary_count_dp(-3)
