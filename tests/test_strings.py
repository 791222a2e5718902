"""Tests for the digit-string calculus: matrices, transforms, comparators."""

import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sternseq import (
    BOTTOM,
    Comparator,
    Mat2,
    dominates,
    double_prime,
    fib,
    g_split,
    g_value,
    mu_of,
    prime,
    stern_s,
)
from sternseq import records
from sternseq.cli import main
from sternseq.records import DOMINANCE_WITNESSES, verify_dominance_witnesses

binary_strings = st.text(alphabet="01", max_size=16)


class TestMu:
    def test_digit_matrices(self):
        assert mu_of("1").rows == ((1, 1), (0, 1))
        assert mu_of("0").rows == ((1, 0), (1, 1))

    def test_empty_is_identity(self):
        assert mu_of("").rows == ((1, 0), (0, 1))

    def test_known_product(self):
        assert mu_of("100100").rows == ((11, 4), (8, 3))

    def test_rejects_generalized_digits(self):
        with pytest.raises(ValueError):
            mu_of("102")
        with pytest.raises(ValueError):
            mu_of("3")

    @given(x=binary_strings, y=binary_strings)
    @settings(max_examples=500)
    def test_homomorphism(self, x, y):
        assert mu_of(x + y) == mu_of(x) * mu_of(y)

    def test_mat2_multiplication(self):
        m = Mat2(1, 2, 3, 4)
        assert m * Mat2(1, 0, 0, 1) == m
        assert (m * Mat2(5, 6, 7, 8)).rows == ((19, 22), (43, 50))


class TestMat2Contract:
    """A named tuple of four entries that still refuses the tuple's own operators."""

    @pytest.mark.parametrize(
        "op", [operator.add, operator.lt, operator.le, operator.gt, operator.ge],
        ids=["+", "<", "<=", ">", ">="],
    )
    def test_refuses_tuple_concatenation_and_order(self, op):
        with pytest.raises(TypeError):
            op(Mat2(1, 2, 3, 4), Mat2(1, 0, 0, 1))

    def test_refuses_concatenation_onto_a_tuple(self):
        with pytest.raises(TypeError):
            (1, 2) + Mat2(1, 2, 3, 4)

    def test_refuses_repetition_by_an_int(self):
        with pytest.raises(TypeError):
            3 * Mat2(1, 2, 3, 4)

    def test_entries_are_read_only(self):
        m = mu_of("101")
        with pytest.raises(AttributeError):
            m.g = 0
        assert m == Mat2(2, 3, 1, 2)

    def test_equal_entries_hash_equal(self):
        assert hash(mu_of("100100")) == hash(Mat2(11, 4, 8, 3))
        assert {mu_of("10"): "x"}[mu_of("1") * mu_of("0")] == "x"


class TestGValue:
    @pytest.mark.parametrize(
        "x, expected",
        [
            ("101011", 5),
            ("", 1),
            ("101010", 13),
            ("0", 1),
            ("2", 1),
            ("3", 0),
            ("012211", 1),  # maximally broken on the left: only itself
            ("021011", 3),  # can still break to 020211 and 012211
            (BOTTOM, 0),
        ],
    )
    def test_examples(self, x, expected):
        assert g_value(x) == expected

    def test_rejects_foreign_digits(self):
        with pytest.raises(ValueError):
            g_value("104")

    @pytest.mark.parametrize("check", [g_value, prime, double_prime])
    def test_foreign_digit_message(self, check):
        # Foreign digits inside the string are found, listed once each and sorted.
        with pytest.raises(ValueError) as info:
            check("205a421")
        assert str(info.value) == (
            "digit string may only contain 0-3, got ['4', '5', 'a'] in '205a421'"
        )

    @given(binary_strings)
    @settings(max_examples=500)
    @example("")
    def test_equals_shifted_sequence(self, x):
        assert g_value(x) == stern_s(int(x, 2) if x else 0)

    @given(binary_strings)
    @settings(max_examples=300)
    def test_leading_two_rewrite(self, x):
        assert g_value("2" + x) == g_value("1" + x)

    @given(st.text(alphabet="0123", max_size=14))
    @settings(max_examples=300)
    def test_leading_zeros_are_inert(self, x):
        assert g_value("0" + x) == g_value(x)

    @given(i=st.integers(min_value=0, max_value=6), h=binary_strings)
    @settings(max_examples=300)
    def test_leading_three_rewrites(self, i, h):
        assert g_value("3" + "1" * i + "0" + h) == g_value("1" + h)
        assert g_value("3" + "1" * i) == 0


class TestTransforms:
    @pytest.mark.parametrize(
        "h, expected",
        [
            ("0011", "1011"),
            ("1011", "111"),
            ("10", "1"),
            ("110", "1"),
            ("0", "1"),
            ("1", "3"),
            ("111", "3"),
            ("", "3"),
        ],
    )
    def test_prime(self, h, expected):
        assert prime(h) == expected

    def test_prime_annihilates_unreceivable_strings(self):
        # A leading 2/3 would become a digit broken twice.
        assert prime("21") is BOTTOM
        assert prime("30") is BOTTOM
        assert prime("12") is BOTTOM
        assert prime(BOTTOM) is BOTTOM

    def test_prime_of_one_has_no_representations(self):
        assert g_value(prime("1")) == 0

    @pytest.mark.parametrize(
        "h, expected",
        [
            ("100100", "1000"),
            ("1011", "1010"),
            ("3", "2"),
            ("1", "0"),
            ("10", "0"),
        ],
    )
    def test_double_prime(self, h, expected):
        assert double_prime(h) == expected

    def test_double_prime_of_zeros_is_bottom(self):
        assert double_prime("0000") is BOTTOM
        assert double_prime("") is BOTTOM
        assert double_prime(BOTTOM) is BOTTOM

    @pytest.mark.parametrize(
        "x", ["", "0", "1", "11", "111", "10", "0011", "100100", "0000", "101011"]
    )
    def test_matrix_transform_coherence_examples(self, x):
        m = mu_of(x)
        assert m.g == g_value(x)
        assert m.g_dp == g_value(double_prime(x))
        assert m.g_p == g_value(prime(x))
        assert m.g_p_dp == g_value(double_prime(prime(x)))

    @given(binary_strings)
    @settings(max_examples=500)
    @example("")
    @example("1111")
    def test_matrix_transform_coherence(self, x):
        m = mu_of(x)
        quad = (
            g_value(x),
            g_value(double_prime(x)),
            g_value(prime(x)),
            g_value(double_prime(prime(x))),
        )
        assert (m.g, m.g_dp, m.g_p, m.g_p_dp) == quad


class TestSplit:
    def test_examples(self):
        assert g_split("10", "1011") == 5 == g_value("101011")
        assert g_split("", "101011") == 5
        assert g_split("1000", "1010") == g_value("10001010")

    @given(x=binary_strings, y=binary_strings)
    @settings(max_examples=500)
    def test_split_identity(self, x, y):
        assert g_split(x, y) == g_value(x + y)


class TestComparators:
    def test_spec_examples(self):
        assert dominates(Comparator.INFIX, "101", "111")
        assert dominates(Comparator.PREFIX, "1010", "10000")
        assert dominates(Comparator.SUFFIX, "10100", "11010")

    def test_infix_implies_suffix_and_prefix(self):
        for w in DOMINANCE_WITNESSES:
            if w.kind is Comparator.INFIX:
                assert dominates(Comparator.SUFFIX, w.smaller, w.excluded)
                assert dominates(Comparator.PREFIX, w.smaller, w.excluded)

    def test_dominance_is_not_universal(self):
        assert not dominates(Comparator.INFIX, "111", "101")
        assert not dominates(Comparator.SUFFIX, "1", "0")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            dominates(Comparator.INFIX, "12", "10")

    def test_rejects_a_kind_that_is_not_a_comparator(self):
        with pytest.raises(TypeError):
            dominates("infix", "101", "111")

    @given(
        kind=st.sampled_from(Comparator),
        t=st.text(alphabet="01", max_size=14),
        y=st.text(alphabet="01", max_size=14),
    )
    @settings(max_examples=500)
    def test_compares_the_selected_paper_values(self, kind, t, y):
        # The paper's values (G(x), G(x''), G(x'), G((x')'')), from the
        # string transforms; each relation compares a fixed selection.
        def values(x):
            return (
                g_value(x),
                g_value(double_prime(x)),
                g_value(prime(x)),
                g_value(double_prime(prime(x))),
            )

        selected = {
            Comparator.INFIX: (0, 1, 2, 3),
            Comparator.SUFFIX: (0, 2),
            Comparator.PREFIX: (0, 1),
        }[kind]
        vt, vy = values(t), values(y)
        assert dominates(kind, t, y) == all(vt[i] >= vy[i] for i in selected)

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["infix", "suffix", "prefix"])
    def test_corrupted_pin_is_reported(self, monkeypatch, capsys, at):
        witness = DOMINANCE_WITNESSES[at]
        pinned = (*witness.pinned_smaller[:-1], witness.pinned_smaller[-1] + 1)
        corrupted = list(DOMINANCE_WITNESSES)
        corrupted[at] = witness._replace(pinned_smaller=pinned)
        monkeypatch.setattr(records, "DOMINANCE_WITNESSES", tuple(corrupted))
        label = f"pinned-matrix-{witness.smaller}-vs-{witness.excluded}"
        assert verify_dominance_witnesses().violations == [(int(witness.smaller, 2), label)]
        assert main(["verify", "--suites", "identities"]) == 1
        assert f"  FAIL: {label} (at {int(witness.smaller, 2)})" in capsys.readouterr().out

    @pytest.mark.parametrize("witness", DOMINANCE_WITNESSES, ids=lambda w: w.excluded)
    def test_pinned_witnesses(self, witness):
        # Frozen matrix data for every replacement argument, including
        # the one whose replacement string contains "110" (a witness
        # need not satisfy the record-setter exclusions itself).
        report = verify_dominance_witnesses()
        assert report.violations == []
        assert dominates(witness.kind, witness.smaller, witness.excluded)
        assert int(witness.smaller, 2) < int(witness.excluded, 2)

    @pytest.mark.parametrize("i", range(1, 41))
    def test_alternating_block_replaces_squeezed_block(self, i):
        # (10)^(i+1) dominates 1 (10)^i 0 as an infix, with the pinned
        # Fibonacci-valued matrices.
        t, y = "10" * (i + 1), "1" + "10" * i + "0"
        assert mu_of(y).rows == (
            (fib(2 * i + 3), fib(2 * i + 1)),
            (fib(2 * i + 1), fib(2 * i - 1)),
        )
        assert dominates(Comparator.INFIX, t, y)
        assert int(t, 2) < int(y, 2)

    @pytest.mark.parametrize("i", range(0, 41))
    def test_no_suffix_ending_in_one(self, i):
        # (10)^i 0 dominates 1 (10)^i as a suffix, so no record ends in 1.
        t, y = "10" * i + "0", "1" + "10" * i
        assert dominates(Comparator.SUFFIX, t, y)
        assert int(t, 2) < int(y, 2)


class TestFibonacciValues:
    @pytest.mark.parametrize("i", range(1, 41))
    def test_alternating_block_values(self, i):
        block = "10" * i
        assert g_value(block) == fib(2 * i + 1)
        assert g_value(block + "0") == fib(2 * i + 2)
        assert g_value("1" + block) == fib(2 * i + 2)
        assert g_value("1" + block + "0") == fib(2 * i + 3)
        assert mu_of(block).rows == (
            (fib(2 * i + 1), fib(2 * i)),
            (fib(2 * i), fib(2 * i - 1)),
        )

