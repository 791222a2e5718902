"""Tests for the seeded random strings of the ``identities`` suite."""

import random

import pytest

from sternseq import verify
from sternseq.verify import IDENTITY_SAMPLES, IDENTITY_SEED, SUITES, _random_binary


@pytest.mark.parametrize("max_len", [0, 1, 5, 24])
def test_string_has_the_drawn_length_and_only_binary_digits(max_len):
    rng, twin = random.Random(7), random.Random(7)
    for _ in range(500):
        x = _random_binary(rng, max_len)
        length = twin.randint(0, max_len)
        assert len(x) == length
        assert set(x) <= {"0", "1"}
        twin.getrandbits(length)  # keeps the twin in step with rng


def test_length_zero_is_the_empty_string():
    assert _random_binary(random.Random(1), 0) == ""


class _Drawn:
    """A stand-in generator that draws a fixed length and fixed bits."""

    def __init__(self, length, bits):
        self.length, self.bits = length, bits

    def randint(self, a, b):
        return self.length

    def getrandbits(self, k):
        return self.bits


@pytest.mark.parametrize("bits, expected", [(1, "0001"), (0, "0000"), (15, "1111")])
def test_leading_zeros_are_kept(bits, expected):
    assert _random_binary(_Drawn(4, bits), 4) == expected


def _suite_stream():
    """The strings the identities suite draws, as (x, y, z) triples, with their length caps."""
    rng = random.Random(IDENTITY_SEED)
    for _ in range(IDENTITY_SAMPLES):
        x = _random_binary(rng, 12)
        y = _random_binary(rng, 24 - len(x))
        z = _random_binary(rng, 20)
        yield (x, 12), (y, 24 - len(x)), (z, 20)


def test_suite_stream_has_leading_zeros_and_full_lengths():
    drawn = [pair for triple in _suite_stream() for pair in triple]
    assert any(s.startswith("0") for s, _ in drawn)
    for cap in (12, 20):
        assert any(len(s) == cap for s, c in drawn if c == cap)
    assert any(len(s) == 24 for s, _ in drawn)  # an empty x and a y of all 24 digits
    assert all(len(s) <= cap and set(s) <= {"0", "1"} for s, cap in drawn)


def test_identities_suite_count():
    report = SUITES["identities"](1, 12)
    assert report.ok and report.violations == []
    assert report.checked_count == 10056 == IDENTITY_SAMPLES + 40 + 16


def test_identities_suite_draws_the_pinned_sample(monkeypatch):
    # The suite's count is the same for any sample, so pin the strings it draws.
    drawn = []

    def recording(rng, max_len):
        drawn.append(_random_binary(rng, max_len))
        return drawn[-1]

    monkeypatch.setattr(verify, "_random_binary", recording)
    assert verify._identities().ok
    assert len(drawn) == 30_000 == 3 * IDENTITY_SAMPLES
    assert drawn[:9] == [
        "110101", "11111110010101", "10100111001",
        "00011100110", "0011011", "1100000111110001",
        "011", "10111011011010", "011111101110010011",
    ]
