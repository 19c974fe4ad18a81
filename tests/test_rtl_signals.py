"""Unit tests for repro.rtl.signals."""

import pytest

from repro.rtl.signals import Clock, hamming_distance


class TestClock:
    def test_period(self):
        assert Clock("clk", 10e6).period_s == pytest.approx(100e-9)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            Clock("clk", 0.0)

    def test_invalid_duty_cycle_rejected(self):
        with pytest.raises(ValueError):
            Clock("clk", 10e6, duty_cycle=1.5)

class TestHammingHelpers:
    @pytest.mark.parametrize(
        "a, b, expected",
        [(0, 0, 0), (0b1010, 0b0101, 4), (0xFF, 0x0F, 4), (1, 0, 1)],
    )
    def test_hamming_distance(self, a, b, expected):
        assert hamming_distance(a, b) == expected

    def test_hamming_distance_with_width_mask(self):
        assert hamming_distance(0x1FF, 0x0FF, width=8) == 0
