"""Unit tests for the switching distance of the stepping models (``rtl_oracle``)."""

import pytest

from rtl_oracle import hamming_distance


class TestHammingHelpers:
    @pytest.mark.parametrize(
        "a, b, expected",
        [(0, 0, 0), (0b1010, 0b0101, 4), (0xFF, 0x0F, 4), (1, 0, 1)],
    )
    def test_hamming_distance(self, a, b, expected):
        assert hamming_distance(a, b) == expected

    def test_hamming_distance_with_width_mask(self):
        assert hamming_distance(0x1FF, 0x0FF, width=8) == 0
