"""Unit tests for repro.core.lfsr."""

import numpy as np
import pytest
import rtl_oracle

from repro.core.lfsr import (
    LFSR,
    clear_sequence_cache,
    max_length_period,
    max_length_taps,
)


class TestTapTables:
    def test_paper_width_supported(self):
        assert 12 in dict.fromkeys([12])  # the paper uses a 12-bit LFSR
        assert max_length_taps(12) == (12, 6, 4, 1)

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            max_length_taps(33)

    def test_period_formula(self):
        assert max_length_period(12) == 4095
        with pytest.raises(ValueError):
            max_length_period(1)


class TestLFSR:
    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8, 10, 12])
    def test_maximum_length_period(self, width):
        period = max_length_period(width)
        states = LFSR(width=width, seed=1).states(period + 1)
        # After exactly one period the register is back at the seed and has
        # visited every non-zero state.
        assert states[-1] == 1
        assert len(set(states.tolist())) == period
        assert 0 not in states

    def test_minimum_width_enforced(self):
        with pytest.raises(ValueError):
            LFSR(width=1, taps=(1,))

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            LFSR(width=12, seed=0)

    def test_invalid_tap_rejected(self):
        with pytest.raises(ValueError):
            LFSR(width=8, taps=(8, 9))
        with pytest.raises(ValueError):
            LFSR(width=8, taps=(6, 4))  # must include the width itself

    def test_sequence_duty_cycle_near_half(self):
        lfsr = LFSR(width=12, seed=0x5A5)
        sequence = lfsr.sequence()
        assert len(sequence) == 4095
        # A maximum-length sequence has 2^(n-1) ones and 2^(n-1)-1 zeros.
        assert int(sequence.sum()) == 2048

    def test_sequence_is_periodic(self):
        lfsr = LFSR(width=6, seed=1)
        sequence = lfsr.sequence(2 * lfsr.period)
        assert np.array_equal(sequence[: lfsr.period], sequence[lfsr.period :])

    def test_step_activity_accounts_clock_and_data(self):
        activity = LFSR(width=12, seed=1).activity(1)[0]
        assert activity.clock_toggles == 24
        assert activity.data_toggles > 0

    def test_register_count(self):
        assert LFSR(width=12).register_count == 12

    def test_invalid_sequence_length_rejected(self):
        with pytest.raises(ValueError):
            LFSR(width=4).sequence(0)


class TestVectorizedSequences:
    """The closed-form generator must equal per-bit stepping exactly."""

    @pytest.mark.parametrize("width", list(range(2, 33)))
    def test_lfsr_closed_form_matches_stepped(self, width):
        mask = (1 << width) - 1
        for seed in (1, 0x5A5 & mask or 1, mask, 0x2D & mask or 3):
            lfsr = LFSR(width=width, seed=seed)
            length = min(max_length_period(width), 1024) + 17
            assert np.array_equal(lfsr.sequence(length), rtl_oracle.stepped_sequence(lfsr, length))

    @pytest.mark.parametrize("width", list(range(2, 15)))
    def test_full_period_window_uniqueness(self, width):
        # A maximum-length sequence contains every non-zero width-bit word
        # exactly once per period (windows are the Fibonacci-form states).
        period = max_length_period(width)
        bits = LFSR(width=width, seed=1).sequence(period).astype(np.int64)
        windows = np.zeros(period, dtype=np.int64)
        for position in range(width):
            windows |= np.roll(bits, -position) << position
        assert len(np.unique(windows)) == period
        assert 0 not in windows

    def test_custom_non_maximum_taps_still_match_stepped(self):
        # x^4 + x^2 + 1 is reducible (period < 15); the closed form must not
        # assume maximum length.
        lfsr = LFSR(width=4, seed=0b1011, taps=(4, 2))
        assert np.array_equal(lfsr.sequence(64), rtl_oracle.stepped_sequence(lfsr, 64))

    def test_cache_serves_copies(self):
        clear_sequence_cache()
        lfsr = LFSR(width=8, seed=0x2D)
        first = lfsr.sequence()
        first[0] ^= 1  # mutate the returned array
        second = lfsr.sequence()
        assert second[0] == first[0] ^ 1  # the cache was not corrupted

    def test_cache_extension_regenerates_longer_sequences(self):
        clear_sequence_cache()
        lfsr = LFSR(width=6, seed=1)
        short = lfsr.sequence(10)
        longer = lfsr.sequence(200)
        assert np.array_equal(longer[:10], short)
        assert np.array_equal(longer, rtl_oracle.stepped_sequence(lfsr, 200))
