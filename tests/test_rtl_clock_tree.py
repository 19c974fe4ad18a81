"""Unit tests for repro.rtl.clock_tree."""

import pytest

from repro.rtl.clock_tree import ClockTree


class TestClockTreeConstruction:
    def test_single_sink_single_buffer(self):
        tree = ClockTree("t", num_sinks=1)
        assert tree.buffer_count == 1
        assert tree.depth == 1

    def test_buffer_count_respects_fanout(self):
        tree = ClockTree("t", num_sinks=256, max_fanout=16)
        # 256 sinks / 16 = 16 leaf buffers, then 1 root buffer.
        assert tree.levels[0].buffer_count == 16
        assert tree.buffer_count == 17

    def test_three_level_tree(self):
        tree = ClockTree("t", num_sinks=1024, max_fanout=8)
        assert tree.levels[0].buffer_count == 128
        assert tree.levels[1].buffer_count == 16
        assert tree.levels[2].buffer_count == 2
        assert tree.levels[3].buffer_count == 1
        assert tree.depth == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ClockTree("t", num_sinks=0)
        with pytest.raises(ValueError):
            ClockTree("t", num_sinks=8, max_fanout=1)


class TestClockTreeActivity:
    def test_all_sinks_active(self):
        tree = ClockTree("t", num_sinks=32, max_fanout=16)
        toggles = tree.toggles_per_cycle()
        # 32 sink pins + 2 leaf buffers + 1 root buffer, two edges each.
        assert toggles == (32 + 2 + 1) * 2

    def test_no_sinks_active_is_idle(self):
        tree = ClockTree("t", num_sinks=32)
        assert tree.toggles_per_cycle(active_sinks=0) == 0

    def test_partial_activity_scales_leaf_level(self):
        tree = ClockTree("t", num_sinks=64, max_fanout=16)
        full = tree.toggles_per_cycle(64)
        half = tree.toggles_per_cycle(32)
        assert 0 < half < full

    def test_active_sink_bounds_validated(self):
        tree = ClockTree("t", num_sinks=16)
        with pytest.raises(ValueError):
            tree.toggles_per_cycle(17)
