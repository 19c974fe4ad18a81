"""Unit tests for the clock-tree buffer count.

The library counts a tree's buffers with
:func:`repro.rtl.components.clock_tree_buffers`; the oracle's
``rtl_oracle.ClockTree`` builds the same tree level by level and steps it.
"""

import numpy as np
import pytest
from rtl_oracle import ClockTree

from repro.core.clock_modulation import ClockModulatedBank, ClockModulatedIPBlock
from repro.rtl.components import clock_tree_buffers


class TestClockTreeConstruction:
    def test_single_sink_single_buffer(self):
        assert clock_tree_buffers(1) == 1
        assert ClockTree(1).depth == 1

    def test_buffer_count_respects_fanout(self):
        # 256 sinks / 16 = 16 leaf buffers, then 1 root buffer.
        tree = ClockTree(256)
        assert len(tree.levels[0]) == 16
        assert tree.buffer_count == clock_tree_buffers(256) == 17

    def test_three_level_tree(self):
        tree = ClockTree(1024)
        assert [len(level) for level in tree.levels] == [64, 4, 1]
        assert tree.depth == 3
        assert clock_tree_buffers(1024) == 69

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            clock_tree_buffers(0)


class TestClockTreeActivity:
    def test_all_sinks_active(self):
        # 32 sink pins + 2 leaf buffers + 1 root buffer, two edges each: the
        # paper bank's ICG-level tree, which runs on every cycle.
        assert ClockTree(32).step(running=True).clock_toggles == (32 + 2 + 1) * 2
        idle = ClockModulatedBank().activity(np.array([0]))
        assert idle.clock_toggles[0] == (32 + 2 + 1) * 2

    def test_no_sinks_active_is_idle(self):
        # A tree gated at its root (the reused IP block's, while WMARK is 0)
        # does not toggle.
        assert ClockTree(32).step(running=False).total_toggles == 0
        block = ClockModulatedIPBlock(modulated_registers=32)
        assert block.activity(np.array([0])).total_toggles[0] == 0
