"""Clock-tree construction and activity model.

The paper's core argument is that the clock distribution network dominates
dynamic power (up to ~50% of total dynamic power, Section II), so modulating
clock gates with the watermark sequence produces a strong power pattern at
essentially no area cost.  This module models that network: given a number
of clock sinks (register clock pins), it builds a balanced buffer tree with
a bounded fanout per buffer and reports how many clock-net nodes toggle per
cycle for a given gating state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.rtl.components import CLOCK_EDGES_PER_CYCLE, ClockBuffer


@dataclass
class ClockTreeLevel:
    """One level of the buffer tree (level 0 drives the sinks directly)."""

    index: int
    buffers: List[ClockBuffer] = field(default_factory=list)

    @property
    def buffer_count(self) -> int:
        return len(self.buffers)


class ClockTree:
    """A balanced clock buffer tree for ``num_sinks`` register clock pins.

    Parameters
    ----------
    name:
        Instance name of the tree (usually the clock domain name).
    num_sinks:
        Number of leaf clock pins (one per flip-flop).
    max_fanout:
        Maximum number of loads a single buffer drives.  Typical CTS values
        are 16-32; the default of 16 matches a conservative 65 nm flow.
    """

    def __init__(self, name: str, num_sinks: int, max_fanout: int = 16) -> None:
        if num_sinks <= 0:
            raise ValueError("clock tree needs at least one sink")
        if max_fanout < 2:
            raise ValueError("max_fanout must be at least 2")
        self.name = name
        self.num_sinks = num_sinks
        self.max_fanout = max_fanout
        self.levels: List[ClockTreeLevel] = []
        self._build()

    def _build(self) -> None:
        loads = self.num_sinks
        level_index = 0
        while True:
            buffer_count = max(1, math.ceil(loads / self.max_fanout))
            level = ClockTreeLevel(index=level_index)
            for i in range(buffer_count):
                fanout = min(self.max_fanout, loads - i * self.max_fanout)
                level.buffers.append(
                    ClockBuffer(f"{self.name}/L{level_index}/buf{i}", fanout=max(1, fanout))
                )
            self.levels.append(level)
            if buffer_count == 1:
                break
            loads = buffer_count
            level_index += 1

    @property
    def buffer_count(self) -> int:
        """Total number of buffers in the tree."""
        return sum(level.buffer_count for level in self.levels)

    @property
    def depth(self) -> int:
        """Number of buffer levels between the root and the sinks."""
        return len(self.levels)

    def toggles_per_cycle(self, active_sinks: Optional[int] = None) -> int:
        """Clock-net transitions per cycle for ``active_sinks`` enabled sinks.

        The count includes both the buffer outputs and the sink clock pins.
        When only a fraction of sinks is active (some ICGs disabled), the
        corresponding share of leaf-level buffers is assumed gated while the
        upper levels keep toggling (they feed other branches).
        """
        if active_sinks is None:
            active_sinks = self.num_sinks
        if not 0 <= active_sinks <= self.num_sinks:
            raise ValueError(
                f"active_sinks must be within [0, {self.num_sinks}], got {active_sinks}"
            )
        if active_sinks == 0:
            return 0
        toggling_nodes = active_sinks  # sink clock pins
        fraction = active_sinks / self.num_sinks
        for level in self.levels:
            if level.index == 0:
                toggling_nodes += max(1, int(round(level.buffer_count * fraction)))
            else:
                toggling_nodes += level.buffer_count
        return toggling_nodes * CLOCK_EDGES_PER_CYCLE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClockTree(name={self.name!r}, sinks={self.num_sinks}, "
            f"buffers={self.buffer_count}, depth={self.depth})"
        )
