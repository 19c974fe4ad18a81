"""AHB-lite-style system bus.

The bus routes CPU data accesses to the attached memories/peripherals and
accounts for the switching activity of its shared address and data wires --
on the test chips the on-chip bus is explicitly listed as one of the
background-noise contributors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.rtl.activity import ActivityRecord
from repro.rtl.signals import hamming_distance
from repro.soc.memory import Memory


@dataclass(frozen=True)
class BusTransfer:
    """A completed bus transfer (for statistics and tests)."""

    address: int
    write: bool
    width: int
    value: int


class SystemBus:
    """Single-master bus connecting the CPU to its memories.

    Parameters
    ----------
    wait_states:
        Extra cycles added to every data access (zero-wait-state SRAM by
        default, matching a small microcontroller SoC).
    """

    def __init__(self, wait_states: int = 0, name: str = "ahb") -> None:
        if wait_states < 0:
            raise ValueError("wait states must be non-negative")
        self.name = name
        self.wait_states = wait_states
        self.slaves: List[Memory] = []
        self.transfers: List[BusTransfer] = []
        self._last_address = 0
        self._last_data = 0
        self.transfer_count = 0

    def attach(self, memory: Memory) -> None:
        """Attach a memory region to the bus."""
        for existing in self.slaves:
            overlap_start = max(existing.base_address, memory.base_address)
            overlap_end = min(
                existing.base_address + existing.size_bytes,
                memory.base_address + memory.size_bytes,
            )
            if overlap_start < overlap_end:
                raise ValueError("attached memory regions overlap")
        self.slaves.append(memory)

    def _slave_for(self, address: int) -> Memory:
        for slave in self.slaves:
            if slave.contains(address):
                return slave
        raise IndexError(f"no bus slave maps address {address:#x}")

    def access(
        self, address: int, write: bool, value: Optional[int] = None, width: int = 4
    ) -> Tuple[Optional[int], ActivityRecord, int]:
        """Perform a data access.

        Returns ``(read_value, activity, extra_cycles)`` where
        ``extra_cycles`` is the number of wait states the CPU must stall.
        """
        slave = self._slave_for(address)
        result, memory_activity = slave.access(address, write=write, value=value, width=width)
        bus_toggles = hamming_distance(self._last_address, address, 32) + hamming_distance(
            self._last_data, (value if write else (result or 0)) or 0, 32
        )
        self._last_address = address
        self._last_data = (value if write else (result or 0)) or 0
        self.transfer_count += 1
        if len(self.transfers) < 10_000:
            self.transfers.append(
                BusTransfer(address=address, write=write, width=width, value=(value if write else (result or 0)) or 0)
            )
        activity = ActivityRecord(
            data_toggles=memory_activity.data_toggles + memory_activity.array_toggles,
            comb_toggles=bus_toggles + memory_activity.address_toggles,
        )
        return result, activity, self.wait_states
