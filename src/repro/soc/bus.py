"""AHB-lite-style system bus.

The bus routes CPU data accesses to the attached memories/peripherals and
accounts for the switching activity of its shared address and data wires --
on the test chips the on-chip bus is explicitly listed as one of the
background-noise contributors.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.rtl.signals import hamming_distance
from repro.soc.memory import Memory


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
        self._last_address = 0
        self._last_data = 0

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
    ) -> Tuple[int, int, int, int]:
        """Perform a data access.

        Returns ``(data, data_toggles, comb_toggles, extra_cycles)``:
        ``data`` is the word on the data wires (the value read, or the
        value written), ``data_toggles`` the SRAM's data-path and array
        transitions, ``comb_toggles`` the bus wires' and the SRAM address
        path's, and ``extra_cycles`` the wait states the CPU must stall.
        """
        data, address_toggles, data_toggles, array_toggles = self._slave_for(address).access(
            address, write, value, width
        )
        bus_toggles = hamming_distance(self._last_address, address, 32) + hamming_distance(
            self._last_data, data, 32
        )
        self._last_address = address
        self._last_data = data
        return data, data_toggles + array_toggles, bus_toggles + address_toggles, self.wait_states
