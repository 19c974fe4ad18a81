"""Byte-addressable SRAM model with access-activity accounting.

The memory tracks, per access, the switching activity of its address and
data paths (Hamming distances against the previously driven values), which
the SoC activity model converts into SRAM power.  Functionally it is a
sparse byte store, adequate for the synthetic workloads.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.rtl.signals import hamming_distance


class Memory:
    """Sparse byte-addressable memory.

    Parameters
    ----------
    size_bytes:
        Addressable size; accesses outside ``[base_address, base_address +
        size_bytes)`` raise ``IndexError``.
    base_address:
        First valid address.
    word_access_toggles:
        Approximate internal bit-line/word-line transitions per 32-bit
        access, used by the power model.
    """

    def __init__(
        self,
        size_bytes: int = 64 * 1024,
        base_address: int = 0x2000_0000,
        word_access_toggles: int = 48,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.size_bytes = size_bytes
        self.base_address = base_address
        self.word_access_toggles = word_access_toggles
        self._bytes: Dict[int, int] = {}
        self._last_address = 0
        self._last_data = 0

    # -- address handling ----------------------------------------------------

    def _check(self, address: int, length: int = 1) -> None:
        if not (self.base_address <= address and address + length <= self.base_address + self.size_bytes):
            raise IndexError(
                f"address {address:#x} (+{length}) outside memory "
                f"[{self.base_address:#x}, {self.base_address + self.size_bytes:#x})"
            )

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this memory."""
        return self.base_address <= address < self.base_address + self.size_bytes

    # -- functional access -----------------------------------------------------

    def read_byte(self, address: int) -> int:
        """Read one byte (zero if never written)."""
        self._check(address)
        return self._bytes.get(address, 0)

    def write_byte(self, address: int, value: int) -> None:
        """Write one byte."""
        self._check(address)
        self._bytes[address] = value & 0xFF

    def read_word(self, address: int) -> int:
        """Read a little-endian 32-bit word."""
        self._check(address, 4)
        read = self._bytes.get
        return (
            read(address, 0)
            | (read(address + 1, 0) << 8)
            | (read(address + 2, 0) << 16)
            | (read(address + 3, 0) << 24)
        )

    def write_word(self, address: int, value: int) -> None:
        """Write a little-endian 32-bit word."""
        self._check(address, 4)
        for i in range(4):
            self._bytes[address + i] = (value >> (8 * i)) & 0xFF

    # -- activity-tracked access -------------------------------------------------

    def access(
        self, address: int, write: bool, value: Optional[int] = None, width: int = 4
    ) -> Tuple[int, int, int, int]:
        """Perform an access and return ``(data, address_toggles, data_toggles, array_toggles)``.

        ``width`` is 1 (byte) or 4 (word).  ``data`` is the word on the data
        path: the value read, or the value written.  The toggles are the
        Hamming distances of the address and data paths against the
        previous access, and the internal bit-line/word-line transitions.
        """
        if width not in (1, 4):
            raise ValueError("access width must be 1 or 4 bytes")
        if write:
            if value is None:
                raise ValueError("write access requires a value")
            if width == 4:
                self.write_word(address, value)
            else:
                self.write_byte(address, value)
            data = value
        else:
            data = self.read_word(address) if width == 4 else self.read_byte(address)
        address_toggles = hamming_distance(self._last_address, address, 32)
        data_toggles = hamming_distance(self._last_data, data, 32)
        self._last_address = address
        self._last_data = data
        array_toggles = self.word_access_toggles if width == 4 else self.word_access_toggles // 4
        return data, address_toggles, data_toggles, array_toggles

    def load_words(self, words: Dict[int, int]) -> None:
        """Bulk-initialise memory from an ``{address: word}`` mapping."""
        for address, value in words.items():
            self.write_word(address, value)
