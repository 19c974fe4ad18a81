"""Unit tests for the test-suite ISS's SRAM (``iss_oracle.Memory``)."""

import pytest

from iss_oracle import Memory

BASE = 0x2000_0000


@pytest.fixture
def memory() -> Memory:
    return Memory(size_bytes=4096, base_address=BASE)


class TestFunctionalAccess:
    def test_uninitialised_reads_zero(self, memory):
        assert memory.read_byte(BASE) == 0
        assert memory.read_word(BASE + 16) == 0

    def test_byte_roundtrip(self, memory):
        memory.write_byte(BASE + 1, 0xAB)
        assert memory.read_byte(BASE + 1) == 0xAB

    def test_word_is_little_endian(self, memory):
        memory.write_word(BASE, 0x11223344)
        assert memory.read_byte(BASE) == 0x44
        assert memory.read_byte(BASE + 3) == 0x11

    def test_word_roundtrip(self, memory):
        memory.write_word(BASE + 8, 0xDEADBEEF)
        assert memory.read_word(BASE + 8) == 0xDEADBEEF

    def test_byte_values_masked(self, memory):
        memory.write_byte(BASE, 0x1FF)
        assert memory.read_byte(BASE) == 0xFF

    def test_out_of_range_rejected(self, memory):
        with pytest.raises(IndexError):
            memory.read_byte(BASE - 1)
        with pytest.raises(IndexError):
            memory.write_word(BASE + 4096 - 2, 1)

    def test_contains(self, memory):
        assert memory.contains(BASE)
        assert not memory.contains(BASE + 4096)

    def test_load_words(self, memory):
        memory.load_words({BASE: 1, BASE + 4: 2})
        assert memory.read_word(BASE + 4) == 2


class TestActivityTrackedAccess:
    def test_read_access_returns_value_and_activity(self, memory):
        memory.write_word(BASE, 0xFF)
        value, *toggles = memory.access(BASE, write=False)
        assert value == 0xFF
        assert sum(toggles) > 0

    def test_write_access_requires_value(self, memory):
        with pytest.raises(ValueError):
            memory.access(BASE, write=True)

    def test_write_access_updates_memory(self, memory):
        memory.access(BASE + 4, write=True, value=0x1234)
        assert memory.read_word(BASE + 4) == 0x1234

    def test_byte_access_width(self, memory):
        memory.access(BASE, write=True, value=0x77, width=1)
        assert memory.read_byte(BASE) == 0x77

    def test_invalid_width_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.access(BASE, write=False, width=2)

    def test_activity_depends_on_address_change(self, memory):
        memory.access(BASE, write=True, value=0)
        _, same_address_toggles, _, _ = memory.access(BASE, write=True, value=0)
        _, far_address_toggles, _, _ = memory.access(BASE + 0x800, write=True, value=0)
        assert far_address_toggles > same_address_toggles

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Memory(size_bytes=0)
