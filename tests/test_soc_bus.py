"""Unit tests for the test-suite ISS's bus (``iss_oracle.SystemBus``)."""

import pytest

from iss_oracle import Memory, SystemBus

BASE = 0x2000_0000


@pytest.fixture
def bus() -> SystemBus:
    bus = SystemBus()
    bus.attach(Memory(size_bytes=4096, base_address=BASE))
    return bus


class TestRouting:
    def test_access_routed_to_slave(self, bus):
        bus.access(BASE, write=True, value=0xCAFE)
        value, _, _, _ = bus.access(BASE, write=False)
        assert value == 0xCAFE

    def test_unmapped_address_rejected(self, bus):
        with pytest.raises(IndexError):
            bus.access(0x4000_0000, write=False)

    def test_overlapping_regions_rejected(self, bus):
        with pytest.raises(ValueError):
            bus.attach(Memory(size_bytes=1024, base_address=BASE + 512))

    def test_multiple_regions(self, bus):
        bus.attach(Memory(size_bytes=1024, base_address=0x1000_0000))
        bus.access(0x1000_0000, write=True, value=7)
        value, _, _, _ = bus.access(0x1000_0000, write=False)
        assert value == 7


class TestActivityAndTiming:
    def test_wait_states_reported(self):
        bus = SystemBus(wait_states=2)
        bus.attach(Memory(size_bytes=1024, base_address=BASE))
        _, _, _, wait = bus.access(BASE, write=False)
        assert wait == 2

    def test_negative_wait_states_rejected(self):
        with pytest.raises(ValueError):
            SystemBus(wait_states=-1)

    def test_activity_reflects_data_change(self, bus):
        _, small_data, small_comb, _ = bus.access(BASE, write=True, value=0)
        _, large_data, large_comb, _ = bus.access(BASE + 0x400, write=True, value=0xFFFFFFFF)
        assert large_data + large_comb > small_data + small_comb
