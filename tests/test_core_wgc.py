"""Unit tests for repro.core.wgc."""

import numpy as np
import rtl_oracle

from repro.core.wgc import WatermarkGenerationCircuit


class TestConstruction:
    def test_minimal_wgc_register_count(self):
        wgc = WatermarkGenerationCircuit.minimal(width=12)
        assert wgc.register_count == 12
        assert wgc.period == 4095

    def test_test_chip_wgc_has_two_generators(self):
        wgc = WatermarkGenerationCircuit.test_chip()
        # The 12-bit LFSR, the idle second 32-bit generator, and the active
        # generator's 20 unused stages plus 8 configuration registers.
        assert wgc.lfsr.register_count == 12
        assert wgc.idle_registers == 32
        assert wgc.register_count == 12 + 32 + 20 + 8

    def test_cell_inventory(self):
        wgc = WatermarkGenerationCircuit.minimal(width=12)
        inventory = wgc.cell_inventory()
        assert inventory["dff"] == 12
        assert inventory["comb"] >= 1


class TestBehaviour:
    def test_wmark_follows_active_generator(self):
        wgc = rtl_oracle.WatermarkGenerationCircuit.minimal(width=12, seed=0x5A5)
        reference = rtl_oracle.LFSR(width=12, seed=0x5A5)
        for _ in range(50):
            wmark, _ = wgc.step()
            expected, _ = reference.step()
            assert wmark == expected

    def test_sequence_matches_stepped_output(self):
        wgc = rtl_oracle.WatermarkGenerationCircuit.minimal(width=8, seed=0x2B)
        sequence = wgc.sequence(40)
        observed = [wgc.wmark]
        for _ in range(39):
            bit, _ = wgc.step()
            observed.append(bit)
        assert list(sequence) == observed

    def test_step_activity_includes_config_registers(self):
        wgc = WatermarkGenerationCircuit.test_chip(active_width=12)
        activity = rtl_oracle.records_of(wgc.activity(1))[0]
        # Active LFSR (12 regs) plus always-clocked configuration registers.
        assert activity.clock_toggles > 24

    def test_sequence_period_duty(self):
        wgc = WatermarkGenerationCircuit.test_chip(active_width=12)
        sequence = wgc.sequence()
        assert len(sequence) == 4095
        assert int(sequence.sum()) == 2048


class TestTestChipPowerStructure:
    def test_wgc_dynamic_power_band(self, nominal_estimator):
        # The test-chip WGC must be small enough for the bank to dominate
        # (Table I: the load circuit is 95.6%-98% of watermark dynamic power).
        trace = WatermarkGenerationCircuit.test_chip(active_width=12).activity(200)
        power = nominal_estimator.average_power(trace)
        assert 30e-6 < power < 120e-6
