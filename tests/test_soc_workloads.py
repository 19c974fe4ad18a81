"""Unit tests for the CPU test programs, Dhrystone among them."""

import pytest
from cpu_programs import (
    background_power_running,
    checksum_program,
    dhrystone_like_program,
    idle_loop_program,
    memcopy_program,
)
from iss_oracle import CortexM0Like, Memory, SystemBus

from repro.soc.chip import build_chip_one, build_chip_two

BASE = 0x2000_0000


def run_program(program, cycles=3000):
    bus = SystemBus()
    bus.attach(Memory(size_bytes=64 * 1024, base_address=BASE))
    cpu = CortexM0Like(program, bus)
    trace = cpu.run_cycles(cycles)
    return cpu, trace


class TestDhrystoneLike:
    def test_assembles(self):
        program = dhrystone_like_program()
        assert len(program) > 50
        assert program.entry_point == program.label_address("main")

    def test_runs_without_halting(self):
        cpu, _ = run_program(dhrystone_like_program())
        assert not cpu.halted
        assert cpu.stats.instructions > 500

    def test_exercises_memory_and_branches(self):
        cpu, _ = run_program(dhrystone_like_program())
        assert cpu.stats.memory_accesses > 50
        assert cpu.stats.taken_branches > 50

    def test_string_copy_actually_copies(self):
        bus = SystemBus()
        memory = Memory(size_bytes=64 * 1024, base_address=BASE)
        bus.attach(memory)
        for i in range(16):
            memory.write_byte(BASE + 32 + i, 0x40 + i)
        cpu = CortexM0Like(dhrystone_like_program(), bus)
        cpu.run_cycles(2000)
        copied = [memory.read_byte(BASE + 64 + i) for i in range(16)]
        assert copied == [0x40 + i for i in range(16)]

    def test_iteration_counter_increments(self):
        cpu, _ = run_program(dhrystone_like_program(), cycles=5000)
        assert cpu.register(11) >= 2  # several benchmark iterations completed


class TestOtherWorkloads:
    def test_memcopy_runs(self):
        cpu, trace = run_program(memcopy_program())
        assert cpu.stats.memory_accesses > 100
        assert len(trace) == 3000

    def test_idle_loop_runs(self):
        cpu, _ = run_program(idle_loop_program())
        assert cpu.stats.memory_accesses == 0
        assert not cpu.halted

    def test_checksum_runs(self):
        cpu, _ = run_program(checksum_program())
        assert cpu.stats.memory_accesses > 20

    def test_activity_ordering_between_workloads(self):
        _, idle_trace = run_program(idle_loop_program())
        _, memcopy_trace = run_program(memcopy_program())
        assert memcopy_trace.total_toggles.mean() > idle_trace.total_toggles.mean()

    @pytest.mark.parametrize("build", [build_chip_one, build_chip_two])
    @pytest.mark.parametrize("num_cycles", [1_000, 2_049])
    def test_running_dhrystone_gives_the_chip_background(self, build, num_cycles):
        chip = build(m0_window_cycles=512)
        expected = chip.background_power(num_cycles, seed=4)
        actual = background_power_running(chip, dhrystone_like_program(), num_cycles, seed=4)
        assert actual.power_w.tobytes() == expected.power_w.tobytes()
