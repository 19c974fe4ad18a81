"""Unit tests for the test-suite ISS core (instruction semantics, timing, activity)."""

import pytest
from iss_oracle import CortexM0Like, CPUActivityModel, CPUError, Memory, SystemBus
from m0_assembler import Assembler

from repro.soc.chip import M0_REGISTERS

BASE = 0x2000_0000


def make_cpu(source: str) -> CortexM0Like:
    program = Assembler().assemble(source, entry_label="main" if "main:" in source else None)
    bus = SystemBus()
    bus.attach(Memory(size_bytes=64 * 1024, base_address=BASE))
    return CortexM0Like(program, bus)


def run(source: str, max_cycles: int = 2000) -> CortexM0Like:
    cpu = make_cpu(source)
    for _ in range(max_cycles):
        cpu.run_cycles(1)
        if cpu.halted:
            break
    return cpu


class TestArithmeticAndLogic:
    def test_mov_and_add(self):
        cpu = run("main:\n mov r0, #5\n add r1, r0, #7\n halt")
        assert cpu.register(1) == 12

    def test_sub_and_flags(self):
        cpu = run("main:\n mov r0, #5\n sub r1, r0, #5\n halt")
        assert cpu.register(1) == 0
        assert cpu.flags["z"] is True

    def test_mul(self):
        cpu = run("main:\n mov r0, #6\n mov r1, #7\n mul r2, r0, r1\n halt")
        assert cpu.register(2) == 42

    def test_logic_operations(self):
        cpu = run(
            "main:\n mov r0, #0xF0\n mov r1, #0x3C\n and r2, r0, r1\n orr r3, r0, r1\n eor r4, r0, r1\n halt"
        )
        assert cpu.register(2) == 0x30
        assert cpu.register(3) == 0xFC
        assert cpu.register(4) == 0xCC

    def test_shifts(self):
        cpu = run("main:\n mov r0, #1\n lsl r1, r0, #4\n lsr r2, r1, #2\n halt")
        assert cpu.register(1) == 16
        assert cpu.register(2) == 4

    def test_asr_preserves_sign(self):
        cpu = run("main:\n mov r0, #0\n sub r0, r0, #8\n asr r1, r0, #1\n halt")
        assert cpu.register(1) == 0xFFFFFFFC

    def test_mvn(self):
        cpu = run("main:\n mov r0, #0\n mvn r1, r0\n halt")
        assert cpu.register(1) == 0xFFFFFFFF

    def test_wraparound_arithmetic(self):
        cpu = run("main:\n mov r0, #0\n sub r0, r0, #1\n add r0, r0, #2\n halt")
        assert cpu.register(0) == 1


class TestControlFlow:
    def test_loop_with_conditional_branch(self):
        cpu = run(
            """
            main:
                mov r0, #0
                mov r1, #5
            loop:
                add r0, r0, #1
                sub r1, r1, #1
                cmp r1, #0
                bne loop
                halt
            """
        )
        assert cpu.register(0) == 5

    def test_signed_comparison_branches(self):
        cpu = run(
            """
            main:
                mov r0, #0
                sub r0, r0, #3     ; r0 = -3
                cmp r0, #1
                blt negative
                mov r1, #0
                halt
            negative:
                mov r1, #1
                halt
            """
        )
        assert cpu.register(1) == 1

    def test_bl_and_bx_return(self):
        cpu = run(
            """
            main:
                mov r0, #10
                bl double
                halt
            double:
                add r0, r0, r0
                bx lr
            """
        )
        assert cpu.register(0) == 20

    def test_call_with_push_pop(self):
        cpu = run(
            """
            main:
                mov r0, #3
                bl helper
                halt
            helper:
                push {r4, lr}
                mov r4, #4
                add r0, r0, r4
                pop {r4, pc}
            """
        )
        assert cpu.register(0) == 7

    def test_taken_branch_costs_more_cycles(self):
        taken = run("main:\n mov r0, #0\n cmp r0, #0\n beq target\n halt\ntarget:\n halt")
        not_taken = run("main:\n mov r0, #0\n cmp r0, #1\n beq target\n halt\ntarget:\n halt")
        assert taken.stats.taken_branches == 1
        assert not_taken.stats.taken_branches == 0

    def test_invalid_pc_raises(self):
        cpu = make_cpu("nop")
        cpu.run_cycles(1)
        with pytest.raises(CPUError):
            cpu.run_cycles(1)  # falls off the end of the program


class TestMemoryInstructions:
    def test_store_and_load_word(self):
        cpu = run(
            """
            main:
                mov r2, #0x20
                lsl r2, r2, #24
                mov r0, #0x5A
                str r0, [r2, #16]
                ldr r1, [r2, #16]
                halt
            """
        )
        assert cpu.register(1) == 0x5A

    def test_byte_access(self):
        cpu = run(
            """
            main:
                mov r2, #0x20
                lsl r2, r2, #24
                mov r0, #0xAB
                strb r0, [r2, #3]
                ldrb r1, [r2, #3]
                halt
            """
        )
        assert cpu.register(1) == 0xAB

    def test_memory_access_counted(self):
        cpu = run(
            "main:\n mov r2, #0x20\n lsl r2, r2, #24\n mov r0, #1\n str r0, [r2]\n ldr r1, [r2]\n halt"
        )
        assert cpu.stats.memory_accesses == 2


class TestTimingAndActivity:
    def test_cpi_above_one(self):
        cpu = run(
            """
            main:
                mov r0, #20
            loop:
                sub r0, r0, #1
                cmp r0, #0
                bne loop
                halt
            """
        )
        assert cpu.stats.cycles > cpu.stats.instructions

    def test_halted_cpu_reports_idle_activity(self):
        cpu = run("main:\n halt")
        idle = cpu.run_cycles(1)[0]
        assert idle.clock_toggles == 2 * cpu.activity.always_clocked_registers
        assert idle.data_toggles == 0

    def test_halted_cycles_do_not_inflate_cycle_count(self):
        # Regression: post-halt idle stepping used to increment
        # ``stats.cycles`` and therefore inflate cycles per instruction for
        # callers that keep stepping (e.g. fixed-length activity windows).
        cpu = run("main:\n mov r0, #1\n add r0, r0, #2\n halt")
        executed_cycles = cpu.stats.cycles
        executed_instructions = cpu.stats.instructions
        assert cpu.stats.halted_cycles == 0
        for _ in range(25):
            cpu.run_cycles(1)
        assert cpu.stats.cycles == executed_cycles
        assert cpu.stats.instructions == executed_instructions
        assert cpu.stats.halted_cycles == 25

    def test_run_cycles_on_halted_core_counts_only_idle(self):
        cpu = run("main:\n halt")
        executed = cpu.stats.cycles
        trace = cpu.run_cycles(40)
        assert len(trace) == 40
        assert cpu.stats.cycles == executed
        assert cpu.stats.halted_cycles == 40

    def test_activity_trace_length(self):
        cpu = make_cpu("main:\n mov r0, #1\n b main")
        trace = cpu.run_cycles(200)
        assert len(trace) == 200
        assert trace.total_toggles.min() > 0

    def test_activity_varies_cycle_to_cycle(self):
        cpu = make_cpu(
            """
            main:
                mov r2, #0x20
                lsl r2, r2, #24
            loop:
                ldr r0, [r2]
                add r0, r0, #1
                str r0, [r2]
                b loop
            """
        )
        trace = cpu.run_cycles(300)
        assert trace.total_toggles.std() > 0

    def test_activity_model_totals(self):
        model = CPUActivityModel()
        assert model.total_registers == (
            model.always_clocked_registers + model.pipeline_registers + model.regfile_registers
        )
        # The chips count the core's flip-flops as this one constant.
        assert model.total_registers == M0_REGISTERS

    def test_run_cycles_requires_positive(self):
        cpu = make_cpu("nop")
        with pytest.raises(ValueError):
            cpu.run_cycles(0)
