"""The test-suite ISS against independent references.

The library reads the Cortex-M0's activity from the window shipped as
package data (:mod:`repro.soc.cpu`).  ``iss_oracle`` is the simulator that
produced it, so:

* running Dhrystone on it from reset must regenerate the shipped window
  exactly, in all three arrays;
* every branch condition must follow the architectural meaning of a
  compare of every pair of edge values (signed and unsigned order,
  equality, sign of the difference), computed here without the flags;
* a faulting memory instruction raises ``IndexError`` and counts only the
  accesses of instructions that completed;
* straight-line code that runs off the end of the program raises
  ``CPUError`` with the PC one past the last instruction.
"""

import numpy as np
import pytest
from cpu_programs import dhrystone_window
from hypothesis import given, settings, strategies as st
from iss_oracle import CortexM0Like, CPUError, Memory, SystemBus
from m0_assembler import Assembler

from repro.soc.cpu import M0_WINDOW_CYCLES, m0_window

FIELDS = ("clock_toggles", "data_toggles", "comb_toggles")
BASE = 0x2000_0000
MASK = 0xFFFF_FFFF

ALU = ("add", "sub", "mul", "and", "orr", "eor", "lsl", "lsr", "asr")
CONDITIONS = ("", "eq", "ne", "lt", "le", "gt", "ge", "cs", "cc", "mi", "pl")
#: Registers the generated programs write; r10 holds the data base address.
WRITABLE = tuple(f"r{i}" for i in range(8)) + ("lr",)

immediates = st.one_of(
    st.sampled_from([0, 1, 31, 32, 33, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, -1]),
    st.integers(min_value=-(2**34), max_value=2**34),
).map(lambda value: f"#{value}")
sources = st.one_of(st.sampled_from(WRITABLE + ("r10", "sp")), immediates)
destinations = st.sampled_from(WRITABLE)
reglists = st.lists(st.sampled_from(tuple(f"r{i}" for i in range(8))), min_size=1, max_size=4)

#: Branch-free instructions whose accesses stay inside the SRAM.
straight_instructions = st.one_of(
    st.tuples(st.sampled_from(ALU), destinations, sources, sources).map(
        lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"
    ),
    st.tuples(st.sampled_from(("mov", "mvn")), destinations, sources).map(
        lambda t: f"{t[0]} {t[1]}, {t[2]}"
    ),
    st.tuples(sources, sources).map(lambda t: f"cmp {t[0]}, {t[1]}"),
    st.tuples(
        st.sampled_from(("ldr", "ldrb", "str", "strb")),
        destinations,
        st.sampled_from(("r10", "sp")),
        st.integers(min_value=0, max_value=255),
    ).map(lambda t: f"{t[0]} {t[1]}, [{t[2]}, #{t[3]}]"),
    reglists.map(lambda registers: f"push {{{', '.join(registers)}}}"),
    st.just("nop"),
)


def _core(source):
    program = Assembler().assemble(source, entry_label="main")
    memory = Memory(size_bytes=64 * 1024, base_address=BASE)
    bus = SystemBus()
    bus.attach(memory)
    return CortexM0Like(program, bus)


def test_chip_window_is_the_paper_dhrystone_window():
    regenerated = dhrystone_window(M0_WINDOW_CYCLES)
    shipped = m0_window(M0_WINDOW_CYCLES)
    for field in FIELDS:
        assert getattr(regenerated, field).dtype == np.int64, field
        assert np.array_equal(getattr(regenerated, field), getattr(shipped, field)), (
            f"the ISS no longer regenerates the shipped M0 window ({field}); if the "
            "change to the core is intended, rewrite the file with "
            "cpu_programs.write_m0_window('src/repro/soc/m0_window.npz') and state "
            "the moved goldens"
        )


def _signed(value):
    return value - (1 << 32) if value & 0x8000_0000 else value


#: Each condition's architectural meaning after ``cmp a, b``.
HOLDS = {
    "": lambda a, b: True,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: _signed(a) < _signed(b),
    "le": lambda a, b: _signed(a) <= _signed(b),
    "gt": lambda a, b: _signed(a) > _signed(b),
    "ge": lambda a, b: _signed(a) >= _signed(b),
    "cs": lambda a, b: a >= b,
    "cc": lambda a, b: a < b,
    "mi": lambda a, b: bool((a - b) & MASK & 0x8000_0000),
    "pl": lambda a, b: not (a - b) & MASK & 0x8000_0000,
}

#: Compared values whose pairs produce every reachable N, Z, C, V state.
EDGE_VALUES = (0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF)


@pytest.mark.parametrize("condition", CONDITIONS)
def test_every_branch_condition_on_every_compare_outcome(condition):
    for a in EDGE_VALUES:
        for b in EDGE_VALUES:
            cpu = _core(
                f"""
                main:
                    mov r0, #{a}
                    mov r1, #{b}
                    cmp r0, r1
                    b{condition} taken
                    mov r2, #0
                    halt
                taken:
                    mov r2, #1
                    halt
                """
            )
            cpu.run_cycles(12)
            assert cpu.halted
            assert all(type(flag) is bool for flag in cpu.flags.values())
            assert cpu.register(2) == int(HOLDS[condition](a, b)), (condition, a, b)
            assert cpu.stats.taken_branches == int(HOLDS[condition](a, b))


#: Programs whose last memory instruction faults (r10 or sp leaves the
#: 64 KiB SRAM), with the memory accesses that completed before it.
FAULTING = {
    # BX returns to the LSL, which shifts r10 to 0: the LDR then faults.
    "ldr": (
        "main:\nmov r10, #32\nlsl r10, r10, #24\nbl L1\n"
        "L1: add r14, r0, #1\nldr r0, [r10, #0]\nbx r14",
        1,
    ),
    # Two of four pushed words fit above the SRAM base.
    "push": (
        "main:\nmov r10, #32\nlsl r10, r10, #24\nadd sp, r10, #8\n"
        "mov r1, #7\npush {r0, r1, r2, r3}\nhalt",
        0,
    ),
    # Two of three popped words lie below the SRAM top.
    "pop": (
        "main:\nmov r10, #32\nlsl r10, r10, #24\nadd sp, r10, #65528\n"
        "pop {r0, r1, r2}\nhalt",
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(FAULTING))
def test_a_faulting_access_counts_only_completed_instructions(name):
    source, completed = FAULTING[name]
    cpu = _core(source)
    with pytest.raises(IndexError):
        cpu.run_cycles(17)
    assert cpu.stats.memory_accesses == completed


@settings(max_examples=50, deadline=None)
@given(body=st.lists(straight_instructions, min_size=1, max_size=24))
def test_the_core_raises_when_the_pc_leaves_the_program(body):
    cpu = _core("\n".join(["main:", "mov r10, #0x20", "lsl r10, r10, #24", *body]))
    length = len(cpu.program.instructions)
    # Every instruction takes at most six cycles (a five-register push).
    with pytest.raises(CPUError):
        for _ in range(6 * length):
            cpu.run_cycles(1)
    assert cpu.register(15) == length
    assert cpu.stats.instructions == length
    assert not cpu.halted
