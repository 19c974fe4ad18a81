"""The decoded core equals the stepping core, exactly.

:class:`repro.soc.cpu.CortexM0Like` decodes every instruction once and runs
its cycle loop on plain ints; ``iss_oracle`` keeps the core it replaced,
which dispatches every fetched instruction and builds every cycle from
activity records.  Both run the same hypothesis-generated programs (ALU
operations with flags, CMP and every branch condition, word and byte
loads and stores, PUSH/POP including ``pc``, BL/BX and HALT) through the
same cycle chunks.  After each chunk the activity arrays, registers,
flags, memory bytes and execution statistics must be identical, and a
chunk that raises must raise the same exception in both.  The workload
programs, the paper's 16,384-cycle Dhrystone window among them, are
checked the same way.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import iss_oracle
from cpu_programs import checksum_program, idle_loop_program, memcopy_program
from repro.soc.assembler import Assembler
from repro.soc.bus import SystemBus
from repro.soc.chip import simulate_m0_window
from repro.soc.cpu import CortexM0Like, CPUError
from repro.soc.memory import Memory
from repro.soc.workloads import dhrystone_like_program

FIELDS = ("clock_toggles", "data_toggles", "comb_toggles")
BASE = 0x2000_0000

ALU = ("add", "sub", "mul", "and", "orr", "eor", "lsl", "lsr", "asr")
CONDITIONS = ("", "eq", "ne", "lt", "le", "gt", "ge", "cs", "cc", "mi", "pl")
#: Registers the generated programs write; r10 holds the data base address.
WRITABLE = tuple(f"r{i}" for i in range(8)) + ("lr", "pc")

immediates = st.one_of(
    st.sampled_from([0, 1, 31, 32, 33, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, -1]),
    st.integers(min_value=-(2**34), max_value=2**34),
).map(lambda value: f"#{value}")
sources = st.one_of(st.sampled_from(WRITABLE + ("r10", "sp")), immediates)
destinations = st.sampled_from(WRITABLE)
reglists = st.lists(st.sampled_from(tuple(f"r{i}" for i in range(8))), min_size=0, max_size=4)


def _reglist(mnemonic, registers, link, link_register):
    """``push``/``pop`` of ``registers``, plus ``lr``/``pc`` if ``link`` (never empty)."""
    if link or not registers:
        registers = [*registers, link_register]
    return f"{mnemonic} {{{', '.join(registers)}}}"


def _instructions(labels: int) -> st.SearchStrategy:
    label = st.integers(min_value=0, max_value=labels - 1).map(lambda k: f"L{k}")
    return st.one_of(
        st.tuples(st.sampled_from(ALU), destinations, sources, sources).map(
            lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"
        ),
        st.tuples(st.sampled_from(ALU), destinations, sources).map(lambda t: f"{t[0]} {t[1]}, {t[2]}"),
        st.tuples(st.sampled_from(("mov", "mvn")), destinations, sources).map(
            lambda t: f"{t[0]} {t[1]}, {t[2]}"
        ),
        st.tuples(sources, sources).map(lambda t: f"cmp {t[0]}, {t[1]}"),
        st.tuples(st.sampled_from(CONDITIONS), label).map(lambda t: f"b{t[0]} {t[1]}"),
        st.tuples(
            st.sampled_from(("ldr", "ldrb", "str", "strb")),
            destinations,
            st.sampled_from(("r10", "sp")),
            st.integers(min_value=0, max_value=255),
        ).map(lambda t: f"{t[0]} {t[1]}, [{t[2]}, #{t[3]}]"),
        st.tuples(reglists, st.booleans()).map(lambda t: _reglist("push", *t, "lr")),
        st.tuples(reglists, st.booleans()).map(lambda t: _reglist("pop", *t, "pc")),
        label.map(lambda name: f"bl {name}"),
        st.sampled_from(("bx lr", "bx r0", "nop", "halt")),
    )


@st.composite
def programs(draw):
    """Assembly source: a prologue, labelled random instructions, data words."""
    length = draw(st.integers(min_value=1, max_value=24))
    body = draw(st.lists(_instructions(length), min_size=length, max_size=length))
    words = draw(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=8))
    lines = ["main:", "mov r10, #0x20", "lsl r10, r10, #24"]
    lines += [f"L{k}: {instruction}" for k, instruction in enumerate(body)]
    if words:
        lines.append(".word " + ", ".join(map(str, words)))
    return Assembler().assemble("\n".join(lines), entry_label="main")


def _system(core, bus_class, memory_class, program, wait_states=0):
    memory = memory_class(size_bytes=64 * 1024, base_address=BASE)
    bus = bus_class(wait_states=wait_states)
    bus.attach(memory)
    if program.data_words:
        memory.load_words(program.data_words)
    return core(program, bus), memory


def _pair(program, wait_states=0):
    library = _system(CortexM0Like, SystemBus, Memory, program, wait_states)
    oracle = _system(iss_oracle.CortexM0Like, iss_oracle.SystemBus, iss_oracle.Memory, program, wait_states)
    return library, oracle


def _state(cpu, memory):
    return (
        [cpu.register(i) for i in range(16)],
        dict(cpu.flags),
        dataclasses.asdict(cpu.stats),
        cpu.halted,
        dict(memory._bytes),
    )


def _run(cpu, cycles):
    try:
        return cpu.run_cycles(cycles)
    except (CPUError, IndexError) as exc:
        return type(exc)


def _assert_same_run(library, oracle, chunks):
    """Run both systems through ``chunks``; the exception type if one raised."""
    (cpu, memory), (twin, twin_memory) = library, oracle
    for chunk in chunks:
        trace, expected = _run(cpu, chunk), _run(twin, chunk)
        assert _state(cpu, memory) == _state(twin, twin_memory)
        assert all(type(flag) is bool for flag in cpu.flags.values())
        if isinstance(expected, type) or isinstance(trace, type):
            assert trace is expected
            return expected
        for field in FIELDS:
            assert getattr(trace, field).dtype == np.int64, field
            assert np.array_equal(getattr(trace, field), getattr(expected, field)), field
    return None


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


def _faulting(name):
    return Assembler().assemble(FAULTING[name][0], entry_label="main")


@settings(max_examples=300, deadline=None)
@given(
    program=programs(),
    wait_states=st.integers(min_value=0, max_value=2),
    chunks=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=10),
)
@example(program=_faulting("ldr"), wait_states=0, chunks=[17])
def test_generated_programs_match_the_stepping_core(program, wait_states, chunks):
    _assert_same_run(*_pair(program, wait_states), chunks)


@pytest.mark.parametrize("name", sorted(FAULTING))
def test_a_faulting_access_leaves_both_cores_alike(name):
    # The state comparison covers SP, memory and the statistics; a memory
    # instruction's accesses count only once all of them have succeeded.
    library, oracle = _pair(_faulting(name))
    assert _assert_same_run(library, oracle, [17]) is IndexError
    assert library[0].stats.memory_accesses == FAULTING[name][1]


@settings(max_examples=50, deadline=None)
@given(program=programs())
def test_both_cores_raise_when_the_pc_leaves_the_program(program):
    # Straight-line code (no branches, calls or pops into pc) falls off the end.
    straight = dataclasses.replace(
        program,
        instructions=[
            instruction
            for instruction in program.instructions
            if instruction.opcode.value not in ("b", "bl", "bx", "pop", "halt")
        ],
    )
    library, oracle = _pair(straight)
    # Every instruction takes at most six cycles (a five-register push).
    raised = _assert_same_run(library, oracle, [1] * (6 * len(straight.instructions)))
    assert raised is CPUError
    assert library[0].register(15) == len(straight.instructions)


#: Compared values whose pairs produce every reachable N, Z, C, V state.
EDGE_VALUES = (0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF)


@pytest.mark.parametrize("condition", CONDITIONS)
def test_every_branch_condition_on_every_compare_outcome(condition):
    for a in EDGE_VALUES:
        for b in EDGE_VALUES:
            program = Assembler().assemble(
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
                """,
                entry_label="main",
            )
            library, oracle = _pair(program)
            assert _assert_same_run(library, oracle, [12]) is None
            assert library[0].halted


@pytest.mark.parametrize(
    "program, cycles",
    [
        (dhrystone_like_program(), 16_384),
        (memcopy_program(), 3_000),
        (idle_loop_program(), 3_000),
        (checksum_program(), 3_000),
    ],
    ids=["dhrystone-paper-window", "memcopy", "idle", "checksum"],
)
def test_workload_windows_match_the_stepping_core(program, cycles):
    assert _assert_same_run(*_pair(program), [cycles]) is None


def test_chip_window_is_the_paper_dhrystone_window():
    window = simulate_m0_window(16_384)
    (cpu, _), _ = _pair(dhrystone_like_program())
    expected = cpu.run_cycles(16_384)
    for field in FIELDS:
        assert np.array_equal(getattr(window, field), getattr(expected, field)), field
