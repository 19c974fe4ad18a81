"""Cortex-M0-class scalar in-order core model.

The core executes programs written in the Thumb-like ISA and, for every
clock cycle, reports the switching activity of:

* the core's clock network (always-clocked control registers, pipeline
  registers while the core is not sleeping, register-file write banks when
  a result is written),
* datapath toggles (fetch bus, operand buses, ALU result, load/store data),
* decode/ALU combinational activity, and
* the system bus / SRAM for memory accesses.

Timing loosely follows the Cortex-M0: single-cycle ALU operations,
two-cycle loads and stores, pipeline-refill penalty on taken branches.
The goal is not microarchitectural fidelity but a background power trace
whose cycle-to-cycle structure is driven by real instruction execution --
exactly the "noise" the CPA detector has to overcome in the paper.

Every instruction is decoded once, when the core is built, into a tuple of
plain ints (see :func:`_decode`), and the cycle loop keeps the register
file, flags and datapath history in locals.  ``tests/iss_oracle.py`` keeps
the stepping core this replaced, which the tests compare against exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from dataclasses import dataclass

import numpy as np

from repro.caching import LRUCache
from repro.rtl.activity import ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE
from repro.soc.assembler import Program
from repro.soc.bus import SystemBus
from repro.soc.isa import (
    Condition,
    Instruction,
    Opcode,
    Operand,
    TAKEN_BRANCH_PENALTY,
    LR,
    PC,
    SP,
)

_WORD_MASK = 0xFFFFFFFF
_SIGN_BIT = 0x8000_0000


# -- shared M0 window cache ----------------------------------------------------
#
# Both chips run the same program on the same core and SRAM, so the
# simulated window is a pure function of its length and one simulation is
# shared by every chip instance.  A cold window of the paper's 16,384
# cycles still costs tens of milliseconds, while a hit is free.  The
# cache is keyed by a caller-built tuple (see ``ChipModel._m0_window``).

#: Upper bound on retained window traces (LRU eviction beyond this).
M0_WINDOW_CACHE_MAX_ENTRIES = 32

_M0_WINDOW_CACHE = LRUCache(lambda: M0_WINDOW_CACHE_MAX_ENTRIES)


def _frozen_trace_copy(trace: ActivityTrace) -> ActivityTrace:
    """A read-only snapshot of a trace (shared cache entries must not mutate)."""
    arrays = {}
    for attr in ("clock_toggles", "data_toggles", "comb_toggles"):
        array = np.array(getattr(trace, attr), dtype=np.int64)
        array.flags.writeable = False
        arrays[attr] = array
    return ActivityTrace(name=trace.name, **arrays)


def cached_window_trace(
    key: Hashable, simulate: Callable[[], ActivityTrace]
) -> ActivityTrace:
    """The cached activity window for ``key``, simulating on a miss.

    The returned trace shares read-only arrays with the cache, so callers
    can gather/index freely but cannot corrupt other chips' view of the
    window.
    """
    return _M0_WINDOW_CACHE.get_or_compute(key, lambda: _frozen_trace_copy(simulate()))


def clear_m0_window_cache() -> None:
    """Explicitly drop every cached M0 window (and reset the hit counters)."""
    _M0_WINDOW_CACHE.clear()


def m0_window_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters plus current size of the window cache."""
    return _M0_WINDOW_CACHE.stats()


@dataclass(frozen=True)
class CPUActivityModel:
    """Structural activity parameters of the core.

    Register counts are representative of a Cortex-M0-class core
    (~1,000 flip-flops); they determine the clock-network share of the
    core's dynamic power, which the paper notes is typically up to half of
    total dynamic power.
    """

    always_clocked_registers: int = 180
    pipeline_registers: int = 130
    regfile_registers: int = 512
    regfile_write_width: int = 32
    decode_gates: int = 400
    alu_gates: int = 600
    comb_activity_factor: float = 0.12

    @property
    def total_registers(self) -> int:
        """Total flip-flop count of the core."""
        return self.always_clocked_registers + self.pipeline_registers + self.regfile_registers


@dataclass
class ExecutionStats:
    """Aggregate execution statistics of a run.

    ``cycles`` counts only cycles during which the core was running the
    program; cycles stepped after ``halt`` are tracked separately in
    ``halted_cycles`` so CPI and cycle-count consumers are not inflated by
    post-halt idle stepping (the core is still clocked while halted, which
    matters for power but not for execution statistics).
    """

    cycles: int = 0
    halted_cycles: int = 0
    instructions: int = 0
    branches: int = 0
    taken_branches: int = 0
    memory_accesses: int = 0
    halted: bool = False


class CPUError(Exception):
    """Raised on invalid program behaviour (bad PC, missing label, ...)."""


# -- decoding ------------------------------------------------------------------
#
# Each instruction decodes once into the tuple
#
#     (kind, fetch_word, base_cycles, clock, t0, t1, rd, ra, rb, aux)
#
# * ``kind``: the handler of the cycle loop (one of the ``_K_*`` ints);
# * ``fetch_word``: the synthetic 16-bit encoding the fetch bus carries;
# * ``base_cycles``: latency before wait states and the taken-branch penalty;
# * ``clock``: clock-network toggles of the executing cycle (a register-file
#   write clocks the write bank as well);
# * ``t0``, ``t1``: operand-file slots of the first two register/immediate
#   operands, which drive the operand buses (``t0 < 0``: none);
# * ``rd``, ``ra``, ``rb``, ``aux``: per kind --
#   ALU/MOV/MVN: destination register and the operand-file slots of the two
#   sources (CMP: ``ra``, ``rb`` only); loads/stores: data register, base
#   register, offset and access width; PUSH/POP: ``aux`` is the register
#   list in transfer order; B/BL: branch target (``None`` when the label is
#   undefined), label name and, for B, the condition row; BX: the target
#   register; malformed: ``aux`` is the error message.
#
# The operand file is the 16 architectural registers followed by the
# program's immediates (masked to 32 bits), so every register or immediate
# operand is one list index.

(
    _K_ADD, _K_SUB, _K_MUL, _K_AND, _K_ORR, _K_EOR, _K_LSL, _K_LSR, _K_ASR,
    _K_MOV, _K_MVN, _K_CMP, _K_LOAD, _K_STORE, _K_PUSH, _K_POP,
    _K_B, _K_BL, _K_BX, _K_NOP, _K_HALT, _K_MALFORMED,
) = range(22)

_ALU_KINDS = {
    Opcode.ADD: _K_ADD,
    Opcode.SUB: _K_SUB,
    Opcode.MUL: _K_MUL,
    Opcode.AND: _K_AND,
    Opcode.ORR: _K_ORR,
    Opcode.EOR: _K_EOR,
    Opcode.LSL: _K_LSL,
    Opcode.LSR: _K_LSR,
    Opcode.ASR: _K_ASR,
}
_MEMORY_KINDS = {
    Opcode.LDR: (_K_LOAD, 4),
    Opcode.LDRB: (_K_LOAD, 1),
    Opcode.STR: (_K_STORE, 4),
    Opcode.STRB: (_K_STORE, 1),
}
_SIMPLE_KINDS = {
    Opcode.MOV: _K_MOV,
    Opcode.MVN: _K_MVN,
    Opcode.NOP: _K_NOP,
    Opcode.HALT: _K_HALT,
}
#: Kinds that write the register file (and so clock its write bank).
_REGFILE_WRITE_KINDS = frozenset(_ALU_KINDS.values()) | {_K_MOV, _K_MVN, _K_LOAD, _K_POP, _K_BL}

_CONDITIONS: Dict[Condition, Callable[[bool, bool, bool, bool], bool]] = {
    Condition.AL: lambda n, z, c, v: True,
    Condition.EQ: lambda n, z, c, v: z,
    Condition.NE: lambda n, z, c, v: not z,
    Condition.CS: lambda n, z, c, v: c,
    Condition.CC: lambda n, z, c, v: not c,
    Condition.MI: lambda n, z, c, v: n,
    Condition.PL: lambda n, z, c, v: not n,
    Condition.LT: lambda n, z, c, v: n != v,
    Condition.LE: lambda n, z, c, v: z or (n != v),
    Condition.GT: lambda n, z, c, v: (not z) and (n == v),
    Condition.GE: lambda n, z, c, v: n == v,
}

#: Per condition, whether it holds for each flag state, indexed by
#: ``8*n + 4*z + 2*c + v``.
_CONDITION_ROWS: Dict[Condition, Tuple[bool, ...]] = {
    condition: tuple(
        bool(holds(bool(i & 8), bool(i & 4), bool(i & 2), bool(i & 1))) for i in range(16)
    )
    for condition, holds in _CONDITIONS.items()
}


class _OperandFile:
    """Slot allocation of the operand file (registers, then immediates)."""

    def __init__(self) -> None:
        #: Immediate value -> slot, in slot order.
        self.constants: Dict[int, int] = {}

    def slot(self, operand: Operand) -> Optional[int]:
        """The slot of a register or immediate operand, else ``None``."""
        if operand.kind == "reg":
            return operand.value
        if operand.kind == "imm":
            return self.constant(operand.value & _WORD_MASK)
        return None

    def constant(self, value: int) -> int:
        """The slot of an immediate value, allocated on first use."""
        return self.constants.setdefault(value, 16 + len(self.constants))


def _decode(
    instruction: Instruction, program: Program, model: CPUActivityModel, slots: _OperandFile
) -> tuple:
    """Decode one instruction into the cycle loop's tuple (see above).

    An instruction whose operands do not fit its opcode decodes to a
    malformed entry, which raises :class:`CPUError` when it executes.
    """
    opcode = instruction.opcode
    operands = instruction.operands
    kinds = tuple(operand.kind for operand in operands)
    value_slots = [slots.slot(operand) for operand in operands]
    values = [slot for slot in value_slots if slot is not None]
    t0 = values[0] if values else -1
    t1 = values[1] if len(values) > 1 else slots.constant(0)
    kind = _K_MALFORMED
    rd = ra = rb = aux = None
    sources: Optional[List[Optional[int]]] = None
    if opcode in _ALU_KINDS and kinds[:1] == ("reg",):
        kind, rd = _ALU_KINDS[opcode], operands[0].value
        # Three operands: rd = ra op rb; otherwise rd = rd op operand.
        sources = value_slots[1:3] if len(operands) == 3 else [rd, *value_slots[1:2]]
    elif opcode in (Opcode.MOV, Opcode.MVN) and kinds[:1] == ("reg",):
        kind, rd = _SIMPLE_KINDS[opcode], operands[0].value
        sources = [*value_slots[1:2], 0]
    elif opcode is Opcode.CMP:
        kind, sources = _K_CMP, value_slots[:2]
    elif opcode in _MEMORY_KINDS and kinds[:2] == ("reg", "mem"):
        kind, aux = _MEMORY_KINDS[opcode]
        rd = operands[0].value
        ra, rb = operands[1].value
    elif opcode in (Opcode.PUSH, Opcode.POP) and kinds[:1] == ("reglist",):
        # PUSH stores the highest register first, POP loads the lowest first.
        registers = operands[0].value
        kind = _K_PUSH if opcode is Opcode.PUSH else _K_POP
        aux = tuple(reversed(registers)) if opcode is Opcode.PUSH else tuple(registers)
    elif opcode in (Opcode.B, Opcode.BL) and kinds[:1] == ("label",):
        kind = _K_B if opcode is Opcode.B else _K_BL
        ra = operands[0].value
        rd = program.labels.get(ra)
        aux = _CONDITION_ROWS[instruction.condition]
    elif opcode is Opcode.BX and kinds[:1] == ("reg",):
        kind, rd = _K_BX, operands[0].value
    elif opcode in (Opcode.NOP, Opcode.HALT):
        kind = _SIMPLE_KINDS[opcode]
    if sources is not None:
        if len(sources) == 2 and None not in sources:
            ra, rb = sources
        else:
            kind = _K_MALFORMED
    if kind == _K_MALFORMED:
        aux = f"malformed operands {kinds} for {opcode.value}"
    clocked = model.always_clocked_registers + model.pipeline_registers
    if kind in _REGFILE_WRITE_KINDS:
        clocked += model.regfile_write_width
    return (
        kind,
        instruction.encode(),
        instruction.base_cycles(),
        CLOCK_EDGES_PER_CYCLE * clocked,
        t0,
        t1,
        rd,
        ra,
        rb,
        aux,
    )


class CortexM0Like:
    """In-order scalar core executing an assembled :class:`Program`."""

    def __init__(
        self,
        program: Program,
        bus: SystemBus,
        activity_model: Optional[CPUActivityModel] = None,
        stack_pointer: int = 0x2000_F000,
        name: str = "cpu0",
    ) -> None:
        self.name = name
        self.program = program
        self.bus = bus
        self.activity = activity_model or CPUActivityModel()
        slots = _OperandFile()
        self._decoded = [
            _decode(instruction, program, self.activity, slots)
            for instruction in program.instructions
        ]
        self._constants = list(slots.constants)
        self.registers: List[int] = [0] * 16
        self.registers[SP] = stack_pointer & _WORD_MASK
        self.registers[PC] = program.entry_point
        self.flags = {"n": False, "z": False, "c": False, "v": False}
        self.stats = ExecutionStats()
        self.halted = False
        # Datapath history for Hamming-distance switching estimates.
        self._prev_fetch_word = 0
        self._prev_result = 0
        self._prev_operands = (0, 0)
        # Remaining stall cycles of a multi-cycle instruction and the
        # (clock, data, comb) toggles each of them repeats.
        self._stall_cycles = 0
        self._stall_toggles = (0, 0, 0)

    def register(self, index: int) -> int:
        """Read an architectural register."""
        return self.registers[index] & _WORD_MASK

    def run_cycles(self, num_cycles: int) -> ActivityTrace:
        """Run for ``num_cycles`` clock cycles and return the activity trace."""
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        clock, data, comb = self._run(num_cycles)
        return ActivityTrace(
            name=self.name,
            clock_toggles=np.array(clock, dtype=np.int64),
            data_toggles=np.array(data, dtype=np.int64),
            comb_toggles=np.array(comb, dtype=np.int64),
        )

    def _run(self, num_cycles: int) -> Tuple[List[int], List[int], List[int]]:
        """Advance ``num_cycles`` clock cycles; each cycle's clock, data and comb toggles.

        An instruction's first cycle carries its datapath and bus activity;
        each further (stall) cycle repeats the core's clock toggles and half
        its datapath and comb toggles.  A halted core is clocked but idle.
        The core's state lives in locals while the loop runs and is stored
        back when it ends, also when it raises.
        """
        clock_out: List[int] = []
        data_out: List[int] = []
        comb_out: List[int] = []
        activity = self.activity
        idle_clock = CLOCK_EDGES_PER_CYCLE * activity.always_clocked_registers
        comb_base = int(round((activity.decode_gates + activity.alu_gates) * activity.comb_activity_factor))
        decoded = self._decoded
        program_length = len(decoded)
        access = self.bus.access
        operands = self.registers + self._constants
        pc = operands[PC]
        flags = self.flags
        flag_n, flag_z, flag_c, flag_v = flags["n"], flags["z"], flags["c"], flags["v"]
        stats = self.stats
        cycles, halted_cycles, instructions = stats.cycles, stats.halted_cycles, stats.instructions
        branches, taken_branches, memory_accesses = stats.branches, stats.taken_branches, stats.memory_accesses
        halted = self.halted
        prev_fetch, prev_result = self._prev_fetch_word, self._prev_result
        prev_a, prev_b = self._prev_operands
        stall = self._stall_cycles
        stall_clock, stall_data, stall_comb = self._stall_toggles
        cycles_left = num_cycles
        try:
            # Sequential by nature: each instruction's activity depends on the
            # state the previous one left.  It runs once per program and window,
            # then the window is cached.
            while cycles_left:
                if halted:
                    clock_out += [idle_clock] * cycles_left
                    data_out += [0] * cycles_left
                    comb_out += [0] * cycles_left
                    halted_cycles += cycles_left
                    break
                if stall:
                    repeat = min(stall, cycles_left)
                    clock_out += [stall_clock] * repeat
                    data_out += [stall_data] * repeat
                    comb_out += [stall_comb] * repeat
                    stall -= repeat
                    cycles += repeat
                    cycles_left -= repeat
                    continue
                cycles += 1
                cycles_left -= 1
                if not 0 <= pc < program_length:
                    raise CPUError(f"program counter {pc} outside program of {program_length} instructions")
                kind, word, base_cycles, clock, t0, t1, rd, ra, rb, aux = decoded[pc]
                instructions += 1
                datapath = (prev_fetch ^ word).bit_count()
                prev_fetch = word
                if t0 >= 0:
                    a = operands[t0]
                    b = operands[t1]
                    datapath += (prev_a ^ a).bit_count() + (prev_b ^ b).bit_count()
                    prev_a = a
                    prev_b = b
                next_pc = pc + 1
                result = 0
                bus_data = bus_comb = extra_cycles = 0
                if kind <= _K_ASR:  # the nine ALU kinds number first
                    a = operands[ra]
                    b = operands[rb]
                    if kind == _K_ADD:
                        raw = a + b
                        result = raw & _WORD_MASK
                        flag_c = raw > _WORD_MASK
                        flag_v = (a ^ result) & (b ^ result) & _SIGN_BIT != 0
                    elif kind == _K_SUB:
                        result = (a - b) & _WORD_MASK
                        flag_c = a >= b
                        flag_v = (a ^ b) & (a ^ result) & _SIGN_BIT != 0
                    elif kind == _K_MUL:
                        result = (a * b) & _WORD_MASK
                    elif kind == _K_AND:
                        result = a & b
                    elif kind == _K_ORR:
                        result = a | b
                    elif kind == _K_EOR:
                        result = a ^ b
                    elif kind == _K_LSL:
                        result = (a << (b & 0x1F)) & _WORD_MASK
                    elif kind == _K_LSR:
                        result = a >> (b & 0x1F)
                    else:
                        signed = a - (1 << 32) if a & _SIGN_BIT else a
                        result = (signed >> (b & 0x1F)) & _WORD_MASK
                    operands[rd] = result
                    flag_n = result >= _SIGN_BIT
                    flag_z = result == 0
                elif kind == _K_MOV or kind == _K_MVN:
                    result = operands[ra] if kind == _K_MOV else ~operands[ra] & _WORD_MASK
                    operands[rd] = result
                    flag_n = result >= _SIGN_BIT
                    flag_z = result == 0
                elif kind == _K_CMP:
                    a = operands[ra]
                    b = operands[rb]
                    result = (a - b) & _WORD_MASK
                    flag_n = result >= _SIGN_BIT
                    flag_z = result == 0
                    flag_c = a >= b
                    flag_v = (a ^ b) & (a ^ result) & _SIGN_BIT != 0
                elif kind == _K_B:
                    branches += 1
                    if aux[8 * flag_n + 4 * flag_z + 2 * flag_c + flag_v]:
                        taken_branches += 1
                        next_pc = rd if rd is not None else self.program.label_address(ra)
                        extra_cycles = TAKEN_BRANCH_PENALTY
                # An instruction's accesses count once all of them succeed.
                elif kind == _K_LOAD:
                    address = (operands[ra] + rb) & _WORD_MASK
                    result, bus_data, bus_comb, extra_cycles = access(address, False, None, aux)
                    operands[rd] = result
                    memory_accesses += 1
                elif kind == _K_STORE:
                    address = (operands[ra] + rb) & _WORD_MASK
                    result = operands[rd] if aux == 4 else operands[rd] & 0xFF
                    _, bus_data, bus_comb, extra_cycles = access(address, True, result, aux)
                    memory_accesses += 1
                elif kind == _K_PUSH:
                    for register in aux:
                        address = operands[SP] = (operands[SP] - 4) & _WORD_MASK
                        _, access_data, access_comb, wait = access(address, True, operands[register], 4)
                        bus_data += access_data
                        bus_comb += access_comb
                        extra_cycles += wait
                    memory_accesses += len(aux)
                elif kind == _K_POP:
                    for register in aux:
                        address = operands[SP]
                        result, access_data, access_comb, wait = access(address, False, None, 4)
                        operands[SP] = (address + 4) & _WORD_MASK
                        bus_data += access_data
                        bus_comb += access_comb
                        extra_cycles += wait
                        if register == PC:
                            next_pc = result
                        else:
                            operands[register] = result
                    memory_accesses += len(aux)
                elif kind == _K_BL:
                    branches += 1
                    taken_branches += 1
                    operands[LR] = (pc + 1) & _WORD_MASK
                    next_pc = rd if rd is not None else self.program.label_address(ra)
                elif kind == _K_BX:
                    branches += 1
                    taken_branches += 1
                    next_pc = operands[rd]
                elif kind == _K_HALT:
                    halted = True
                    next_pc = pc
                elif kind == _K_MALFORMED:
                    raise CPUError(f"{aux} at program counter {pc}")
                datapath += (prev_result ^ result).bit_count()
                prev_result = result
                comb = comb_base + datapath // 2
                clock_out.append(clock)
                data_out.append(datapath + bus_data)
                comb_out.append(comb + bus_comb)
                stall = base_cycles + extra_cycles - 1
                stall_clock, stall_data, stall_comb = clock, datapath // 2, comb // 2
                pc = operands[PC] = next_pc
        finally:
            self.registers[:] = operands[:16]
            flags.update(n=flag_n, z=flag_z, c=flag_c, v=flag_v)
            stats.cycles, stats.halted_cycles, stats.instructions = cycles, halted_cycles, instructions
            stats.branches, stats.taken_branches = branches, taken_branches
            stats.memory_accesses = memory_accesses
            stats.halted = self.halted = halted
            self._prev_fetch_word, self._prev_result = prev_fetch, prev_result
            self._prev_operands = (prev_a, prev_b)
            self._stall_cycles = stall
            self._stall_toggles = (stall_clock, stall_data, stall_comb)
        return clock_out, data_out, comb_out
