"""Instruction-set simulator of the Cortex-M0-class core (test apparatus).

The library does not simulate the core: both chips read its per-cycle
activity from the window shipped as package data
(:mod:`repro.soc.cpu`, ``m0_window.npz``).  This module is the simulator
that window came from, kept so the tests can regenerate it
(``cpu_programs.write_m0_window``) and run other programs:

* :class:`Memory` and :class:`SystemBus`, the SRAM and the AHB-lite-style
  bus, whose accesses return the Hamming-distance switching of their
  address and data paths;
* :class:`CPUActivityModel`, the core's register and gate counts and the
  per-cycle records built from them;
* :class:`CortexM0Like`, the in-order core that dispatches each fetched
  instruction on its opcode and assembles every cycle's activity from
  :class:`ActivityRecord` objects, one :meth:`CortexM0Like.step_cycle` at
  a time.

Timing loosely follows the Cortex-M0: single-cycle ALU operations,
two-cycle loads and stores, pipeline-refill penalty on taken branches.
The goal is not microarchitectural fidelity but a background power trace
whose cycle-to-cycle structure is driven by real instruction execution --
exactly the "noise" the CPA detector has to overcome in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from m0_assembler import Program
from m0_isa import (
    Condition,
    Instruction,
    Opcode,
    Operand,
    TAKEN_BRANCH_PENALTY,
    LR,
    PC,
    SP,
)
from rtl_oracle import hamming_distance, trace_from_records

from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE

_WORD_MASK = 0xFFFFFFFF


# -- bus and SRAM ----------------------------------------------------------------


class Memory:
    """Sparse byte-addressable SRAM with access-activity accounting.

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

    def _check(self, address: int, length: int = 1) -> None:
        if not (self.base_address <= address and address + length <= self.base_address + self.size_bytes):
            raise IndexError(
                f"address {address:#x} (+{length}) outside memory "
                f"[{self.base_address:#x}, {self.base_address + self.size_bytes:#x})"
            )

    def contains(self, address: int) -> bool:
        """Whether ``address`` falls inside this memory."""
        return self.base_address <= address < self.base_address + self.size_bytes

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


class SystemBus:
    """Single-master bus connecting the CPU to its memories.

    The switching of its shared address and data wires is one of the
    background-noise contributors the paper lists.  ``wait_states`` extra
    cycles are added to every data access (zero-wait-state SRAM by
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


# -- the core --------------------------------------------------------------------


@dataclass(frozen=True)
class CPUActivityModel:
    """Structural activity parameters of the core, and its per-cycle records.

    Register counts are representative of a Cortex-M0-class core
    (~1,000 flip-flops); they determine the clock-network share of the
    core's dynamic power, which the paper notes is typically up to half of
    total dynamic power.  The library keeps only their total
    (:data:`repro.soc.chip.M0_REGISTERS`).
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

    def idle_activity(self) -> ActivityRecord:
        """Activity of a cycle in which the core is clocked but sleeping."""
        return ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.always_clocked_registers
        )

    def cycle_activity(
        self,
        executing: bool,
        regfile_write: bool,
        datapath_toggles: int,
        comb_toggles: int,
    ) -> ActivityRecord:
        """Assemble the core-internal activity of one cycle."""
        clocked = self.always_clocked_registers
        if executing:
            clocked += self.pipeline_registers
        if regfile_write:
            clocked += self.regfile_write_width
        return ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * clocked,
            data_toggles=datapath_toggles,
            comb_toggles=comb_toggles,
        )


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


class CortexM0Like:
    """The stepping core: one :meth:`step_cycle` per clock cycle."""

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
        # The fetch datapath sees each instruction's 16-bit word; encode the
        # program once rather than on every executed instruction.
        self._fetch_words = [instruction.encode() for instruction in program.instructions]
        self.bus = bus
        self.activity = activity_model or CPUActivityModel()
        self.registers: List[int] = [0] * 16
        self.registers[SP] = stack_pointer
        self.registers[PC] = program.entry_point
        self.flags = {"n": False, "z": False, "c": False, "v": False}
        self.stats = ExecutionStats()
        self.halted = False
        # Datapath history for Hamming-distance switching estimates.
        self._prev_fetch_word = 0
        self._prev_result = 0
        self._prev_operands = (0, 0)
        # Multi-cycle instruction bookkeeping.
        self._stall_cycles = 0
        self._pending_activity: Optional[ActivityRecord] = None

    # -- architectural helpers -----------------------------------------------

    def register(self, index: int) -> int:
        """Read an architectural register."""
        return self.registers[index] & _WORD_MASK

    def _write_register(self, index: int, value: int) -> None:
        self.registers[index] = value & _WORD_MASK

    def _operand_value(self, operand: Operand) -> int:
        if operand.kind == "reg":
            return self.register(operand.value)
        if operand.kind == "imm":
            return operand.value & _WORD_MASK
        raise CPUError(f"cannot read value of operand kind {operand.kind!r}")

    def _set_nz(self, value: int) -> None:
        value &= _WORD_MASK
        self.flags["n"] = bool(value & 0x8000_0000)
        self.flags["z"] = value == 0

    @staticmethod
    def _to_signed(value: int) -> int:
        value &= _WORD_MASK
        return value - (1 << 32) if value & 0x8000_0000 else value

    def _set_add_flags(self, a: int, b: int, result: int) -> None:
        self._set_nz(result)
        self.flags["c"] = result > _WORD_MASK
        signed_a = self._to_signed(a)
        signed_b = self._to_signed(b)
        signed_r = self._to_signed(result)
        self.flags["v"] = bool((signed_a >= 0) == (signed_b >= 0) and (signed_r >= 0) != (signed_a >= 0))

    def _set_sub_flags(self, a: int, b: int, result: int) -> None:
        self._set_nz(result)
        self.flags["c"] = (a & _WORD_MASK) >= (b & _WORD_MASK)
        signed_a = self._to_signed(a)
        signed_b = self._to_signed(b)
        signed_r = self._to_signed(result)
        self.flags["v"] = bool((signed_a >= 0) != (signed_b >= 0) and (signed_r >= 0) != (signed_a >= 0))

    def _condition_met(self, condition: Condition) -> bool:
        n, z, c, v = self.flags["n"], self.flags["z"], self.flags["c"], self.flags["v"]
        table = {
            Condition.AL: True,
            Condition.EQ: z,
            Condition.NE: not z,
            Condition.CS: c,
            Condition.CC: not c,
            Condition.MI: n,
            Condition.PL: not n,
            Condition.LT: n != v,
            Condition.LE: z or (n != v),
            Condition.GT: (not z) and (n == v),
            Condition.GE: n == v,
        }
        return table[condition]

    # -- execution -----------------------------------------------------------

    def step_cycle(self) -> ActivityRecord:
        """Advance the core by exactly one clock cycle."""
        if self.halted:
            self.stats.halted_cycles += 1
            return self.activity.idle_activity()
        self.stats.cycles += 1
        if self._stall_cycles > 0:
            self._stall_cycles -= 1
            activity = self._pending_activity or self.activity.idle_activity()
            # Stall cycles re-use the clock network but not the full datapath.
            return ActivityRecord(
                clock_toggles=activity.clock_toggles,
                data_toggles=activity.data_toggles // 2,
                comb_toggles=activity.comb_toggles // 2,
            )
        return self._execute_next_instruction()

    def _execute_next_instruction(self) -> ActivityRecord:
        pc = self.registers[PC]
        if not 0 <= pc < len(self.program.instructions):
            raise CPUError(f"program counter {pc} outside program of {len(self.program)} instructions")
        instruction = self.program.instructions[pc]
        self.stats.instructions += 1

        fetch_word = self._fetch_words[pc]
        fetch_toggles = hamming_distance(self._prev_fetch_word, fetch_word, 16)
        self._prev_fetch_word = fetch_word

        result, next_pc, bus_activity, extra_cycles, regfile_write, operand_toggles = self._execute(
            instruction, pc
        )

        result_toggles = hamming_distance(self._prev_result, result, 32)
        self._prev_result = result
        datapath_toggles = fetch_toggles + result_toggles + operand_toggles
        comb_toggles = int(
            round(
                (self.activity.decode_gates + self.activity.alu_gates)
                * self.activity.comb_activity_factor
            )
        ) + datapath_toggles // 2

        core_activity = self.activity.cycle_activity(
            executing=True,
            regfile_write=regfile_write,
            datapath_toggles=datapath_toggles,
            comb_toggles=comb_toggles,
        )
        total_activity = core_activity + bus_activity

        total_cycles = instruction.base_cycles() + extra_cycles
        self._stall_cycles = max(0, total_cycles - 1)
        self._pending_activity = core_activity
        self.registers[PC] = next_pc
        return total_activity

    def _execute(
        self, instruction: Instruction, pc: int
    ) -> Tuple[int, int, ActivityRecord, int, bool, int]:
        """Execute one instruction.

        Returns ``(result, next_pc, bus_activity, extra_cycles,
        regfile_write, operand_toggles)``.
        """
        opcode = instruction.opcode
        operands = instruction.operands
        bus_activity = ActivityRecord()
        extra_cycles = 0
        regfile_write = False
        result = 0
        next_pc = pc + 1

        operand_values = [
            self._operand_value(op) for op in operands if op.kind in ("reg", "imm")
        ]
        operand_toggles = 0
        if operand_values:
            a = operand_values[0]
            b = operand_values[1] if len(operand_values) > 1 else 0
            operand_toggles = hamming_distance(self._prev_operands[0], a, 32) + hamming_distance(
                self._prev_operands[1], b, 32
            )
            self._prev_operands = (a, b)

        if opcode is Opcode.NOP:
            pass
        elif opcode is Opcode.HALT:
            self.halted = True
            self.stats.halted = True
            next_pc = pc
        elif opcode in (Opcode.MOV, Opcode.MVN):
            value = self._operand_value(operands[1])
            result = (~value & _WORD_MASK) if opcode is Opcode.MVN else value
            self._write_register(operands[0].value, result)
            self._set_nz(result)
            regfile_write = True
        elif opcode in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.ORR, Opcode.EOR,
                        Opcode.LSL, Opcode.LSR, Opcode.ASR):
            result, regfile_write = self._execute_alu(opcode, operands)
        elif opcode is Opcode.CMP:
            a = self._operand_value(operands[0])
            b = self._operand_value(operands[1])
            result = (a - b) & _WORD_MASK
            self._set_sub_flags(a, b, a - b)
        elif opcode in (Opcode.LDR, Opcode.LDRB, Opcode.STR, Opcode.STRB):
            result, bus_activity, extra_cycles, regfile_write = self._execute_memory(opcode, operands)
            self.stats.memory_accesses += 1
        elif opcode is Opcode.PUSH:
            bus_activity, extra_cycles = self._execute_push(operands[0])
            self.stats.memory_accesses += len(operands[0].value)
        elif opcode is Opcode.POP:
            result, next_pc_override, bus_activity, extra_cycles = self._execute_pop(operands[0], next_pc)
            next_pc = next_pc_override
            regfile_write = True
            self.stats.memory_accesses += len(operands[0].value)
        elif opcode is Opcode.B:
            self.stats.branches += 1
            if self._condition_met(instruction.condition):
                self.stats.taken_branches += 1
                next_pc = self.program.label_address(operands[0].value)
                extra_cycles = TAKEN_BRANCH_PENALTY
        elif opcode is Opcode.BL:
            self.stats.branches += 1
            self.stats.taken_branches += 1
            self._write_register(LR, pc + 1)
            next_pc = self.program.label_address(operands[0].value)
            regfile_write = True
        elif opcode is Opcode.BX:
            self.stats.branches += 1
            self.stats.taken_branches += 1
            next_pc = self.register(operands[0].value)
        else:  # pragma: no cover - all opcodes handled above
            raise CPUError(f"unhandled opcode {opcode}")
        return result, next_pc, bus_activity, extra_cycles, regfile_write, operand_toggles

    def _execute_alu(self, opcode: Opcode, operands: Tuple[Operand, ...]) -> Tuple[int, bool]:
        destination = operands[0].value
        if len(operands) == 3:
            a = self._operand_value(operands[1])
            b = self._operand_value(operands[2])
        else:
            a = self.register(destination)
            b = self._operand_value(operands[1])
        if opcode is Opcode.ADD:
            raw = a + b
            result = raw & _WORD_MASK
            self._set_add_flags(a, b, raw)
        elif opcode is Opcode.SUB:
            raw = a - b
            result = raw & _WORD_MASK
            self._set_sub_flags(a, b, raw)
        elif opcode is Opcode.MUL:
            result = (a * b) & _WORD_MASK
            self._set_nz(result)
        elif opcode is Opcode.AND:
            result = a & b
            self._set_nz(result)
        elif opcode is Opcode.ORR:
            result = a | b
            self._set_nz(result)
        elif opcode is Opcode.EOR:
            result = a ^ b
            self._set_nz(result)
        elif opcode is Opcode.LSL:
            shift = b & 0x1F
            result = (a << shift) & _WORD_MASK
            self._set_nz(result)
        elif opcode is Opcode.LSR:
            shift = b & 0x1F
            result = (a & _WORD_MASK) >> shift
            self._set_nz(result)
        else:  # ASR
            shift = b & 0x1F
            result = (self._to_signed(a) >> shift) & _WORD_MASK
            self._set_nz(result)
        self._write_register(destination, result)
        return result, True

    def _execute_memory(
        self, opcode: Opcode, operands: Tuple[Operand, ...]
    ) -> Tuple[int, ActivityRecord, int, bool]:
        register_index = operands[0].value
        base, offset = operands[1].value
        address = (self.register(base) + offset) & _WORD_MASK
        width = 1 if opcode in (Opcode.LDRB, Opcode.STRB) else 4
        if opcode in (Opcode.LDR, Opcode.LDRB):
            value, data, comb, wait = self.bus.access(address, write=False, width=width)
            self._write_register(register_index, value)
            return value, ActivityRecord(data_toggles=data, comb_toggles=comb), wait, True
        value = self.register(register_index)
        if width == 1:
            value &= 0xFF
        _, data, comb, wait = self.bus.access(address, write=True, value=value, width=width)
        return value, ActivityRecord(data_toggles=data, comb_toggles=comb), wait, False

    def _execute_push(self, reglist: Operand) -> Tuple[ActivityRecord, int]:
        activity = ActivityRecord()
        wait_total = 0
        for register_index in reversed(reglist.value):
            self._write_register(SP, self.register(SP) - 4)
            _, data, comb, wait = self.bus.access(
                self.register(SP), write=True, value=self.register(register_index), width=4
            )
            activity = activity + ActivityRecord(data_toggles=data, comb_toggles=comb)
            wait_total += wait
        return activity, wait_total

    def _execute_pop(self, reglist: Operand, next_pc: int) -> Tuple[int, int, ActivityRecord, int]:
        activity = ActivityRecord()
        wait_total = 0
        result = 0
        for register_index in reglist.value:
            value, data, comb, wait = self.bus.access(self.register(SP), write=False, width=4)
            self._write_register(SP, self.register(SP) + 4)
            activity = activity + ActivityRecord(data_toggles=data, comb_toggles=comb)
            wait_total += wait
            result = value
            if register_index == PC:
                next_pc = value
            else:
                self._write_register(register_index, value)
        return result, next_pc, activity, wait_total

    # -- trace generation ----------------------------------------------------

    def run_cycles(self, num_cycles: int) -> ActivityTrace:
        """Run for ``num_cycles`` clock cycles and return the activity trace."""
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        records = [self.step_cycle() for _ in range(num_cycles)]
        return trace_from_records(self.name, records)
