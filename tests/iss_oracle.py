"""Instruction-stepping model of the Cortex-M0-class core (test oracle).

The library core (:class:`repro.soc.cpu.CortexM0Like`) decodes every
instruction once, when it is built, and runs its cycle loop on plain ints.
This module keeps the core that decoding replaced: it re-dispatches each
fetched instruction on its opcode, evaluates branch conditions through a
table of flags, and assembles every cycle's activity from
:class:`ActivityRecord` objects, one :meth:`CortexM0Like.step_cycle` at a
time.  The tests run both cores on the same programs and compare them
exactly (``tests/test_iss_equivalence.py``):

* :class:`CPUActivityModel` adds the per-cycle record builders the
  stepping core calls to the library's structural parameters;
* :class:`Memory` and :class:`SystemBus` return each access's activity as
  records (:class:`MemoryAccessActivity`, :class:`ActivityRecord`) rather
  than as the library's plain ints;
* :class:`CortexM0Like` is the stepping core itself.

Each twin subclasses the library class it mirrors, so it takes the same
constructor arguments and shares the library's address decoding and byte
storage; only the access and execution paths are kept here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

from rtl_oracle import trace_from_records

from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE
from repro.rtl.signals import hamming_distance
from repro.soc import bus, cpu, memory
from repro.soc.assembler import Program
from repro.soc.cpu import CPUError, ExecutionStats
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


# -- bus and SRAM ----------------------------------------------------------------


@dataclass
class MemoryAccessActivity:
    """Switching activity caused by one memory access."""

    address_toggles: int = 0
    data_toggles: int = 0
    array_toggles: int = 0


class Memory(memory.Memory):
    """SRAM whose accesses report their activity as a record."""

    def access(self, address: int, write: bool, value: Optional[int] = None, width: int = 4) -> tuple:
        """Perform an access and return ``(read_value, activity)``.

        ``width`` is 1 (byte) or 4 (word).
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
            result = None
        else:
            data = self.read_word(address) if width == 4 else self.read_byte(address)
            result = data
        activity = MemoryAccessActivity(
            address_toggles=hamming_distance(self._last_address, address, 32),
            data_toggles=hamming_distance(self._last_data, data or 0, 32),
            array_toggles=self.word_access_toggles if width == 4 else self.word_access_toggles // 4,
        )
        self._last_address = address
        self._last_data = data or 0
        return result, activity


class SystemBus(bus.SystemBus):
    """Bus whose accesses report their activity as a record."""

    def access(
        self, address: int, write: bool, value: Optional[int] = None, width: int = 4
    ) -> Tuple[Optional[int], ActivityRecord, int]:
        """Perform a data access.

        Returns ``(read_value, activity, extra_cycles)`` where
        ``extra_cycles`` is the number of wait states the CPU must stall.
        """
        slave = self._slave_for(address)
        result, memory_activity = slave.access(address, write=write, value=value, width=width)
        bus_toggles = hamming_distance(self._last_address, address, 32) + hamming_distance(
            self._last_data, (value if write else (result or 0)) or 0, 32
        )
        self._last_address = address
        self._last_data = (value if write else (result or 0)) or 0
        activity = ActivityRecord(
            data_toggles=memory_activity.data_toggles + memory_activity.array_toggles,
            comb_toggles=bus_toggles + memory_activity.address_toggles,
        )
        return result, activity, self.wait_states


# -- the core --------------------------------------------------------------------


@dataclass(frozen=True)
class CPUActivityModel(cpu.CPUActivityModel):
    """The library's structural parameters plus per-cycle record builders."""

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
        self.activity = CPUActivityModel(**asdict(activity_model or cpu.CPUActivityModel()))
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
            value, activity, wait = self.bus.access(address, write=False, width=width)
            self._write_register(register_index, value or 0)
            return value or 0, activity, wait, True
        value = self.register(register_index)
        if width == 1:
            value &= 0xFF
        _, activity, wait = self.bus.access(address, write=True, value=value, width=width)
        return value, activity, wait, False

    def _execute_push(self, reglist: Operand) -> Tuple[ActivityRecord, int]:
        activity = ActivityRecord()
        wait_total = 0
        for register_index in reversed(reglist.value):
            self._write_register(SP, self.register(SP) - 4)
            _, access_activity, wait = self.bus.access(
                self.register(SP), write=True, value=self.register(register_index), width=4
            )
            activity = activity + access_activity
            wait_total += wait
        return activity, wait_total

    def _execute_pop(self, reglist: Operand, next_pc: int) -> Tuple[int, int, ActivityRecord, int]:
        activity = ActivityRecord()
        wait_total = 0
        result = 0
        for register_index in reglist.value:
            value, access_activity, wait = self.bus.access(self.register(SP), write=False, width=4)
            self._write_register(SP, self.register(SP) + 4)
            activity = activity + access_activity
            wait_total += wait
            value = value or 0
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
