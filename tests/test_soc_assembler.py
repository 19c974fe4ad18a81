"""Unit tests for the test-suite ISS's assembler (``m0_assembler``)."""

import pytest

from m0_assembler import Assembler, AssemblyError
from m0_isa import Condition, Opcode


@pytest.fixture
def assembler() -> Assembler:
    return Assembler()


class TestBasicAssembly:
    def test_simple_program(self, assembler):
        program = assembler.assemble(
            """
            main:
                mov r0, #1
                add r1, r0, #2
                halt
            """,
            entry_label="main",
        )
        assert len(program) == 3
        assert program.entry_point == 0
        assert program.instructions[0].opcode is Opcode.MOV

    def test_comments_and_blank_lines_ignored(self, assembler):
        program = assembler.assemble("; comment only\n\nmov r0, #1  ; trailing\n// c++ style\n")
        assert len(program) == 1

    def test_labels_resolve_to_instruction_indices(self, assembler):
        program = assembler.assemble(
            """
            start:
                mov r0, #0
            loop:
                add r0, r0, #1
                b loop
            """
        )
        assert program.label_address("start") == 0
        assert program.label_address("loop") == 1

    def test_unknown_label_lookup_raises(self, assembler):
        program = assembler.assemble("nop")
        with pytest.raises(KeyError):
            program.label_address("nowhere")

    def test_flag_setting_suffix_stripped(self, assembler):
        program = assembler.assemble("movs r0, #1\nadds r0, r0, #1\nsubs r0, r0, #1")
        assert [i.opcode for i in program.instructions] == [Opcode.MOV, Opcode.ADD, Opcode.SUB]

    def test_conditional_branches(self, assembler):
        program = assembler.assemble(
            """
            loop:
                cmp r0, #0
                beq loop
                bne loop
                bge loop
                blt loop
            """
        )
        conditions = [i.condition for i in program.instructions[1:]]
        assert conditions == [Condition.EQ, Condition.NE, Condition.GE, Condition.LT]

    def test_memory_operands(self, assembler):
        program = assembler.assemble("ldr r1, [r2, #8]\nstr r1, [r2]\nldrb r3, [r4, #1]")
        load = program.instructions[0]
        assert load.opcode is Opcode.LDR
        assert load.operands[1].value == (2, 8)
        assert program.instructions[1].operands[1].value == (2, 0)
        assert program.instructions[2].opcode is Opcode.LDRB

    def test_push_pop_register_lists(self, assembler):
        program = assembler.assemble("push {r4, r5, lr}\npop {r4, r5, pc}")
        assert program.instructions[0].operands[0].value == (4, 5, 14)
        assert program.instructions[1].operands[0].value == (4, 5, 15)

    def test_hex_immediates(self, assembler):
        program = assembler.assemble("mov r0, #0xFF")
        assert program.instructions[0].operands[1].value == 0xFF

    def test_data_words(self, assembler):
        program = assembler.assemble(".word 1, 2, 0x10")
        assert list(program.data_words.values()) == [1, 2, 0x10]


class TestAssemblyErrors:
    def test_unknown_mnemonic(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble("frobnicate r0, r1")

    def test_duplicate_label(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble("a:\n nop\na:\n nop")

    def test_bad_immediate(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble("mov r0, #banana")

    def test_bad_register_in_memory_operand(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble("ldr r0, [q9]")

    def test_empty_register_list(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble("push {}")

    def test_push_without_braces(self, assembler):
        with pytest.raises(AssemblyError):
            assembler.assemble("push r4")

    def test_error_reports_line_number(self, assembler):
        with pytest.raises(AssemblyError) as excinfo:
            assembler.assemble("nop\nbogus r1")
        assert excinfo.value.line_number == 2
