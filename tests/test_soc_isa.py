"""Unit tests for the test-suite ISS's instruction set (``m0_isa``)."""

import pytest

from m0_isa import (
    BASE_CYCLES,
    Condition,
    Instruction,
    Opcode,
    Operand,
    parse_register,
)


class TestOperand:
    def test_register_operand(self):
        assert Operand.reg(3).value == 3
        with pytest.raises(ValueError):
            Operand.reg(16)

    def test_immediate_operand(self):
        assert Operand.imm(42).value == 42

    def test_memory_operand(self):
        operand = Operand.mem(2, 8)
        assert operand.value == (2, 8)

    def test_reglist_sorted(self):
        assert Operand.reglist([5, 4, 14]).value == (4, 5, 14)


class TestInstruction:
    def test_base_cycles_alu(self):
        assert Instruction(Opcode.ADD).base_cycles() == 1

    def test_base_cycles_load(self):
        assert Instruction(Opcode.LDR).base_cycles() == 2

    def test_push_cycles_scale_with_reglist(self):
        push = Instruction(Opcode.PUSH, (Operand.reglist([4, 5, 14]),))
        assert push.base_cycles() == BASE_CYCLES[Opcode.PUSH] + 3

    def test_encoding_is_16_bit(self):
        for opcode in Opcode:
            word = Instruction(opcode).encode()
            assert 0 <= word <= 0xFFFF

    def test_encoding_distinguishes_operands(self):
        a = Instruction(Opcode.MOV, (Operand.reg(0), Operand.imm(1)))
        b = Instruction(Opcode.MOV, (Operand.reg(0), Operand.imm(255)))
        assert a.encode() != b.encode()

    def test_string_rendering(self):
        instruction = Instruction(Opcode.B, (Operand.label("loop"),), condition=Condition.NE)
        assert "ne" in str(instruction)


class TestParseRegister:
    @pytest.mark.parametrize("token, expected", [("r0", 0), ("R7", 7), ("sp", 13), ("lr", 14), ("pc", 15)])
    def test_valid_names(self, token, expected):
        assert parse_register(token) == expected

    @pytest.mark.parametrize("token", ["r16", "x0", "", "r-1"])
    def test_invalid_names(self, token):
        with pytest.raises(ValueError):
            parse_register(token)
