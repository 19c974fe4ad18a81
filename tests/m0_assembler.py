"""Two-pass assembler for the Thumb-like ISA of ``m0_isa``.

Supported syntax (one statement per line)::

    ; comment
    label:
        mov   r0, #42
        add   r1, r0, r2
        sub   r1, r1, #1
        cmp   r1, #0
        bne   label
        ldr   r3, [r2, #4]
        str   r3, [r2, #8]
        push  {r4, r5, lr}
        pop   {r4, r5, pc}
        bl    function
        bx    lr
        halt

    .word  data_label, 1, 2, 3      ; literal data in the data section
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from m0_isa import (
    Condition,
    Instruction,
    Opcode,
    Operand,
    parse_register,
)


class AssemblyError(Exception):
    """Raised when a source line cannot be assembled."""

    def __init__(self, message: str, line_number: int = 0, line: str = "") -> None:
        location = f" (line {line_number}: {line.strip()!r})" if line_number else ""
        super().__init__(f"{message}{location}")
        self.line_number = line_number


@dataclass
class Program:
    """An assembled program: instructions plus initial data memory."""

    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    data_words: Dict[int, int] = field(default_factory=dict)
    entry_point: int = 0

    def __len__(self) -> int:
        return len(self.instructions)

    def label_address(self, name: str) -> int:
        """Instruction index of a label."""
        if name not in self.labels:
            raise KeyError(f"undefined label {name!r}")
        return self.labels[name]


#: Branch mnemonics with condition suffixes, e.g. ``bne`` -> (B, NE).
_BRANCH_RE = re.compile(r"^b(?P<cond>eq|ne|lt|le|gt|ge|cs|cc|mi|pl)?$")


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, data_base_address: int = 0x2000_0000) -> None:
        self.data_base_address = data_base_address

    def assemble(self, source: str, entry_label: Optional[str] = None) -> Program:
        """Assemble ``source`` text into a program."""
        statements = self._tokenize(source)
        program = Program()
        self._first_pass(statements, program)
        self._second_pass(statements, program)
        if entry_label is not None:
            program.entry_point = program.label_address(entry_label)
        return program

    # -- pass 0: tokenisation --------------------------------------------

    def _tokenize(self, source: str) -> List[Tuple[int, str]]:
        statements: List[Tuple[int, str]] = []
        for line_number, raw in enumerate(source.splitlines(), start=1):
            line = raw.split(";")[0].split("//")[0].strip()
            if not line:
                continue
            statements.append((line_number, line))
        return statements

    # -- pass 1: label collection -------------------------------------------

    def _first_pass(self, statements: List[Tuple[int, str]], program: Program) -> None:
        instruction_index = 0
        data_offset = 0
        for line_number, line in statements:
            while ":" in line:
                label, _, rest = line.partition(":")
                label = label.strip()
                if not label.isidentifier():
                    raise AssemblyError(f"invalid label {label!r}", line_number, line)
                if line.lstrip().startswith(".word"):
                    break
                if label in program.labels:
                    raise AssemblyError(f"duplicate label {label!r}", line_number, line)
                program.labels[label] = instruction_index
                line = rest.strip()
            if not line:
                continue
            if line.startswith(".word"):
                values = line[len(".word"):].split(",")
                data_offset += 4 * len([v for v in values if v.strip()])
                continue
            if line.startswith(".data"):
                continue
            instruction_index += 1

    # -- pass 2: encoding --------------------------------------------------

    def _second_pass(self, statements: List[Tuple[int, str]], program: Program) -> None:
        data_offset = 0
        for line_number, line in statements:
            while ":" in line and not line.lstrip().startswith(".word"):
                _, _, line = line.partition(":")
                line = line.strip()
            if not line:
                continue
            if line.startswith(".data"):
                continue
            if line.startswith(".word"):
                for value_text in line[len(".word"):].split(","):
                    value_text = value_text.strip()
                    if not value_text:
                        continue
                    value = self._parse_immediate(value_text, line_number, line)
                    program.data_words[self.data_base_address + data_offset] = value & 0xFFFFFFFF
                    data_offset += 4
                continue
            program.instructions.append(self._parse_instruction(line, line_number))

    def _parse_instruction(self, line: str, line_number: int) -> Instruction:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        condition = Condition.AL

        branch_match = _BRANCH_RE.match(mnemonic)
        if mnemonic in ("bl", "bx"):
            opcode = Opcode.BL if mnemonic == "bl" else Opcode.BX
        elif branch_match:
            opcode = Opcode.B
            cond = branch_match.group("cond")
            if cond:
                condition = Condition(cond)
        else:
            # Strip the Thumb "s" (flag-setting) suffix: movs, adds, subs...
            base = mnemonic[:-1] if mnemonic.endswith("s") and mnemonic not in ("bcs",) else mnemonic
            try:
                opcode = Opcode(base)
            except ValueError:
                try:
                    opcode = Opcode(mnemonic)
                except ValueError:
                    raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_number, line)

        operands = self._parse_operands(opcode, operand_text, line_number, line)
        return Instruction(
            opcode=opcode, operands=operands, condition=condition, source_line=line_number
        )

    def _parse_operands(
        self, opcode: Opcode, text: str, line_number: int, line: str
    ) -> Tuple[Operand, ...]:
        text = text.strip()
        if not text:
            return ()
        if opcode in (Opcode.PUSH, Opcode.POP):
            if not (text.startswith("{") and text.endswith("}")):
                raise AssemblyError("push/pop operands must be a {reglist}", line_number, line)
            registers = [
                parse_register(token) for token in text[1:-1].split(",") if token.strip()
            ]
            if not registers:
                raise AssemblyError("empty register list", line_number, line)
            return (Operand.reglist(registers),)
        if opcode in (Opcode.B, Opcode.BL):
            return (Operand.label(text.strip()),)
        if opcode is Opcode.BX:
            return (Operand.reg(parse_register(text)),)

        operands: List[Operand] = []
        for token in self._split_operands(text):
            token = token.strip()
            if token.startswith("#"):
                operands.append(Operand.imm(self._parse_immediate(token[1:], line_number, line)))
            elif token.startswith("["):
                operands.append(self._parse_memory_operand(token, line_number, line))
            else:
                try:
                    operands.append(Operand.reg(parse_register(token)))
                except ValueError:
                    operands.append(Operand.imm(self._parse_immediate(token, line_number, line)))
        return tuple(operands)

    @staticmethod
    def _split_operands(text: str) -> List[str]:
        tokens: List[str] = []
        depth = 0
        current = ""
        for char in text:
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            if char == "," and depth == 0:
                tokens.append(current)
                current = ""
            else:
                current += char
        if current.strip():
            tokens.append(current)
        return tokens

    def _parse_memory_operand(self, token: str, line_number: int, line: str) -> Operand:
        if not token.endswith("]"):
            raise AssemblyError(f"malformed memory operand {token!r}", line_number, line)
        inner = token[1:-1]
        parts = [p.strip() for p in inner.split(",")]
        try:
            base = parse_register(parts[0])
        except ValueError as exc:
            raise AssemblyError(str(exc), line_number, line) from exc
        offset = 0
        if len(parts) > 1 and parts[1]:
            offset_text = parts[1].lstrip("#")
            offset = self._parse_immediate(offset_text, line_number, line)
        return Operand.mem(base, offset)

    @staticmethod
    def _parse_immediate(text: str, line_number: int, line: str) -> int:
        text = text.strip()
        try:
            if text.lower().startswith("0x"):
                return int(text, 16)
            if text.lower().startswith("-0x"):
                return -int(text[1:], 16)
            return int(text)
        except ValueError as exc:
            raise AssemblyError(f"invalid immediate {text!r}", line_number, line) from exc
