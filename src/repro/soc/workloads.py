"""The Dhrystone-like benchmark the Cortex-M0-class core runs.

Like the original Dhrystone, it mixes integer arithmetic, logic
decisions, string copy/compare, pointer (array) accesses and function
calls in an endless measurement loop.  The paper runs Dhrystone on the
Cortex-M0 while the watermark is detected, so this program is what
generates the data-dependent background activity of chips I and II.
"""

from __future__ import annotations

from repro.soc.assembler import Assembler, Program


_DHRYSTONE_LIKE_SOURCE = """
; Dhrystone-like synthetic integer benchmark.
; r10 holds the data base address (0x20000000), r11 the iteration counter.

main:
    mov   r10, #0x20
    lsl   r10, r10, #24        ; r10 = 0x20000000 (data base)
    mov   r11, #0              ; iteration counter
    mov   r0, #7
    str   r0, [r10, #0]        ; Int_Glob = 7
    mov   r0, #0
    str   r0, [r10, #4]        ; Bool_Glob = 0

bench_loop:
    add   r11, r11, #1

    ; ---- Proc_1 / Proc_2 style integer arithmetic ----
    mov   r0, #2
    mov   r1, #3
    bl    proc_arith
    str   r0, [r10, #8]        ; Int_1_Loc result

    ; ---- string copy: 16 bytes from src to dst ----
    mov   r0, #32
    add   r0, r10, r0          ; src = base + 32
    mov   r1, #64
    add   r1, r10, r1          ; dst = base + 64
    mov   r2, #16              ; length
    bl    str_copy

    ; ---- string compare ----
    mov   r0, #32
    add   r0, r10, r0
    mov   r1, #64
    add   r1, r10, r1
    mov   r2, #16
    bl    str_cmp
    str   r0, [r10, #12]       ; comparison result

    ; ---- array accesses (Proc_8 style) ----
    mov   r0, #96
    add   r0, r10, r0          ; array base
    mov   r1, #5               ; index
    bl    array_update

    ; ---- logic decisions (Func_3 / Proc_6 style enumeration handling) ----
    ldr   r0, [r10, #8]
    and   r1, r0, #3
    cmp   r1, #0
    beq   case_zero
    cmp   r1, #1
    beq   case_one
    cmp   r1, #2
    beq   case_two
    mov   r2, #9
    b     case_done
case_zero:
    mov   r2, #1
    b     case_done
case_one:
    mov   r2, #3
    b     case_done
case_two:
    mov   r2, #5
case_done:
    str   r2, [r10, #16]

    ; ---- global state update ----
    ldr   r0, [r10, #0]
    add   r0, r0, r2
    and   r0, r0, #0xFF
    str   r0, [r10, #0]

    b     bench_loop           ; endless measurement loop

; ---- Proc_arith(a, b): mixed ALU work, returns in r0 ----
proc_arith:
    push  {r4, r5, lr}
    add   r4, r0, r1
    mul   r5, r4, r1
    eor   r4, r5, r0
    lsl   r5, r4, #2
    lsr   r4, r5, #1
    orr   r0, r4, r1
    sub   r0, r0, #1
    pop   {r4, r5, pc}

; ---- str_copy(src, dst, len): byte copy ----
str_copy:
    push  {r4, lr}
copy_loop:
    cmp   r2, #0
    beq   copy_done
    ldrb  r4, [r0, #0]
    strb  r4, [r1, #0]
    add   r0, r0, #1
    add   r1, r1, #1
    sub   r2, r2, #1
    b     copy_loop
copy_done:
    pop   {r4, pc}

; ---- str_cmp(a, b, len): returns 0 if equal, 1 otherwise ----
str_cmp:
    push  {r4, r5, lr}
cmp_loop:
    cmp   r2, #0
    beq   cmp_equal
    ldrb  r4, [r0, #0]
    ldrb  r5, [r1, #0]
    cmp   r4, r5
    bne   cmp_diff
    add   r0, r0, #1
    add   r1, r1, #1
    sub   r2, r2, #1
    b     cmp_loop
cmp_equal:
    mov   r0, #0
    pop   {r4, r5, pc}
cmp_diff:
    mov   r0, #1
    pop   {r4, r5, pc}

; ---- array_update(base, index): read-modify-write two elements ----
array_update:
    push  {r4, r5, lr}
    lsl   r5, r1, #2
    add   r5, r0, r5           ; &array[index]
    ldr   r4, [r5, #0]
    add   r4, r4, #6
    str   r4, [r5, #0]
    ldr   r4, [r5, #4]
    eor   r4, r4, r1
    str   r4, [r5, #4]
    pop   {r4, r5, pc}
"""


def dhrystone_like_program() -> Program:
    """The Dhrystone-like benchmark used for the chip I/II background."""
    return Assembler().assemble(_DHRYSTONE_LIKE_SOURCE, entry_label="main")
