"""Programs for the test-suite ISS, and the M0 window they produce.

Both chips run :func:`dhrystone_like_program`: like the original
Dhrystone, it mixes integer arithmetic, logic decisions, string
copy/compare, pointer (array) accesses and function calls in an endless
measurement loop.  Its first :data:`repro.soc.cpu.M0_WINDOW_CYCLES` cycles
on the ISS (``iss_oracle``) are the window the library ships as data;
:func:`dhrystone_window` regenerates it and :func:`write_m0_window` writes
it.  The other programs exercise the core with other instruction mixes,
and the background ablations run them through
:func:`background_power_running`.
"""

import math

import numpy as np
from background_oracle import idle_blocks
from iss_oracle import CortexM0Like, Memory, SystemBus
from m0_assembler import Assembler, Program

from repro.core.seeds import stream
from repro.power.estimator import PowerEstimator
from repro.power.synthesis import rolled_blocks
from repro.power.trace import PowerTrace
from repro.rtl.activity import ActivityTrace
from repro.soc.chip import SRAM_BYTES
from repro.soc.cpu import M0_WINDOW_CYCLES


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


_MEMCOPY_SOURCE = """
; Word-wise memory copy loop: high load/store density.
main:
    mov   r10, #0x20
    lsl   r10, r10, #24
copy_restart:
    mov   r0, #0
    add   r0, r10, r0          ; src
    mov   r1, #128
    add   r1, r10, r1          ; dst
    mov   r2, #32              ; words
copy_loop:
    cmp   r2, #0
    beq   copy_restart
    ldr   r3, [r0, #0]
    str   r3, [r1, #0]
    add   r0, r0, #4
    add   r1, r1, #4
    sub   r2, r2, #1
    b     copy_loop
"""


_IDLE_SOURCE = """
; Tight idle loop: minimal datapath activity, clock tree still running.
main:
    mov   r0, #0
idle_loop:
    add   r0, r0, #1
    and   r0, r0, #0xFF
    b     idle_loop
"""


_CHECKSUM_SOURCE = """
; Rolling checksum over a memory block: arithmetic + memory mix.
main:
    mov   r10, #0x20
    lsl   r10, r10, #24
checksum_restart:
    mov   r0, #0               ; checksum
    mov   r1, #0               ; offset
    mov   r2, #64              ; words to sum
checksum_loop:
    cmp   r2, #0
    beq   checksum_store
    add   r3, r10, r1
    ldr   r4, [r3, #0]
    add   r0, r0, r4
    eor   r0, r0, r2
    lsl   r5, r0, #1
    orr   r0, r5, r0
    add   r1, r1, #4
    sub   r2, r2, #1
    b     checksum_loop
checksum_store:
    str   r0, [r10, #252]
    b     checksum_restart
"""


def dhrystone_like_program() -> Program:
    """The Dhrystone-like benchmark used for the chip I/II background."""
    return Assembler().assemble(_DHRYSTONE_LIKE_SOURCE, entry_label="main")


def memcopy_program() -> Program:
    """A memory-copy-dominated workload (higher bus activity)."""
    return Assembler().assemble(_MEMCOPY_SOURCE, entry_label="main")


def idle_loop_program() -> Program:
    """A near-idle loop (lowest background activity)."""
    return Assembler().assemble(_IDLE_SOURCE, entry_label="main")


def checksum_program() -> Program:
    """An arithmetic/memory mixed checksum workload."""
    return Assembler().assemble(_CHECKSUM_SOURCE, entry_label="main")


def run_from_reset(program: Program, num_cycles: int) -> ActivityTrace:
    """``program``'s activity over ``num_cycles`` cycles on a fresh core, bus and SRAM."""
    memory = Memory(size_bytes=SRAM_BYTES)
    bus = SystemBus()
    bus.attach(memory)
    memory.load_words(program.data_words)
    return CortexM0Like(program, bus).run_cycles(num_cycles)


def dhrystone_window(num_cycles: int = M0_WINDOW_CYCLES) -> ActivityTrace:
    """The M0 window regenerated: Dhrystone's first ``num_cycles`` cycles."""
    return run_from_reset(dhrystone_like_program(), num_cycles)


def write_m0_window(path) -> None:
    """Write the regenerated window to ``path`` in the shipped format.

    The toggle counts fit unsigned 16-bit (clock) and 8-bit (data, comb)
    integers; the library widens them to int64 when it loads them.  To
    refresh the shipped file, run from the repository root::

        PYTHONPATH=src:tests python -c "from cpu_programs import write_m0_window; write_m0_window('src/repro/soc/m0_window.npz')"
    """
    window = dhrystone_window()
    np.savez_compressed(
        path,
        clock_toggles=window.clock_toggles.astype(np.uint16),
        data_toggles=window.data_toggles.astype(np.uint8),
        comb_toggles=window.comb_toggles.astype(np.uint8),
    )


def background_power_running(chip, program: Program, num_cycles: int, seed: int) -> PowerTrace:
    """``chip``'s background power with its Cortex-M0 running ``program``.

    Composed as :meth:`repro.soc.chip.ChipModel.background_power` composes
    the Dhrystone background: the program's window power tiled at the
    ``"m0"`` stream's cyclic shifts, plus the idle blocks' mean power and
    the static leakage, with the idle blocks' fluctuations in quadrature.
    """
    window = min(num_cycles, M0_WINDOW_CYCLES)
    estimator = PowerEstimator()
    power_w = estimator.power_per_cycle(run_from_reset(program, window))
    if window < num_cycles:
        shifts = stream(seed, "m0").integers(0, window, size=-(-num_cycles // window))
        power_w = rolled_blocks(power_w, shifts, num_cycles)
    blocks = idle_blocks(chip).values()
    power_w += sum(block.mean_power_w for block in blocks) + estimator.leakage_of(
        chip.system_cell_inventory()
    )
    return PowerTrace(
        name=f"{chip.name}/background",
        power_w=power_w,
        fluctuation_w=math.hypot(*(block.fluctuation_w for block in blocks)),
    )
