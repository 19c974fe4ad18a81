"""Small CPU test programs besides the paper's Dhrystone-like benchmark.

The chips always run :func:`repro.soc.workloads.dhrystone_like_program`;
these programs exercise the core (and the stepping oracle in
``tests/iss_oracle.py``) with other instruction mixes, and the background
ablations run them through :func:`background_power_running`.
"""

import math

from background_oracle import idle_blocks

from repro.core.seeds import stream
from repro.power.estimator import PowerEstimator
from repro.power.synthesis import rolled_blocks
from repro.power.trace import PowerTrace
from repro.soc.assembler import Assembler, Program
from repro.soc.bus import SystemBus
from repro.soc.chip import SRAM_BYTES
from repro.soc.cpu import CortexM0Like
from repro.soc.memory import Memory


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


def memcopy_program() -> Program:
    """A memory-copy-dominated workload (higher bus activity)."""
    return Assembler().assemble(_MEMCOPY_SOURCE, entry_label="main")


def idle_loop_program() -> Program:
    """A near-idle loop (lowest background activity)."""
    return Assembler().assemble(_IDLE_SOURCE, entry_label="main")


def checksum_program() -> Program:
    """An arithmetic/memory mixed checksum workload."""
    return Assembler().assemble(_CHECKSUM_SOURCE, entry_label="main")


def background_power_running(chip, program: Program, num_cycles: int, seed: int) -> PowerTrace:
    """``chip``'s background power with its Cortex-M0 running ``program``.

    Composed as :meth:`repro.soc.chip.ChipModel.background_power` composes
    the Dhrystone background: the simulated window's power tiled at the
    ``"m0"`` stream's cyclic shifts, plus the idle blocks' mean power and
    the static leakage, with the idle blocks' fluctuations in quadrature.
    """
    memory = Memory(size_bytes=SRAM_BYTES)
    bus = SystemBus()
    bus.attach(memory)
    memory.load_words(program.data_words)
    window = min(num_cycles, chip.description.m0_window_cycles)
    estimator = PowerEstimator()
    power_w = estimator.power_per_cycle(CortexM0Like(program, bus).run_cycles(window))
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
