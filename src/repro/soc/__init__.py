"""SoC substrate: embedded-processor models producing background activity.

The paper detects the watermark while an ARM Cortex-M0 runs the Dhrystone
benchmark (chip I), and additionally with a clocked-but-idle dual-core
Cortex-A5 plus caches contributing background noise (chip II).  This
package provides the equivalents we can build without the proprietary IP:

* a small Thumb-like instruction set, assembler and in-order scalar core
  (:mod:`repro.soc.cpu`) whose execution produces per-cycle switching
  activity comparable in structure to a Cortex-M0-class microcontroller;
* SRAM and an AHB-lite-style bus;
* the Dhrystone-like synthetic integer benchmark the core runs
  (:mod:`repro.soc.workloads`);
* the two idle-but-clocked background blocks, the peripherals and chip
  II's dual-core A5-class subsystem with caches (:mod:`repro.soc.multicore`);
* the two fixed chip assemblies, chip I and chip II (:mod:`repro.soc.chip`),
  that turn all of the above into the background power traces the
  measurement chain consumes.
"""

from repro.soc.isa import Opcode, Instruction, Condition, REGISTER_NAMES
from repro.soc.assembler import Assembler, AssemblyError, Program
from repro.soc.memory import Memory
from repro.soc.bus import SystemBus
from repro.soc.cpu import CortexM0Like, CPUActivityModel, ExecutionStats
from repro.soc.multicore import IdleBlock
from repro.soc.workloads import dhrystone_like_program
from repro.soc.chip import ChipModel, build_chip_one, build_chip_two

__all__ = [
    "Opcode",
    "Instruction",
    "Condition",
    "REGISTER_NAMES",
    "Assembler",
    "AssemblyError",
    "Program",
    "Memory",
    "SystemBus",
    "CortexM0Like",
    "CPUActivityModel",
    "ExecutionStats",
    "IdleBlock",
    "dhrystone_like_program",
    "ChipModel",
    "build_chip_one",
    "build_chip_two",
]
