"""SoC substrate: embedded-processor models producing background activity.

The paper detects the watermark while an ARM Cortex-M0 runs the Dhrystone
benchmark (chip I), and additionally with a clocked-but-idle dual-core
Cortex-A5 plus caches contributing background noise (chip II).  This
package provides the equivalents we can build without the proprietary IP:

* the Cortex-M0-class core's per-cycle switching activity while it runs a
  Dhrystone-like benchmark from reset, shipped as a data window
  (:mod:`repro.soc.cpu`; the instruction-set simulator that produces it
  is part of the test suite);
* the two idle-but-clocked background blocks, the peripherals and chip
  II's dual-core A5-class subsystem with caches (:mod:`repro.soc.multicore`);
* the two fixed chip assemblies, chip I and chip II (:mod:`repro.soc.chip`),
  that turn all of the above into the background power traces the
  measurement chain consumes.
"""

from repro.soc.multicore import IdleBlock
from repro.soc.chip import ChipModel, build_chip_one, build_chip_two

__all__ = [
    "IdleBlock",
    "ChipModel",
    "build_chip_one",
    "build_chip_two",
]
