"""Fig. 2: functional simulation of the two watermark architectures.

The paper's Fig. 2 shows the WMARK sequence together with the switching
activity of (a) the state-of-the-art load-circuit watermark and (b) the
proposed clock-modulation watermark.  The key observation is that while
WMARK is high the clock-modulation scheme switches *more* nodes per cycle
per register than the load circuit (clock buffers toggle on both edges),
and while WMARK is low both schemes are idle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.architectures import BaselineWatermark, ClockModulationWatermark
from repro.core.wgc import WatermarkGenerationCircuit
from repro.core.load_circuit import LoadCircuit
from repro.core.clock_modulation import ClockModulatedIPBlock


@dataclass
class Fig2Result:
    """Per-cycle waveforms of the functional simulation."""

    num_cycles: int
    wmark: np.ndarray
    baseline_toggles: np.ndarray
    clock_modulation_toggles: np.ndarray
    registers_compared: int

    @property
    def baseline_toggles_per_active_register(self) -> float:
        """Average toggles per register per WMARK-high cycle (baseline)."""
        return self._per_register(self.baseline_toggles)

    @property
    def clock_modulation_toggles_per_active_register(self) -> float:
        """Average toggles per register per WMARK-high cycle (proposed)."""
        return self._per_register(self.clock_modulation_toggles)

    def _per_register(self, toggles: np.ndarray) -> float:
        active = toggles[self.wmark.astype(bool)]
        if len(active) == 0:
            return 0.0
        return float(np.mean(active)) / self.registers_compared

    @property
    def idle_when_wmark_low(self) -> bool:
        """Both architectures must be idle while WMARK is 0."""
        low = ~self.wmark.astype(bool)
        return bool(
            np.all(self.baseline_toggles[low] == 0)
            and np.all(self.clock_modulation_toggles[low] == 0)
        )

    def to_text(self) -> str:
        """Render the waveforms as a small text chart."""
        lines = [
            "Fig. 2 reproduction: functional simulation (first 48 cycles shown)",
            "cycle:      " + "".join(str(i % 10) for i in range(min(48, self.num_cycles))),
            "WMARK:      " + "".join("1" if b else "0" for b in self.wmark[:48]),
            "load SR:    " + "".join("#" if t > 0 else "." for t in self.baseline_toggles[:48]),
            "clock mod.: " + "".join("#" if t > 0 else "." for t in self.clock_modulation_toggles[:48]),
            "",
            f"toggles per register per active cycle: "
            f"load circuit = {self.baseline_toggles_per_active_register:.2f}, "
            f"clock modulation = {self.clock_modulation_toggles_per_active_register:.2f}",
        ]
        return "\n".join(lines)


def _compute_fig2(
    num_cycles: int,
    register_count: int,
    lfsr_width: int,
    seed: int,
) -> Fig2Result:
    """The Fig. 2 functional simulation (pipeline stage body).

    Both architectures use the same small WGC (so the WMARK waveforms are
    identical) and a power-pattern producer of ``register_count`` registers
    (the paper's illustration uses an 8-bit load register).
    """
    if num_cycles <= 0:
        raise ValueError("num_cycles must be positive")
    baseline = BaselineWatermark(
        wgc=WatermarkGenerationCircuit.minimal(width=lfsr_width, seed=seed),
        load=LoadCircuit(num_registers=register_count, word_width=register_count),
    )
    clock_mod = ClockModulationWatermark(
        wgc=WatermarkGenerationCircuit.minimal(width=lfsr_width, seed=seed),
        modulated_block=ClockModulatedIPBlock(
            modulated_registers=register_count, num_clock_gates=1
        ),
    )

    wmark_bits = baseline.sequence(num_cycles)
    baseline_traces = baseline.activity_traces(num_cycles)
    clock_mod_traces = clock_mod.activity_traces(num_cycles)
    return Fig2Result(
        num_cycles=num_cycles,
        wmark=np.asarray(wmark_bits, dtype=np.int8),
        baseline_toggles=baseline_traces["load"].total_toggles,
        clock_modulation_toggles=clock_mod_traces["load"].total_toggles,
        registers_compared=register_count,
    )
