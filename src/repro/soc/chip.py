"""The paper's two test chips, chip I and chip II.

A :class:`ChipModel` combines:

* a Cortex-M0-class core running the Dhrystone-like benchmark from its SRAM
  over the system bus (its activity window ships as data),
* the other clocked IP blocks of the SoC (the peripherals, and for chip II
  the idle dual-core A5-class subsystem with caches; both are fixed
  parameter sets in :mod:`repro.soc.multicore`),
* optionally an embedded watermark architecture,

and produces per-cycle power traces for the measurement chain.  The two
configurations are declared once, at the bottom of this module, and
:data:`CHIP_BUILDERS` maps their canonical names (``"chip1"``,
``"chip2"``) to their builders.

The Cortex-M0's activity is one Dhrystone run from reset, read from the
window shipped with the package (:mod:`repro.soc.cpu`, up to 16,384
cycles).  Dhrystone itself is a short repeating loop, so the window
already holds the cycle-to-cycle structure of the background power;
tiling it over a multi-hundred-thousand-cycle acquisition loses nothing.

The background power is computed straight in watts.  The window's
per-cycle power is computed once and tiled to the full acquisition length
with a random cyclic shift per repetition, two slice copies per
repetition.  The idle blocks add their closed-form mean power
(:attr:`repro.soc.multicore.IdleBlock.mean_power_w`); their per-cycle
jitter is i.i.d. Gaussian, so it travels as the trace's
``fluctuation_w`` and the acquisition draws it with its own noise.  The
activity path this replaces -- one activity trace per contributor, summed
by :meth:`repro.power.estimator.PowerEstimator.combined_power_trace` -- is
the test oracle ``tests/background_oracle.py``, equal to it byte for byte.

The only stochastic contributor of a chip's background array is the M0
window's tiling: its cyclic shifts come from the ``"m0"`` stream of the
background seed (:mod:`repro.core.seeds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.caching import LRUCache
from repro.core.architectures import WatermarkArchitecture
from repro.core.seeds import stream
from repro.power.estimator import PowerEstimator
from repro.power.synthesis import rolled_blocks
from repro.power.trace import PowerTrace
from repro.rtl.activity import ActivityTrace
from repro.soc.cpu import M0_WINDOW_CYCLES, m0_window
from repro.soc.multicore import A5_SUBSYSTEM, PERIPHERALS, IdleBlock

#: SRAM of the Cortex-M0 (64 KiB), which holds Dhrystone's data.
SRAM_BYTES = 64 * 1024
#: Flip-flops of the Cortex-M0-class core: 180 always-clocked control
#: registers, 130 pipeline registers and a 16 x 32-bit register file.
M0_REGISTERS = 822


# -- chip-level background-power template cache --------------------------------
#
# The background power of a chip is a deterministic function of the chip
# description, the background seed and the acquisition length: the M0
# window depends on its length only, the window shifts come from the
# seed's ``"m0"`` stream, the idle blocks add constants, and the power
# model has no parameters (:mod:`repro.power.estimator` costs everything
# at 10 MHz / 1.2 V).  Each distinct ``num_cycles`` is its own entry.

#: Upper bound on retained background templates (LRU eviction beyond this).
BACKGROUND_TEMPLATE_CACHE_MAX_ENTRIES = 32

_BACKGROUND_TEMPLATE_CACHE = LRUCache(lambda: BACKGROUND_TEMPLATE_CACHE_MAX_ENTRIES)


def clear_background_template_cache() -> None:
    """Explicitly drop every cached background-power template."""
    _BACKGROUND_TEMPLATE_CACHE.clear()


def background_template_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters plus current size of the template cache."""
    return _BACKGROUND_TEMPLATE_CACHE.stats()


@dataclass(frozen=True)
class ChipDescription:
    """Static description of a chip configuration."""

    name: str
    has_a5_subsystem: bool


class ChipModel:
    """A complete test-chip model producing power traces."""

    def __init__(
        self,
        description: ChipDescription,
        watermark: Optional[WatermarkArchitecture] = None,
    ) -> None:
        self.description = description
        self.watermark = watermark
        self.peripherals: IdleBlock = PERIPHERALS
        self.a5_subsystem: Optional[IdleBlock] = (
            A5_SUBSYSTEM if description.has_a5_subsystem else None
        )

    # -- structural information ----------------------------------------------

    @property
    def name(self) -> str:
        """Chip name ("chip1" / "chip2")."""
        return self.description.name

    def system_register_count(self) -> int:
        """Flip-flop count of the functional system (excluding the watermark)."""
        total = M0_REGISTERS + self.peripherals.register_count
        if self.a5_subsystem is not None:
            total += self.a5_subsystem.register_count
        return total

    def system_cell_inventory(self) -> Dict[str, int]:
        """Approximate cell inventory of the functional system (for leakage)."""
        registers = self.system_register_count()
        return {"dff": registers, "comb": registers * 6, "sram": SRAM_BYTES * 8}

    # -- activity traces --------------------------------------------------------

    def _m0_window(self, num_cycles: int) -> ActivityTrace:
        """The M0 window of an acquisition of ``num_cycles`` cycles (read-only arrays).

        The whole shipped window, or its prefix for a shorter acquisition.
        """
        return m0_window(min(num_cycles, M0_WINDOW_CYCLES))

    def _m0_shifts(self, num_cycles: int, window: int, seed: int) -> np.ndarray:
        """One cyclic shift per window repetition, from the ``"m0"`` stream."""
        return stream(seed, "m0").integers(0, window, size=-(-num_cycles // window))

    def m0_activity(self, num_cycles: int, seed: int) -> ActivityTrace:
        """Activity of the Cortex-M0-class core (plus bus/SRAM) over ``num_cycles``.

        The core's shipped activity window is repeated with a random cyclic
        shift per repetition, drawn from the ``"m0"`` stream of ``seed``:
        repetition ``r`` is ``np.roll(window, shift_r)``.  The shifts reflect
        that on the bench the benchmark loop is not phase-locked to the
        acquisition window; without them an exactly periodic background could
        alias into the watermark-period phase bins and bias the CPA noise
        floor.
        :meth:`background_power` tiles the window's power the same way.
        """
        trace = self._m0_window(num_cycles)
        window = len(trace)
        if window >= num_cycles:
            return trace
        shifts = self._m0_shifts(num_cycles, window, seed)
        return ActivityTrace(
            name=trace.name,
            clock_toggles=rolled_blocks(trace.clock_toggles, shifts, num_cycles),
            data_toggles=rolled_blocks(trace.data_toggles, shifts, num_cycles),
            comb_toggles=rolled_blocks(trace.comb_toggles, shifts, num_cycles),
        )

    # -- power traces -------------------------------------------------------------

    def _background_template_key(self, num_cycles: int, seed: int) -> Hashable:
        """Cache key of the seeded background-power template.

        The description names the chip; the rest of the chip is fixed, and
        so is the power model (:mod:`repro.power.estimator`).  The seed only
        draws the window shifts, so an acquisition no longer than the
        window is one entry whatever its seed.
        """
        drawn_seed = seed if num_cycles > M0_WINDOW_CYCLES else None
        return ("background-power", self.description, drawn_seed, num_cycles)

    def _idle_blocks(self) -> Tuple[IdleBlock, ...]:
        """The chip's clocked-but-idle blocks: the peripherals, then the A5."""
        if self.a5_subsystem is None:
            return (self.peripherals,)
        return (self.peripherals, self.a5_subsystem)

    def background_power(self, num_cycles: int, seed: int) -> PowerTrace:
        """Power consumed by the functional system over ``num_cycles``.

        The array is the tiled M0 window's power plus the idle blocks' mean
        power plus static leakage; the idle blocks' per-cycle jitter is the
        trace's ``fluctuation_w``, their standard deviations in quadrature.
        Static leakage covers the chip's full cell inventory
        (:meth:`system_cell_inventory`: flip-flops, combinational cells and
        the SRAM array), matching how the watermark architectures and the
        Table I analysis compute leakage from ``leakage_of(cell_inventory())``.

        The per-cycle array is cached, read-only, per ``(chip
        configuration, seed, num_cycles)``, the seed only when window shifts
        are drawn, so repeated acquisitions of the same background reuse
        one array.  :func:`clear_background_template_cache` makes the next
        call compute it afresh.
        """
        blocks = self._idle_blocks()

        def compute() -> np.ndarray:
            estimator = PowerEstimator()
            window = self._m0_window(num_cycles)
            power_w = estimator.power_per_cycle(window)
            if len(window) < num_cycles:
                shifts = self._m0_shifts(num_cycles, len(window), seed)
                power_w = rolled_blocks(power_w, shifts, num_cycles)
            power_w += sum(block.mean_power_w for block in blocks) + estimator.leakage_of(
                self.system_cell_inventory()
            )
            power_w.flags.writeable = False
            return power_w

        power_w = _BACKGROUND_TEMPLATE_CACHE.get_or_compute(
            self._background_template_key(num_cycles, seed), compute
        )
        return PowerTrace(
            name=f"{self.name}/background",
            power_w=power_w,
            fluctuation_w=math.hypot(*(block.fluctuation_w for block in blocks)),
        )

    def watermark_power(self, num_cycles: int, phase_offset: int = 0) -> PowerTrace:
        """Power contributed by the embedded watermark circuit.

        Synthesized from the architecture's one-period power template;
        ``phase_offset`` rotates the trace relative to the acquisition
        start (the scope trigger is not aligned with the LFSR phase).
        """
        if self.watermark is None:
            raise ValueError(f"chip {self.name!r} has no embedded watermark")
        return self.watermark.power_trace(num_cycles, phase_offset=phase_offset)

    def total_power(
        self,
        num_cycles: int,
        watermark_active: bool = True,
        *,
        seed: int,
        watermark_phase_offset: int = 0,
    ) -> PowerTrace:
        """Total device power: background plus (optionally) the watermark.

        ``watermark_active=False`` reproduces the paper's control
        experiment (Fig. 5(b)/(d)) in which the watermark circuit is
        disabled and only background power reaches the shunt resistor.

        ``watermark_phase_offset`` shifts the watermark sequence by that
        many clock cycles relative to the start of the acquisition -- on
        the bench the oscilloscope trigger is not aligned with the LFSR
        phase, which is why the paper's correlation peaks appear at
        arbitrary rotations (~3,800 on chip I, ~2,400 on chip II).
        """
        total = self.background_power(num_cycles, seed)
        if watermark_active and self.watermark is not None:
            total = total.add(
                self.watermark_power(num_cycles, phase_offset=watermark_phase_offset)
            )
        total.name = f"{self.name}/total"
        return total

    def watermark_sequence(self, length: Optional[int] = None) -> np.ndarray:
        """The watermark model sequence of the embedded watermark."""
        if self.watermark is None:
            raise ValueError(f"chip {self.name!r} has no embedded watermark")
        return self.watermark.sequence(length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChipModel(name={self.name!r}, a5={self.a5_subsystem is not None}, "
            f"watermark={self.watermark is not None})"
        )


def build_chip_one(watermark: Optional[WatermarkArchitecture] = None) -> ChipModel:
    """Chip I: Cortex-M0-class SoC with peripherals, watermark as a macro."""
    return ChipModel(ChipDescription(name="chip1", has_a5_subsystem=False), watermark=watermark)


def build_chip_two(watermark: Optional[WatermarkArchitecture] = None) -> ChipModel:
    """Chip II: adds the clocked-but-idle dual-core A5-class subsystem."""
    return ChipModel(ChipDescription(name="chip2", has_a5_subsystem=True), watermark=watermark)


#: The paper's two chips by canonical name.
CHIP_BUILDERS = {"chip1": build_chip_one, "chip2": build_chip_two}


def build_registered_chip(
    name: str, watermark: Optional[WatermarkArchitecture] = None
) -> ChipModel:
    """Build the chip called ``name`` with ``watermark`` embedded.

    :class:`repro.core.spec.ScenarioSpec` rejects any other chip name, so
    a spec's chip always resolves here.
    """
    return CHIP_BUILDERS[name](watermark)
