"""Chip-level system assemblies (the paper's chip I and chip II).

A :class:`ChipModel` combines:

* a Cortex-M0-class core running a workload (Dhrystone-like by default),
* its SRAM and system bus,
* the other clocked IP blocks of the SoC (peripherals, and for chip II the
  idle dual-core A5-class subsystem with caches),
* optionally an embedded watermark architecture,

and produces per-cycle power traces for the measurement chain.  The
Cortex-M0 workload is simulated cycle by cycle for a representative window
(16,384 cycles by default).  Dhrystone itself is a short repeating loop, so
the window already holds the cycle-to-cycle structure of the background
power; simulating every one of a multi-hundred-thousand-cycle acquisition
would add nothing but time.  The simulated window is shared across chips
through the window cache in :mod:`repro.soc.cpu`.

The background power is computed straight in watts.  The window's
per-cycle power is computed once and tiled to the full acquisition length
with a random cyclic shift per repetition, two slice copies per
repetition.  The idle blocks draw their per-cycle power in place
(:meth:`repro.soc.multicore.IdleDualCoreA5Like.draw_power`).  The activity
path it replaces -- one activity trace per contributor, summed by
:meth:`repro.power.estimator.PowerEstimator.combined_power_trace` -- is the
test oracle ``tests/background_oracle.py``, equal to it byte for byte.

Every stochastic contributor of a chip's background draws from its own
named stream of the background seed (:mod:`repro.core.seeds`): ``"m0"``
for the window shifts, ``"peripherals"`` and ``"a5"`` for the idle blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

import numpy as np

from repro.caching import LRUCache
from repro.core.architectures import WatermarkArchitecture
from repro.core.seeds import stream
from repro.power.estimator import PowerEstimator
from repro.power.synthesis import rolled_blocks
from repro.power.trace import PowerTrace
from repro.rtl.activity import ActivityTrace
from repro.soc.bus import SystemBus
from repro.soc.cpu import CortexM0Like, cached_window_trace, program_fingerprint
from repro.soc.memory import Memory
from repro.soc.multicore import BackgroundIPBlocks, IdleDualCoreA5Like
from repro.soc.workloads import dhrystone_like_program
from repro.soc.assembler import Program


# -- chip-level background-power template cache --------------------------------
#
# The background power of a chip is a deterministic function of the chip
# configuration, the background seed and the acquisition length: the M0
# window simulation is keyed by the program, the stochastic draws come
# from the seed's named streams, and the power model has no parameters
# (:mod:`repro.power.estimator` costs everything at 10 MHz / 1.2 V).
# Fig. 5 panels, Fig. 6 campaigns and robustness sweeps all re-request the
# same background, so the per-cycle template is computed once and shared.
#
# Each distinct ``num_cycles`` is its own cache class: the idle blocks
# draw normals, uniforms and integers in length-dependent order,
# so truncating a longer template would *not* be bit-identical to drawing
# the shorter trace directly -- and bit-identity with the pre-cache
# implementation is the contract pinned by the equivalence suite.

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
    m0_window_cycles: int = 16_384
    sram_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.m0_window_cycles <= 0:
            raise ValueError("the M0 simulation window must be positive")
        if self.sram_bytes <= 0:
            raise ValueError("SRAM size must be positive")


class ChipModel:
    """A complete test-chip model producing power traces."""

    def __init__(
        self,
        description: ChipDescription,
        watermark: Optional[WatermarkArchitecture] = None,
        program: Optional[Program] = None,
        seed: int = 2014,
    ) -> None:
        self.description = description
        self.watermark = watermark
        self.seed = seed

        self.memory = Memory(size_bytes=description.sram_bytes)
        self.bus = SystemBus()
        self.bus.attach(self.memory)
        self.program = program or dhrystone_like_program()
        if self.program.data_words:
            self.memory.load_words(self.program.data_words)
        self.cpu = CortexM0Like(self.program, self.bus)
        self.peripherals = BackgroundIPBlocks()
        self.a5_subsystem: Optional[IdleDualCoreA5Like] = (
            IdleDualCoreA5Like() if description.has_a5_subsystem else None
        )

    # -- structural information ----------------------------------------------

    @property
    def name(self) -> str:
        """Chip name ("chip1" / "chip2")."""
        return self.description.name

    def system_register_count(self) -> int:
        """Flip-flop count of the functional system (excluding the watermark)."""
        total = self.cpu.activity.total_registers + self.peripherals.register_count
        if self.a5_subsystem is not None:
            total += self.a5_subsystem.register_count
        return total

    def system_cell_inventory(self) -> Dict[str, int]:
        """Approximate cell inventory of the functional system (for leakage)."""
        registers = self.system_register_count()
        return {"dff": registers, "comb": registers * 6, "sram": self.description.sram_bytes * 8}

    # -- activity traces --------------------------------------------------------

    def _m0_window_cache_key(self, window: int) -> Hashable:
        """Cache key of the simulated M0 window.

        Covers everything the window simulation depends on: the program
        (instructions, labels, entry point *and* initial memory image, via
        :func:`repro.soc.cpu.program_fingerprint`), the window length, the
        core's structural activity model and the memory configuration.
        """
        return (
            "m0-window",
            program_fingerprint(self.program),
            window,
            self.cpu.activity,
            self.cpu.name,
            self.description.sram_bytes,
        )

    def _simulate_m0_window(self, window: int) -> ActivityTrace:
        """Cycle-accurately simulate the M0 window in a pristine environment.

        A fresh core/bus/memory triple is used so the simulated window is a
        pure function of the program and configuration -- exactly what a
        newly built chip would produce -- and therefore safe to share
        across chip instances through the module-level window cache.
        """
        memory = Memory(size_bytes=self.description.sram_bytes)
        bus = SystemBus()
        bus.attach(memory)
        if self.program.data_words:
            memory.load_words(self.program.data_words)
        cpu = CortexM0Like(
            self.program, bus, activity_model=self.cpu.activity, name=self.cpu.name
        )
        return cpu.run_cycles(window)

    def _m0_window(self, num_cycles: int, use_cache: bool) -> ActivityTrace:
        """The simulated M0 window of an acquisition of ``num_cycles`` cycles.

        The window is shared across chip instances through the module-level
        cache in :mod:`repro.soc.cpu` (keyed by program identity and window
        length); ``use_cache=False`` forces a fresh cycle-accurate run,
        which is bit-identical by construction.
        """
        window = min(num_cycles, self.description.m0_window_cycles)
        if use_cache:
            return cached_window_trace(
                self._m0_window_cache_key(window), lambda: self._simulate_m0_window(window)
            )
        return self._simulate_m0_window(window)

    def _m0_shifts(self, num_cycles: int, window: int, seed: int) -> np.ndarray:
        """One cyclic shift per window repetition, from the ``"m0"`` stream."""
        return stream(seed, "m0").integers(0, window, size=-(-num_cycles // window))

    def m0_activity(
        self, num_cycles: int, seed: Optional[int] = None, use_cache: bool = True
    ) -> ActivityTrace:
        """Activity of the Cortex-M0-class core (plus bus/SRAM) over ``num_cycles``.

        The core is simulated cycle-accurately for a representative window
        and the window is then repeated with a random cyclic shift per
        repetition, drawn from the ``"m0"`` stream of ``seed``: repetition
        ``r`` is ``np.roll(window, shift_r)``.  The shifts reflect that on
        the bench the benchmark loop is not phase-locked to the acquisition
        window; without them an exactly periodic background could alias into
        the watermark-period phase bins and bias the CPA noise floor.
        :meth:`background_power` tiles the window's power the same way.
        """
        trace = self._m0_window(num_cycles, use_cache)
        window = len(trace)
        if window >= num_cycles:
            return trace
        shifts = self._m0_shifts(num_cycles, window, self.seed if seed is None else seed)
        return ActivityTrace(
            name=trace.name,
            clock_toggles=rolled_blocks(trace.clock_toggles, shifts, num_cycles),
            data_toggles=rolled_blocks(trace.data_toggles, shifts, num_cycles),
            comb_toggles=rolled_blocks(trace.comb_toggles, shifts, num_cycles),
        )

    # -- power traces -------------------------------------------------------------

    def _background_template_key(self, num_cycles: int, seed: int) -> Hashable:
        """Cache key of the seeded background-power template.

        Covers the chip configuration (description, program identity, core
        activity model, background-block parameters) and the seeded
        acquisition class ``(seed, num_cycles)``.  The power model is fixed
        (:mod:`repro.power.estimator`), so it is not part of the key.
        """
        return (
            "background-power",
            self.description,
            program_fingerprint(self.program),
            self.cpu.activity,
            self.peripherals.parameters,
            self.a5_subsystem.parameters if self.a5_subsystem is not None else None,
            seed,
            num_cycles,
        )

    def background_power(
        self, num_cycles: int, seed: Optional[int] = None, use_cache: bool = True
    ) -> PowerTrace:
        """Power consumed by the functional system over ``num_cycles``.

        Static leakage covers the chip's full cell inventory
        (:meth:`system_cell_inventory`: flip-flops, combinational cells and
        the SRAM array), matching how the watermark architectures and the
        Table I analysis compute leakage from ``leakage_of(cell_inventory())``.

        The per-cycle template is cached per ``(chip configuration, seed,
        num_cycles)`` -- see the module docstring of the template cache --
        so repeated acquisitions of the same background reuse one array.
        ``use_cache=False`` recomputes from scratch (bit-identical by
        construction; the equivalence suite pins this).
        """
        resolved_seed = self.seed if seed is None else seed

        def compute() -> np.ndarray:
            # The sum order (m0, peripherals, a5, static) is part of the
            # bit-identity with the activity path.
            estimator = PowerEstimator()
            window = self._m0_window(num_cycles, use_cache)
            power_w = estimator.power_per_cycle(window)
            if len(window) < num_cycles:
                shifts = self._m0_shifts(num_cycles, len(window), resolved_seed)
                power_w = rolled_blocks(power_w, shifts, num_cycles)
            power_w += self.peripherals.draw_power(
                num_cycles, stream(resolved_seed, "peripherals")
            )
            if self.a5_subsystem is not None:
                power_w += self.a5_subsystem.draw_power(num_cycles, stream(resolved_seed, "a5"))
            power_w += estimator.leakage_of(self.system_cell_inventory())
            return power_w

        if use_cache:

            def compute_template() -> np.ndarray:
                template = compute()
                template.flags.writeable = False
                return template

            power_w = _BACKGROUND_TEMPLATE_CACHE.get_or_compute(
                self._background_template_key(num_cycles, resolved_seed), compute_template
            )
        else:
            power_w = compute()
        return PowerTrace(name=f"{self.name}/background", power_w=power_w)

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
        seed: Optional[int] = None,
        watermark_phase_offset: int = 0,
        use_cache: bool = True,
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
        background = self.background_power(num_cycles, seed=seed, use_cache=use_cache)
        if not watermark_active or self.watermark is None:
            return PowerTrace(name=f"{self.name}/total", power_w=background.power_w)
        watermark = self.watermark_power(num_cycles, phase_offset=watermark_phase_offset)
        total = background.add(watermark)
        return PowerTrace(name=f"{self.name}/total", power_w=total.power_w)

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


def build_chip_one(
    watermark: Optional[WatermarkArchitecture] = None,
    program: Optional[Program] = None,
    m0_window_cycles: int = 16_384,
    seed: int = 2014,
) -> ChipModel:
    """Chip I: Cortex-M0-class SoC with peripherals, watermark as a macro."""
    description = ChipDescription(name="chip1", has_a5_subsystem=False, m0_window_cycles=m0_window_cycles)
    return ChipModel(description, watermark=watermark, program=program, seed=seed)


def build_chip_two(
    watermark: Optional[WatermarkArchitecture] = None,
    program: Optional[Program] = None,
    m0_window_cycles: int = 16_384,
    seed: int = 2015,
) -> ChipModel:
    """Chip II: adds the clocked-but-idle dual-core A5-class subsystem."""
    description = ChipDescription(name="chip2", has_a5_subsystem=True, m0_window_cycles=m0_window_cycles)
    return ChipModel(description, watermark=watermark, program=program, seed=seed)
