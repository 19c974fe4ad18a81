"""Chip-level system assemblies (the paper's chip I and chip II).

A :class:`ChipModel` combines:

* a Cortex-M0-class core running a workload (Dhrystone-like by default),
* its SRAM and system bus,
* the other clocked IP blocks of the SoC (peripherals, and for chip II the
  idle dual-core A5-class subsystem with caches),
* optionally an embedded watermark architecture,

and produces per-cycle power traces for the measurement chain.  The
Cortex-M0 workload is simulated cycle by cycle for a representative window
(16,384 cycles by default) and tiled, with a random cyclic shift per
repetition, to the full acquisition length.  Dhrystone itself is a short
repeating loop, so the window already holds the cycle-to-cycle structure
of the background power; simulating every one of a multi-hundred-thousand-
cycle acquisition would add nothing but time.  The simulated window is
shared across chips through the window cache in :mod:`repro.soc.cpu`.

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
# window simulation is keyed by the program, and the stochastic draws come
# from the seed's named streams.  Fig. 5 panels, Fig. 6 campaigns
# and robustness sweeps all re-request the same background,
# so the per-cycle template is computed once and shared.
#
# Each distinct ``num_cycles`` is its own cache class: the block-activity
# generators draw normals, uniforms and integers in length-dependent order,
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
        estimator: Optional[PowerEstimator] = None,
        seed: int = 2014,
    ) -> None:
        self.description = description
        self.watermark = watermark
        self.estimator = estimator or PowerEstimator.at_nominal()
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

    def m0_activity(
        self, num_cycles: int, seed: Optional[int] = None, use_cache: bool = True
    ) -> ActivityTrace:
        """Activity of the Cortex-M0-class core (plus bus/SRAM) over ``num_cycles``.

        The core is simulated cycle-accurately for a representative window
        and the window is then repeated with a random cyclic shift per
        repetition, drawn from the ``"m0"`` stream of ``seed``.  The
        shifts reflect that on the bench the benchmark
        loop is not phase-locked to the acquisition window; without them an
        exactly periodic background could alias into the watermark-period
        phase bins and bias the CPA noise floor.

        The simulated window is shared across chip instances through the
        module-level cache in :mod:`repro.soc.cpu` (keyed by program
        identity and window length); ``use_cache=False`` forces a fresh
        cycle-accurate run, which is bit-identical by construction.
        """
        window = min(num_cycles, self.description.m0_window_cycles)
        if use_cache:
            trace = cached_window_trace(
                self._m0_window_cache_key(window), lambda: self._simulate_m0_window(window)
            )
        else:
            trace = self._simulate_m0_window(window)
        if window >= num_cycles:
            return trace
        # One modular-index gather: repetition r of the window is read at
        # indices (i - shift_r) mod window, which is np.roll(values, shift_r).
        repetitions = -(-num_cycles // window)
        shifts = stream(self.seed if seed is None else seed, "m0").integers(
            0, window, size=repetitions
        )
        index = np.arange(window, dtype=np.int64)[None, :] - shifts[:, None]
        index %= window
        index = index.reshape(-1)[:num_cycles]
        return ActivityTrace(
            name=trace.name,
            clock_toggles=trace.clock_toggles[index],
            data_toggles=trace.data_toggles[index],
            comb_toggles=trace.comb_toggles[index],
        )

    def background_activity(
        self, num_cycles: int, seed: Optional[int] = None, use_cache: bool = True
    ) -> Dict[str, ActivityTrace]:
        """Per-contributor background activity (everything except the watermark).

        Each contributor draws from the stream of ``seed`` named after its
        key in the returned dict.
        """
        seed = self.seed if seed is None else seed
        traces = {
            "m0": self.m0_activity(num_cycles, seed=seed, use_cache=use_cache),
            "peripherals": self.peripherals.activity_trace(
                num_cycles, stream(seed, "peripherals")
            ),
        }
        if self.a5_subsystem is not None:
            traces["a5"] = self.a5_subsystem.activity_trace(num_cycles, stream(seed, "a5"))
        return traces

    # -- power traces -------------------------------------------------------------

    def _estimator_fingerprint(self) -> Hashable:
        """Hashable identity of the power model (operating point + library).

        The library is fingerprinted by value (name, voltage and every
        cell's characteristics), not by name alone: two same-named but
        differently calibrated libraries must never alias one cached
        template.
        """
        point = self.estimator.operating_point
        library = self.estimator.library
        return (
            point.clock.frequency_hz,
            point.voltage_v,
            point.temperature_c,
            library.name,
            library.voltage_v,
            tuple(sorted(library.cells.items())),
        )

    def _background_template_key(self, num_cycles: int, seed: int) -> Hashable:
        """Cache key of the seeded background-power template.

        Covers the chip configuration (description, program identity, core
        activity model, background-block parameters), the power model
        (operating point and cell library, by value) and the seeded
        acquisition class ``(seed, num_cycles)``.
        """
        return (
            "background-power",
            self.description,
            program_fingerprint(self.program),
            self.cpu.activity,
            self.peripherals.parameters,
            self.a5_subsystem.parameters if self.a5_subsystem is not None else None,
            self._estimator_fingerprint(),
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

        def compute() -> PowerTrace:
            traces = self.background_activity(
                num_cycles, seed=resolved_seed, use_cache=use_cache
            )
            static = self.estimator.leakage_of(self.system_cell_inventory())
            return self.estimator.combined_power_trace(
                traces,
                cell_types={"m0": "dff", "peripherals": "dff", "a5": "dff"},
                static_w=static,
                name=f"{self.name}/background",
            )

        if not use_cache:
            return compute()

        def compute_template() -> np.ndarray:
            template = compute().power_w
            template.flags.writeable = False
            return template

        power_w = _BACKGROUND_TEMPLATE_CACHE.get_or_compute(
            self._background_template_key(num_cycles, resolved_seed), compute_template
        )
        return PowerTrace(
            name=f"{self.name}/background",
            clock=self.estimator.operating_point.clock,
            power_w=power_w,
            voltage_v=self.estimator.operating_point.voltage_v,
        )

    def watermark_power(self, num_cycles: int, phase_offset: int = 0) -> PowerTrace:
        """Power contributed by the embedded watermark circuit.

        Synthesized from the architecture's one-period power template;
        ``phase_offset`` rotates the trace relative to the acquisition
        start (the scope trigger is not aligned with the LFSR phase).
        """
        if self.watermark is None:
            raise ValueError(f"chip {self.name!r} has no embedded watermark")
        return self.watermark.power_trace(
            self.estimator, num_cycles, phase_offset=phase_offset
        )

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
            return PowerTrace(
                name=f"{self.name}/total",
                clock=background.clock,
                power_w=background.power_w,
                voltage_v=background.voltage_v,
            )
        watermark = self.watermark_power(num_cycles, phase_offset=watermark_phase_offset)
        total = background.add(watermark)
        return PowerTrace(
            name=f"{self.name}/total",
            clock=total.clock,
            power_w=total.power_w,
            voltage_v=total.voltage_v,
        )

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
