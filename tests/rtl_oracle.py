"""Cycle-stepping model of the watermark circuits (test oracle).

The library computes watermark activity in closed form: one period of the
WGC and of every load type is a set of array expressions of the WMARK
vector (:meth:`repro.core.architectures.WatermarkArchitecture.periodic_activity`).
This module keeps the register-transfer model those expressions stand
for, advanced one clock edge at a time from reset, so the tests can check
the two against each other exactly:

* stateful twins of the library components (:class:`Register`,
  :class:`ShiftRegister`, :class:`ClockGate`, :class:`CombinationalBlock`,
  :class:`RegisterBank`) whose ``step`` returns the
  :class:`ActivityRecord` of one cycle;
* stateful sequence generators (:class:`LFSR`,
  :class:`CircularShiftRegister`), :func:`stepped_sequence` and the WGC
  built from them;
* the three power-pattern producers (:class:`ClockModulatedBank`,
  :class:`ClockModulatedIPBlock`, :class:`LoadCircuit`);
* :class:`SteppedWatermark`, a whole architecture, and
  :func:`stepped_activity`, its per-cycle traces;
* :func:`trace_from_records`, which builds a trace from the per-cycle
  records a stepping model returns, and :func:`hamming_distance`, the
  bits a register update toggles.

Each twin subclasses the library class it mirrors, so it takes the same
constructor arguments and reuses the library's structure and validation;
only the state and the per-cycle behaviour the closed form stands for are
added here.  A twin starts at reset; build a new one to start again.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core import clock_modulation, lfsr, load_circuit, wgc
from repro.rtl import components
from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE

ZERO_ACTIVITY = ActivityRecord()


def hamming_distance(a: int, b: int, width: Optional[int] = None) -> int:
    """Number of differing bits between ``a`` and ``b``.

    This is the canonical switching-activity measure for a register word:
    the dynamic energy of a data update is proportional to the Hamming
    distance between the old and new contents.
    """
    diff = a ^ b
    if width is not None:
        diff &= (1 << width) - 1
    return diff.bit_count()


def trace_from_records(name: str, records: Iterable[ActivityRecord]) -> ActivityTrace:
    """Build a trace from an iterable of per-cycle records."""
    records = list(records)
    return ActivityTrace(
        name=name,
        clock_toggles=np.array([r.clock_toggles for r in records], dtype=np.int64),
        data_toggles=np.array([r.data_toggles for r in records], dtype=np.int64),
        comb_toggles=np.array([r.comb_toggles for r in records], dtype=np.int64),
    )


# -- components ---------------------------------------------------------------


class Register(components.Register):
    """A clocked register word holding a value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.value = self.reset_value

    def step(self, next_value: int) -> ActivityRecord:
        """Load ``next_value`` on an enabled clock edge.

        The clock pins of all ``width`` flip-flops toggle twice and the
        data by the Hamming distance to ``next_value``.
        """
        data_toggles = hamming_distance(self.value, next_value, self.width)
        self.value = next_value
        return ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.width, data_toggles=data_toggles
        )


class ShiftRegister(Register, components.ShiftRegister):
    """A circular shift register holding a value."""

    def shift(self) -> ActivityRecord:
        """Rotate left by one position."""
        msb = (self.value >> (self.width - 1)) & 1
        return self.step(((self.value << 1) | msb) & ((1 << self.width) - 1))


class ClockGate(components.ClockGate):
    """An ICG remembering its enable across cycles."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.enabled = False

    def step(self, enable: bool) -> ActivityRecord:
        """The gate's own activity: latch toggle on a change, root clock."""
        comb = 1 if bool(enable) != self.enabled else 0
        self.enabled = bool(enable)
        clock = CLOCK_EDGES_PER_CYCLE if self.enabled else 0
        return ActivityRecord(clock_toggles=clock, comb_toggles=comb)


class CombinationalBlock(components.CombinationalBlock):
    def step(self, active: bool) -> ActivityRecord:
        """The activity-factor estimate while active."""
        if not active:
            return ZERO_ACTIVITY
        return ActivityRecord(comb_toggles=int(round(self.gate_count * self.activity_factor)))


class RegisterBank(components.RegisterBank):
    """A bank of word registers, each behind its own ICG."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.words = [
            Register(f"{self.name}/word{i}", width=self.word_width, reset_value=0)
            for i in range(self.num_words)
        ]
        self.clock_gates = [ClockGate(f"{self.name}/icg{i}") for i in range(self.num_words)]

    def step(self, enable: bool) -> ActivityRecord:
        """One cycle with ``enable`` on every ICG.

        Enabled words toggle their clocks; the first ``switching_registers``
        registers also invert their contents.
        """
        total = ZERO_ACTIVITY
        remaining_switching = self.switching_registers
        for word, gate in zip(self.words, self.clock_gates):
            total = total + gate.step(enable)
            if not enable:
                continue
            switching_bits = min(remaining_switching, word.width)
            remaining_switching -= switching_bits
            total = total + word.step(word.value ^ ((1 << switching_bits) - 1))
        return total


# -- sequence generators and the WGC ------------------------------------------


class LFSR(lfsr.LFSR):
    """A Galois LFSR holding its state."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.state = self.seed

    def step(self) -> Tuple[int, ActivityRecord]:
        """Shift right, XOR in the feedback mask when a 1 is shifted out."""
        lsb = self.state & 1
        next_state = self.state >> 1
        if lsb:
            next_state ^= self._feedback_mask
        data_toggles = hamming_distance(self.state, next_state, self.width)
        self.state = next_state
        activity = ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.width,
            data_toggles=data_toggles,
            comb_toggles=len(self.taps) if lsb else 0,
        )
        return self.state & 1, activity


class CircularShiftRegister(lfsr.CircularShiftRegister):
    """A circular shift register holding its state."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.state = self.pattern

    def step(self) -> Tuple[int, ActivityRecord]:
        """Rotate right by one stage."""
        lsb = self.state & 1
        next_state = (self.state >> 1) | (lsb << (self.width - 1))
        data_toggles = hamming_distance(self.state, next_state, self.width)
        self.state = next_state
        activity = ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.width,
            data_toggles=data_toggles,
        )
        return self.state & 1, activity


def stepped_generator(generator: lfsr.SequenceGenerator):
    """The stateful twin of a library sequence generator, at its seed."""
    if isinstance(generator, lfsr.LFSR):
        return LFSR(width=generator.width, seed=generator.seed, taps=generator.taps, name=generator.name)
    if isinstance(generator, lfsr.CircularShiftRegister):
        return CircularShiftRegister(pattern=generator.pattern, width=generator.width, name=generator.name)
    raise TypeError(f"no stepping twin for {type(generator).__name__}")


def stepped_sequence(generator: lfsr.SequenceGenerator, length: int) -> np.ndarray:
    """``length`` output bits of ``generator`` from its seed, one step each."""
    twin = stepped_generator(generator)
    bits = [twin.state & 1] + [twin.step()[0] for _ in range(length - 1)]
    return np.array(bits, dtype=np.int8)


class WatermarkGenerationCircuit(wgc.WatermarkGenerationCircuit):
    """A WGC whose generators hold state and step.

    Library generators passed in (as the ``minimal``/``test_chip``
    constructors do) are replaced by their stepping twins.
    """

    def __init__(self, generators, *args, **kwargs) -> None:
        super().__init__([stepped_generator(g) for g in generators], *args, **kwargs)
        self.control = CombinationalBlock(
            self.control.name, self.control.gate_count, self.control.activity_factor
        )
        self.wmark = self.active_generator.state & 1

    def step(self) -> Tuple[int, ActivityRecord]:
        """Advance the active generator; add config clocks and control logic."""
        self.wmark, generator_activity = self.active_generator.step()
        config_activity = ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.always_clocked_registers
        )
        return self.wmark, generator_activity + config_activity + self.control.step(active=True)


def stepped_wgc(circuit: wgc.WatermarkGenerationCircuit) -> WatermarkGenerationCircuit:
    """The stateful twin of a library WGC, at reset."""
    return WatermarkGenerationCircuit(
        generators=circuit.generators,
        active_index=circuit.active_index,
        control_gates=circuit.control.gate_count,
        always_clocked_registers=circuit.always_clocked_registers,
        name=circuit.name,
    )


# -- power-pattern producers ----------------------------------------------------


class ClockModulatedBank(clock_modulation.ClockModulatedBank):
    """The redundant bank with stateful words and gates."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bank = RegisterBank(
            self.bank.name,
            num_words=self.bank.num_words,
            word_width=self.bank.word_width,
            switching_registers=self.bank.switching_registers,
        )
        self.enable_logic = CombinationalBlock(
            self.enable_logic.name,
            gate_count=self.enable_logic.gate_count,
            activity_factor=self.enable_logic.activity_factor,
        )

    def step(self, wmark: int) -> ActivityRecord:
        """One cycle with ICG enable ``WMARK``.

        The ICG-level tree above the gates follows the root clock and keeps
        running; the enable glue logic switches while enabled.
        """
        enable = bool(wmark)
        tree = ActivityRecord(clock_toggles=self.icg_clock_tree.toggles_per_cycle())
        return self.bank.step(enable) + tree + self.enable_logic.step(active=enable)


class ClockModulatedIPBlock(clock_modulation.ClockModulatedIPBlock):
    def step(self, wmark: int) -> ActivityRecord:
        """The block's clock tree and data while ``WMARK`` is high."""
        if not wmark:
            return ZERO_ACTIVITY
        register_clocks = CLOCK_EDGES_PER_CYCLE * self.modulated_registers
        gate_clocks = CLOCK_EDGES_PER_CYCLE * self.num_clock_gates
        tree_clocks = self.clock_tree.toggles_per_cycle()
        data = int(round(self.modulated_registers * self.data_activity_factor))
        return ActivityRecord(
            clock_toggles=register_clocks + gate_clocks + tree_clocks,
            data_toggles=data,
        )


class LoadCircuit(load_circuit.LoadCircuit):
    """The baseline load with stateful shift-register words."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.words = [ShiftRegister(word.name, width=word.width) for word in self.words]

    def step(self, wmark: int) -> ActivityRecord:
        """Every word shifts while WMARK is 1; idle otherwise."""
        total = ZERO_ACTIVITY
        if wmark:
            for word in self.words:
                total = total + word.shift()
        return total


def stepped_producer(producer):
    """The stateful twin of a library power-pattern producer, at reset."""
    if isinstance(producer, clock_modulation.ClockModulatedBank):
        return ClockModulatedBank(
            num_words=producer.num_words,
            word_width=producer.bank.word_width,
            switching_registers=producer.switching_registers,
            clock_tree_fanout=producer.icg_clock_tree.max_fanout,
            name=producer.name,
        )
    if isinstance(producer, clock_modulation.ClockModulatedIPBlock):
        return ClockModulatedIPBlock(
            modulated_registers=producer.modulated_registers,
            data_activity_factor=producer.data_activity_factor,
            num_clock_gates=producer.num_clock_gates,
            clock_tree_fanout=producer.clock_tree.max_fanout,
            name=producer.name,
        )
    if isinstance(producer, load_circuit.LoadCircuit):
        return LoadCircuit(
            num_registers=producer.num_registers,
            word_width=producer.word_width,
            name=producer.name,
        )
    raise TypeError(f"no stepping twin for {type(producer).__name__}")


# -- whole architectures --------------------------------------------------------


class SteppedWatermark:
    """A watermark architecture advanced one clock edge at a time from reset.

    Built from a library architecture's configuration.  The load sees the
    WMARK value of the *previous* cycle boundary (registered output),
    matching the paper's Fig. 2 waveforms.
    """

    def __init__(self, architecture) -> None:
        self.name = architecture.name
        self.wgc = stepped_wgc(architecture.wgc)
        producer = getattr(architecture, "load", None) or architecture.modulated_block
        self.load = stepped_producer(producer)

    def step(self) -> Dict[str, ActivityRecord]:
        """Advance one cycle; the activity under ``"wgc"`` and ``"load"``."""
        wmark_before = self.wgc.wmark
        _, wgc_activity = self.wgc.step()
        return {"wgc": wgc_activity, "load": self.load.step(wmark_before)}


def stepped_activity(architecture, num_cycles: Optional[int] = None) -> Dict[str, ActivityTrace]:
    """Stepped per-cycle activity of ``architecture`` from reset (default: one period)."""
    if num_cycles is None:
        num_cycles = architecture.sequence_period
    stepping = SteppedWatermark(architecture)
    records = [stepping.step() for _ in range(num_cycles)]
    return {
        key: trace_from_records(
            f"{architecture.name}/{key}", [record[key] for record in records]
        )
        for key in ("wgc", "load")
    }
