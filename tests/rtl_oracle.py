"""Cycle-stepping model of the watermark circuits (test oracle).

The library computes watermark activity in closed form: one period of the
WGC and of every load type is a set of array expressions of the WMARK
vector (:meth:`repro.core.architectures.WatermarkArchitecture.periodic_activity`),
costed from the circuits' configuration alone.  This module keeps the
register-transfer model those expressions stand for, advanced one clock
edge at a time from reset, so the tests can check the two against each
other exactly:

* stateful twins of the library components (:class:`Register`,
  :class:`ShiftRegister`, :class:`ClockGate`, :class:`CombinationalBlock`)
  whose ``step`` returns the :class:`ActivityRecord` of one cycle;
* :class:`RegisterBank`, a bank of those register words each behind its
  own clock gate, and :class:`ClockTree`, a buffer tree built level by
  level (the library only counts its buffers, with
  :func:`repro.rtl.components.clock_tree_buffers`);
* a stateful :class:`LFSR`, :func:`stepped_sequence` and the WGC built
  from it;
* the three power-pattern producers (:class:`ClockModulatedBank`,
  :class:`ClockModulatedIPBlock`, :class:`LoadCircuit`), each holding its
  own register words, gates and trees;
* :class:`SteppedWatermark`, a whole architecture, and
  :func:`stepped_activity`, its per-cycle traces;
* :func:`trace_from_records`, which builds a trace from the per-cycle
  records a stepping model returns, and :func:`hamming_distance`, the
  bits a register update toggles.

Each twin of a library class subclasses it, so it takes the same
constructor arguments and reuses the library's validation; the state, the
structure the closed form summarises and the per-cycle behaviour are
added here.  A twin starts at reset; build a new one to start again.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core import clock_modulation, lfsr, load_circuit, wgc
from repro.rtl import components
from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE, CLOCK_TREE_FANOUT

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


class RegisterBank:
    """A bank of register words, each behind its own ICG, reset to zero."""

    def __init__(
        self, name: str, num_words: int, word_width: int, switching_registers: int = 0
    ) -> None:
        self.name = name
        self.switching_registers = switching_registers
        self.words = [Register(f"{name}/word{i}", width=word_width) for i in range(num_words)]
        self.clock_gates = [ClockGate(f"{name}/icg{i}") for i in range(num_words)]

    @property
    def total_registers(self) -> int:
        return sum(word.width for word in self.words)

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


class ClockTree:
    """A balanced clock buffer tree over ``num_sinks`` pins, built level by level.

    ``levels[0]`` lists the loads each leaf buffer drives: the sinks dealt
    out ``CLOCK_TREE_FANOUT`` at a time.  Every further level deals out
    the buffers of the level below the same way, until one root buffer
    drives the rest.
    """

    def __init__(self, num_sinks: int) -> None:
        self.num_sinks = num_sinks
        self.levels: List[List[int]] = []
        loads = num_sinks
        while not self.levels or len(self.levels[-1]) > 1:
            level = []
            while loads > 0:
                level.append(min(CLOCK_TREE_FANOUT, loads))
                loads -= level[-1]
            self.levels.append(level)
            loads = len(level)

    @property
    def buffer_count(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def step(self, running: bool) -> ActivityRecord:
        """Every buffer output and sink pin toggles twice while the tree runs."""
        if not running:
            return ZERO_ACTIVITY
        nodes = self.num_sinks + self.buffer_count
        return ActivityRecord(clock_toggles=CLOCK_EDGES_PER_CYCLE * nodes)


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


def stepped_generator(generator: lfsr.LFSR) -> LFSR:
    """The stateful twin of a library LFSR, at its seed."""
    return LFSR(width=generator.width, seed=generator.seed, taps=generator.taps, name=generator.name)


def stepped_sequence(generator: lfsr.LFSR, length: int) -> np.ndarray:
    """``length`` output bits of ``generator`` from its seed, one step each."""
    twin = stepped_generator(generator)
    bits = [twin.state & 1] + [twin.step()[0] for _ in range(length - 1)]
    return np.array(bits, dtype=np.int8)


class WatermarkGenerationCircuit(wgc.WatermarkGenerationCircuit):
    """A WGC whose LFSR holds state and steps.

    A library LFSR passed in (as the ``minimal``/``test_chip`` constructors
    do) is replaced by its stepping twin.  The idle generator's flip-flops
    are clock-gated off, so they never add activity.
    """

    def __init__(self, lfsr, *args, **kwargs) -> None:
        super().__init__(stepped_generator(lfsr), *args, **kwargs)
        self.control = CombinationalBlock(
            self.control.name, self.control.gate_count, self.control.activity_factor
        )
        self.wmark = self.lfsr.state & 1

    def step(self) -> Tuple[int, ActivityRecord]:
        """Advance the LFSR; add config clocks and control logic."""
        self.wmark, generator_activity = self.lfsr.step()
        config_activity = ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.always_clocked_registers
        )
        return self.wmark, generator_activity + config_activity + self.control.step(active=True)


def stepped_wgc(circuit: wgc.WatermarkGenerationCircuit) -> WatermarkGenerationCircuit:
    """The stateful twin of a library WGC, at reset."""
    return WatermarkGenerationCircuit(
        lfsr=circuit.lfsr,
        control_gates=circuit.control.gate_count,
        always_clocked_registers=circuit.always_clocked_registers,
        idle_registers=circuit.idle_registers,
        name=circuit.name,
    )


# -- power-pattern producers ----------------------------------------------------


class ClockModulatedBank(clock_modulation.ClockModulatedBank):
    """The redundant bank with stateful words, gates and ICG-level tree."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bank = RegisterBank(
            f"{self.name}/bank",
            num_words=self.num_words,
            word_width=self.word_width,
            switching_registers=self.switching_registers,
        )
        self.icg_tree = ClockTree(self.num_words)
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
        return (
            self.bank.step(enable)
            + self.icg_tree.step(running=True)
            + self.enable_logic.step(active=enable)
        )


class ClockModulatedIPBlock(clock_modulation.ClockModulatedIPBlock):
    """The reused IP block with its own clock tree."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.clock_tree = ClockTree(self.modulated_registers)

    def step(self, wmark: int) -> ActivityRecord:
        """The block's register and gate clocks, its tree and data while ``WMARK`` is high."""
        if not wmark:
            return ZERO_ACTIVITY
        register_clocks = CLOCK_EDGES_PER_CYCLE * self.modulated_registers
        gate_clocks = CLOCK_EDGES_PER_CYCLE * self.num_clock_gates
        data = int(round(self.modulated_registers * self.data_activity_factor))
        own = ActivityRecord(clock_toggles=register_clocks + gate_clocks, data_toggles=data)
        return own + self.clock_tree.step(running=True)


class LoadCircuit(load_circuit.LoadCircuit):
    """The baseline load with stateful shift-register words.

    The registers are dealt into ``word_width``-bit words; the last word
    holds the remainder.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.words: List[ShiftRegister] = []
        remaining = self.num_registers
        while remaining > 0:
            width = min(self.word_width, remaining)
            self.words.append(ShiftRegister(f"{self.name}/sr{len(self.words)}", width=width))
            remaining -= width

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
            word_width=producer.word_width,
            switching_registers=producer.switching_registers,
            name=producer.name,
        )
    if isinstance(producer, clock_modulation.ClockModulatedIPBlock):
        return ClockModulatedIPBlock(
            modulated_registers=producer.modulated_registers,
            data_activity_factor=producer.data_activity_factor,
            num_clock_gates=producer.num_clock_gates,
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
