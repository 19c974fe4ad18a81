"""Sequential, clock-network and combinational components.

Components are structural: each carries its cell type, register count and
cell count for the netlist, area and leakage analysis.  The constants and
the clock-tree buffer count the closed-form activity of the watermark
circuits is built from live here too.

The clock-power model follows Section II of the paper: when a register's
clock is *enabled*, its internal clock buffer toggles twice per cycle
(rising and falling edge) regardless of whether the stored data changes;
when the clock is gated off, the clock pin does not toggle and no dynamic
power is consumed.  Data toggles are counted as Hamming distance between
the old and the new register contents.  The cycle-by-cycle stepping of
these rules lives in the test suite as the oracle the closed forms are
checked against.
"""

from __future__ import annotations

#: Clock-net transitions per cycle when the clock is propagated.
CLOCK_EDGES_PER_CYCLE = 2

#: Loads one clock-tree buffer drives (a conservative 65 nm CTS fanout).
CLOCK_TREE_FANOUT = 16


def clock_tree_buffers(num_sinks: int) -> int:
    """Buffers of a balanced clock tree over ``num_sinks`` clock pins.

    Each level drives the loads below it with ``ceil(loads / 16)`` buffers,
    up to a single root buffer.  While the tree runs, every buffer output
    and every sink pin toggles twice per cycle.
    """
    if num_sinks <= 0:
        raise ValueError("clock tree needs at least one sink")
    buffers = 0
    loads = num_sinks
    while True:
        loads = -(-loads // CLOCK_TREE_FANOUT)
        buffers += loads
        if loads == 1:
            return buffers


class Component:
    """Base class for all structural components.

    Parameters
    ----------
    name:
        Hierarchical instance name, unique within a netlist.
    cell_type:
        Cell class (``"dff"``, ``"icg"``, ``"comb"``); the
        removal-attack analysis tells sequential cells apart by it.
    """

    def __init__(self, name: str, cell_type: str) -> None:
        if not name:
            raise ValueError("component name must be non-empty")
        self.name = name
        self.cell_type = cell_type

    @property
    def register_count(self) -> int:
        """Number of storage bits implemented by this component."""
        return 0

    @property
    def cell_count(self) -> int:
        """Number of library cells this component maps to."""
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class Register(Component):
    """A ``width``-bit register word of flip-flops sharing one clock branch."""

    def __init__(self, name: str, width: int = 1, reset_value: int = 0) -> None:
        super().__init__(name, cell_type="dff")
        if width <= 0:
            raise ValueError("register width must be positive")
        self.width = width
        self.reset_value = reset_value & ((1 << width) - 1)

    @property
    def register_count(self) -> int:
        return self.width

    @property
    def cell_count(self) -> int:
        return self.width


class ShiftRegister(Register):
    """A circular shift register used as the baseline watermark *load circuit*.

    The state-of-the-art power watermark (Fig. 1(a) of the paper) drives an
    ``N``-bit shift register initialised with the alternating ``1010...``
    pattern.  While the shift-enable is high the register rotates left by
    one position every cycle, maximising dynamic power; while it is low the
    register's clock is gated and it is idle.
    """

    def __init__(self, name: str, width: int = 8) -> None:
        pattern = 0
        for i in range(width):
            if i % 2 == 1:
                pattern |= 1 << i
        super().__init__(name, width=width, reset_value=pattern)


class ClockGate(Component):
    """An integrated clock-gating cell (ICG).

    The ICG propagates the input clock to its output branch when the enable
    is high.  The cell's own activity -- its gated-clock root toggling twice
    per enabled cycle, and its enable latch toggling whenever the enable
    changes -- is charged to the block that owns the gate.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name, cell_type="icg")


class CombinationalBlock(Component):
    """A lump of combinational logic with a signal-count and activity factor.

    Used for glue logic (enable gating, LFSR feedback, decoders) whose exact
    gate-level structure is irrelevant to the power signature but whose
    transition count is not.
    """

    def __init__(self, name: str, gate_count: int = 1, activity_factor: float = 0.2) -> None:
        super().__init__(name, cell_type="comb")
        if gate_count <= 0:
            raise ValueError("gate count must be positive")
        if not 0.0 <= activity_factor <= 1.0:
            raise ValueError("activity factor must be within [0, 1]")
        self.gate_count = gate_count
        self.activity_factor = activity_factor

    @property
    def cell_count(self) -> int:
        return self.gate_count

    @property
    def active_toggles(self) -> int:
        """Transitions during one active cycle (the activity-factor estimate)."""
        return int(round(self.gate_count * self.activity_factor))
