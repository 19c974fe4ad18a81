"""Synthetic standard-cell library.

The library stores, per cell class, the switching energy of the relevant
node transitions, the leakage power and the cell area.  Values are
calibrated to the only two numbers the paper publishes for its TSMC 65 nm
low-leakage flow (Section V):

* average dynamic power of a single register's clock buffer: **1.476 uW**
* average dynamic power of data switching in a single register: **1.126 uW**

both at 10 MHz and 1.2 V.  Converted to per-transition energies:

* a register's clock pin toggles twice per cycle, so each clock transition
  costs ``1.476 uW / 10 MHz / 2 = 73.8 fJ``;
* a register's content flips at most once per cycle in the load circuit, so
  each data toggle costs ``1.126 uW / 10 MHz = 112.6 fJ``.

Leakage values are chosen so that the 1,024-register + 32-ICG redundant bank
leaks ~0.40 uW, matching the static column of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

#: Reference conditions at which the library energies are characterised.
REFERENCE_VOLTAGE_V = 1.2
REFERENCE_FREQUENCY_HZ = 10e6

#: Paper-published per-register dynamic powers at the reference conditions.
PAPER_CLOCK_BUFFER_POWER_W = 1.476e-6
PAPER_DATA_SWITCHING_POWER_W = 1.126e-6

#: Derived per-transition energies (joule per toggle).
CLOCK_TOGGLE_ENERGY_J = PAPER_CLOCK_BUFFER_POWER_W / REFERENCE_FREQUENCY_HZ / 2.0
DATA_TOGGLE_ENERGY_J = PAPER_DATA_SWITCHING_POWER_W / REFERENCE_FREQUENCY_HZ


@dataclass(frozen=True)
class CellCharacteristics:
    """Electrical characteristics of one cell class."""

    name: str
    clock_toggle_energy_j: float
    data_toggle_energy_j: float
    comb_toggle_energy_j: float
    leakage_w: float
    area_um2: float

    def __post_init__(self) -> None:
        for attr in (
            "clock_toggle_energy_j",
            "data_toggle_energy_j",
            "comb_toggle_energy_j",
            "leakage_w",
            "area_um2",
        ):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")


@dataclass(frozen=True)
class CellLibrary:
    """A named collection of cell classes plus global reference conditions."""

    name: str
    voltage_v: float
    cells: Dict[str, CellCharacteristics] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.voltage_v <= 0:
            raise ValueError("library voltage must be positive")
        if not self.cells:
            raise ValueError("library must contain at least one cell class")

    def cell(self, cell_type: str) -> CellCharacteristics:
        """Look up a cell class, falling back to the generic ``comb`` class."""
        if cell_type in self.cells:
            return self.cells[cell_type]
        if "comb" in self.cells:
            return self.cells["comb"]
        raise KeyError(f"cell type {cell_type!r} not in library {self.name!r}")

    def cell_types(self) -> Iterable[str]:
        """Names of the cell classes in the library."""
        return self.cells.keys()

def _build_tsmc65lp_like() -> CellLibrary:
    """Build the default 65 nm low-leakage-class library."""
    cells = {
        # Flip-flop: clock-pin energy and data (Q/internal) energy match the
        # paper's per-register figures; area is typical for a 65 nm DFF.
        "dff": CellCharacteristics(
            name="dff",
            clock_toggle_energy_j=CLOCK_TOGGLE_ENERGY_J,
            data_toggle_energy_j=DATA_TOGGLE_ENERGY_J,
            comb_toggle_energy_j=DATA_TOGGLE_ENERGY_J * 0.5,
            leakage_w=0.38e-9,
            area_um2=5.2,
        ),
        # Integrated clock gate: its own gated-clock root node costs about a
        # buffer transition; leakage slightly higher than a DFF latch.
        "icg": CellCharacteristics(
            name="icg",
            clock_toggle_energy_j=CLOCK_TOGGLE_ENERGY_J,
            data_toggle_energy_j=DATA_TOGGLE_ENERGY_J * 0.5,
            comb_toggle_energy_j=DATA_TOGGLE_ENERGY_J * 0.3,
            leakage_w=0.45e-9,
            area_um2=7.0,
        ),
        # Explicit clock-tree buffer (CTS-inserted).
        "clk_buf": CellCharacteristics(
            name="clk_buf",
            clock_toggle_energy_j=CLOCK_TOGGLE_ENERGY_J,
            data_toggle_energy_j=0.0,
            comb_toggle_energy_j=0.0,
            leakage_w=0.25e-9,
            area_um2=2.6,
        ),
        # Generic combinational gate (NAND2-equivalent).
        "comb": CellCharacteristics(
            name="comb",
            clock_toggle_energy_j=0.0,
            data_toggle_energy_j=0.0,
            comb_toggle_energy_j=DATA_TOGGLE_ENERGY_J * 0.35,
            leakage_w=0.15e-9,
            area_um2=1.44,
        ),
        # Register bank composite (1 DFF-equivalent per bit plus ICGs is
        # handled structurally, but a bank seen as a single instance uses
        # DFF-class energies).
        "register_bank": CellCharacteristics(
            name="register_bank",
            clock_toggle_energy_j=CLOCK_TOGGLE_ENERGY_J,
            data_toggle_energy_j=DATA_TOGGLE_ENERGY_J,
            comb_toggle_energy_j=DATA_TOGGLE_ENERGY_J * 0.3,
            leakage_w=0.38e-9,
            area_um2=5.2,
        ),
        # SRAM bit-cell-array macro (per accessed word activity accounted as
        # data toggles by the SoC model).
        "sram": CellCharacteristics(
            name="sram",
            clock_toggle_energy_j=CLOCK_TOGGLE_ENERGY_J * 0.6,
            data_toggle_energy_j=DATA_TOGGLE_ENERGY_J * 1.4,
            comb_toggle_energy_j=DATA_TOGGLE_ENERGY_J * 0.4,
            leakage_w=0.05e-9,
            area_um2=0.52,
        ),
    }
    return CellLibrary(name="tsmc65lp-like", voltage_v=REFERENCE_VOLTAGE_V, cells=cells)


#: Default library used throughout the reproduction.
TSMC65LP_LIKE = _build_tsmc65lp_like()
