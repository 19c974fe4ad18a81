"""Clocks and switching distance for the RTL substrate.

A :class:`Clock` describes the periodic signal that drives sequential
elements; the clock itself is never simulated edge by edge -- components
know that an *enabled* clock toggles twice per cycle (rising and falling
edge), which is the fact the paper exploits (Section II).
:func:`hamming_distance` counts the bits a register update toggles (the
quantity that costs dynamic power).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Clock:
    """Description of a clock domain.

    Attributes
    ----------
    name:
        Clock name, e.g. ``"clk_sys"``.
    frequency_hz:
        Nominal frequency.  The paper's test chips run at 10 MHz.
    duty_cycle:
        High-time fraction, kept for completeness (power models assume 0.5).
    """

    name: str
    frequency_hz: float
    duty_cycle: float = 0.5

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError(f"clock frequency must be positive, got {self.frequency_hz}")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError(f"duty cycle must be in (0, 1), got {self.duty_cycle}")

    @property
    def period_s(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.frequency_hz

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
