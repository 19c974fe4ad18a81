"""Switching distance for the RTL substrate.

Clocks are never simulated edge by edge: components know that an *enabled*
clock toggles twice per cycle (rising and falling edge), which is the fact
the paper exploits (Section II).  :func:`hamming_distance` counts the bits
a register update toggles (the quantity that costs dynamic power).
"""

from __future__ import annotations

from typing import Optional


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
