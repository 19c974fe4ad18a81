"""The Cortex-M0's activity window, shipped as package data.

Both chips run the Dhrystone-like benchmark on the same Cortex-M0-class
core, from reset, out of the same SRAM.  The core's per-cycle switching
activity is therefore a pure function of how many cycles are taken, and a
shorter window is an exact prefix of a longer one.  ``m0_window.npz``
holds the first :data:`M0_WINDOW_CYCLES` cycles: the clock, data and
combinational toggles of the core plus its bus and SRAM.  The
instruction-set simulator that produced it, and the test that regenerates
it and compares it with the shipped arrays, live in the test suite
(``tests/iss_oracle.py``, ``tests/cpu_programs.py:write_m0_window``).

The file is read once per process; :func:`m0_window` serves read-only
prefixes of it.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Dict

import numpy as np

from repro.rtl.activity import ActivityTrace

#: Length of the shipped window, the longest a chip may ask for.
M0_WINDOW_CYCLES = 16_384

_WINDOW_FILE = Path(__file__).with_name("m0_window.npz")
_FIELDS = ("clock_toggles", "data_toggles", "comb_toggles")


@functools.lru_cache(maxsize=None)
def _load_window() -> Dict[str, np.ndarray]:
    """The stored window's three arrays as read-only int64."""
    with np.load(_WINDOW_FILE) as stored:
        arrays = {field: stored[field].astype(np.int64) for field in _FIELDS}
    for array in arrays.values():
        array.flags.writeable = False
    return arrays


def m0_window(num_cycles: int) -> ActivityTrace:
    """The core's activity over its first ``num_cycles`` cycles from reset."""
    if not 0 < num_cycles <= M0_WINDOW_CYCLES:
        raise ValueError(
            f"the M0 window holds 1 to {M0_WINDOW_CYCLES} cycles, not {num_cycles}"
        )
    arrays = _load_window()
    return ActivityTrace("cpu0", **{field: arrays[field][:num_cycles] for field in _FIELDS})


def clear_m0_window_cache() -> None:
    """Drop the loaded window (and reset its counters), as a fresh process starts."""
    _load_window.cache_clear()


def m0_window_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the loaded window."""
    info = _load_window.cache_info()
    return {"hits": info.hits, "misses": info.misses}
