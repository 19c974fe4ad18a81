"""Per-cycle switching-activity traces.

Dynamic power in CMOS is proportional to the number of node transitions per
cycle.  The activity model therefore reduces every component to three
per-cycle counters:

``clock_toggles``
    Transitions on clock nets (clock buffers, register clock pins).  An
    enabled clock toggles twice per cycle; a gated clock does not toggle.
``data_toggles``
    Register bit flips (Hamming distance between old and new contents).
``comb_toggles``
    Combinational/glue-logic transitions (enable logic, XOR feedback, etc.).

The power estimator (:mod:`repro.power.estimator`) converts these counters
to energy with the flip-flop toggle energies calibrated to the paper's
per-register figures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ActivityTrace:
    """Activity of one component (or one group) across many cycles.

    Stored as three parallel integer arrays to keep long traces (hundreds of
    thousands of cycles) cheap and to allow vectorised power computation.
    """

    def __init__(
        self,
        name: str,
        clock_toggles: Optional[np.ndarray] = None,
        data_toggles: Optional[np.ndarray] = None,
        comb_toggles: Optional[np.ndarray] = None,
    ) -> None:
        self.name = name
        self.clock_toggles = np.asarray(
            clock_toggles if clock_toggles is not None else [], dtype=np.int64
        )
        self.data_toggles = np.asarray(
            data_toggles if data_toggles is not None else [], dtype=np.int64
        )
        self.comb_toggles = np.asarray(
            comb_toggles if comb_toggles is not None else [], dtype=np.int64
        )
        self._validate()

    def _validate(self) -> None:
        lengths = {
            len(self.clock_toggles),
            len(self.data_toggles),
            len(self.comb_toggles),
        }
        if len(lengths) != 1:
            raise ValueError(
                f"activity arrays of trace {self.name!r} have mismatched lengths: "
                f"{sorted(lengths)}"
            )

    def __len__(self) -> int:
        return len(self.clock_toggles)

    @property
    def total_toggles(self) -> np.ndarray:
        """Per-cycle total transition count."""
        return self.clock_toggles + self.data_toggles + self.comb_toggles

    def tile(self, num_cycles: int) -> "ActivityTrace":
        """Repeat the trace until it covers ``num_cycles`` cycles.

        Used to extend a representative workload window (e.g. one iteration
        of the Dhrystone-like loop) to the full acquisition length.
        """
        if len(self) == 0:
            raise ValueError("cannot tile an empty trace")
        reps = int(np.ceil(num_cycles / len(self)))
        return ActivityTrace(
            name=self.name,
            clock_toggles=np.tile(self.clock_toggles, reps)[:num_cycles],
            data_toggles=np.tile(self.data_toggles, reps)[:num_cycles],
            comb_toggles=np.tile(self.comb_toggles, reps)[:num_cycles],
        )
