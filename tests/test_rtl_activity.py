"""Unit tests for repro.rtl.activity."""

import numpy as np
import pytest

from rtl_oracle import ActivityRecord, records_of, trace_from_records
from repro.rtl.activity import ActivityTrace


class TestActivityRecord:
    def test_addition(self):
        total = ActivityRecord(1, 2, 3) + ActivityRecord(4, 5, 6)
        assert total == ActivityRecord(5, 7, 9)

    def test_total_toggles(self):
        assert ActivityRecord(1, 2, 3).total_toggles == 6

class TestActivityTrace:
    def test_from_records_roundtrip(self):
        records = [ActivityRecord(2, 1, 0), ActivityRecord(0, 0, 0), ActivityRecord(4, 2, 1)]
        trace = trace_from_records("t", records)
        assert len(trace) == 3
        assert records_of(trace) == records

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ActivityTrace("t", clock_toggles=np.array([1, 2]), data_toggles=np.array([1]), comb_toggles=np.array([1, 2]))

    def test_total_toggles_vector(self):
        trace = trace_from_records("t", [ActivityRecord(1, 1, 1), ActivityRecord(2, 0, 0)])
        assert list(trace.total_toggles) == [3, 2]

    def test_tile_extends_to_length(self):
        trace = trace_from_records("t", [ActivityRecord(1, 0, 0), ActivityRecord(2, 0, 0)])
        tiled = trace.tile(5)
        assert len(tiled) == 5
        assert list(tiled.clock_toggles) == [1, 2, 1, 2, 1]

    def test_tile_empty_rejected(self):
        with pytest.raises(ValueError):
            ActivityTrace("t").tile(4)
