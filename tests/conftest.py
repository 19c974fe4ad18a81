"""Shared fixtures for the test suite.

Long experiments (Fig. 5/6 scale) are exercised through reduced-length
configurations so the whole suite stays fast; the full-length runs are the
job of the benchmark harness.
"""

from __future__ import annotations

import pytest

from repro.core.config import DetectionConfig, WatermarkConfig
from repro.power.estimator import PowerEstimator


@pytest.fixture(scope="session")
def nominal_estimator() -> PowerEstimator:
    """Power estimator at the paper's operating point (10 MHz, 1.2 V)."""
    return PowerEstimator()


@pytest.fixture(scope="session")
def small_watermark_config() -> WatermarkConfig:
    """A small watermark (short sequence, small bank) for fast unit tests."""
    return WatermarkConfig(lfsr_width=6, lfsr_seed=0x15, num_words=4, word_width=8, load_registers=32)
