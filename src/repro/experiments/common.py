"""Shared helpers of the experiment stages."""

from __future__ import annotations

from typing import Optional

from repro.core.architectures import (
    BaselineWatermark,
    ClockModulationWatermark,
    WatermarkArchitecture,
)
from repro.core.config import ArchitectureKind, WatermarkConfig


def build_watermark(config: Optional[WatermarkConfig] = None) -> WatermarkArchitecture:
    """Build the watermark architecture selected by ``config``."""
    config = config or WatermarkConfig()
    if config.architecture is ArchitectureKind.CLOCK_MODULATION:
        return ClockModulationWatermark.from_config(config)
    return BaselineWatermark.from_config(config)
