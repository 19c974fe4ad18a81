"""Shared helpers of the experiment stages."""

from __future__ import annotations

from repro.core.architectures import ClockModulationWatermark
from repro.core.config import WatermarkConfig


def build_watermark(config: WatermarkConfig) -> ClockModulationWatermark:
    """Build the chips' clock-modulation watermark that ``config`` describes."""
    return ClockModulationWatermark.from_config(config)
