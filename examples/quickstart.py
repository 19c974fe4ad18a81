#!/usr/bin/env python3
"""Quickstart: embed a clock-modulation watermark and detect it with CPA.

Walks the full pipeline of the paper in a few dozen lines:

1. build the proposed watermark (12-bit LFSR WGC modulating the clock gates
   of a 1,024-register clock-gated bank, as on the test chips);
2. embed it in the chip I model (Cortex-M0-class SoC running a
   Dhrystone-like workload);
3. measure the chip's supply power through the modelled bench setup
   (270 mOhm shunt, differential probe, 500 MS/s oscilloscope, 50 samples
   averaged per 10 MHz clock cycle);
4. run Correlation Power Analysis over all 4,095 rotations of the
   watermark sequence and report the detection decision.

Run:  python examples/quickstart.py [--cycles 300000]
"""

from __future__ import annotations

import argparse

from repro import (
    AcquisitionCampaign,
    ClockModulationWatermark,
    CPADetector,
    ExperimentConfig,
)
from repro.soc import build_chip_one


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cycles",
        type=int,
        default=300_000,
        help="number of clock cycles to acquire (the paper uses 300,000)",
    )
    parser.add_argument("--seed", type=int, default=42, help="noise seed for reproducibility")
    args = parser.parse_args()

    config = ExperimentConfig()

    # 1. The proposed watermark architecture (Fig. 1(b) / Fig. 4(a)).
    watermark = ClockModulationWatermark.from_config(config.watermark)
    print(f"watermark sequence period: {watermark.sequence_period} cycles")
    registers = watermark.wgc.register_count + watermark.modulated_block.register_count
    print(f"registers added by the watermark: {registers}")

    # 2. Chip I: Cortex-M0-class SoC running the Dhrystone-like workload.
    chip = build_chip_one(watermark=watermark)
    power = chip.total_power(args.cycles, watermark_active=True, seed=args.seed,
                             watermark_phase_offset=1234)
    print(f"simulated {args.cycles} cycles; mean chip power = {power.average_power_w * 1e3:.2f} mW")

    # 3. The measurement chain produces the per-cycle power vector Y.
    campaign = AcquisitionCampaign(config.measurement)
    measured = campaign.measure(power, seed=args.seed)
    print(f"measured trace: mean = {measured.values.mean() * 1e3:.2f} mW, "
          f"per-cycle sigma = {measured.values.std() * 1e3:.2f} mW")

    # 4. CPA over every rotation of the watermark sequence.
    detector = CPADetector(config.detection)
    result = detector.detect(chip.watermark_sequence(), measured.values)
    print()
    print(result.summary())
    if result.detected:
        print("=> the embedded watermark was detected from the supply current alone.")
    else:
        print("=> no watermark detected (try more cycles).")


if __name__ == "__main__":
    main()
