"""Stage graphs: how a :class:`ScenarioSpec` kind becomes executable stages.

Each scenario kind maps to an ordered list of named stages (chip →
acquisition → synthesis → detection, or a subset).  A stage is a plain
function mutating a :class:`StageContext`; the final stage populates the
context's ``payload`` (the experiment's result dataclass from
:mod:`repro.experiments`), ``report`` (its text rendering), plus the typed
``scalars``/``arrays`` that end up in the
:class:`repro.pipeline.artifacts.ScenarioResult`.

Every random draw of a stage comes from :mod:`repro.core.seeds`: a
composite spec's sub-specs (Fig. 5 panels, Fig. 6 chips) and Fig. 6
repetitions get child seeds named by chip, watermark state and repetition
index, so no two cells or repetitions share a stream.

Reports and arrays are pinned against captured goldens by
``tests/test_pipeline_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

from repro.analysis.masking import run_noise_masking_study, run_starvation_study
from repro.analysis.overhead import TABLE_II_LOAD_POWERS_W, WGC_REGISTERS
from repro.core.seeds import child_seed
from repro.core.spec import ScenarioSpec
from repro.detection.campaign import run_detection_probability_campaign
from repro.detection.cpa import CPADetector
from repro.detection.batch import BatchCPADetector, PhaseFold
from repro.detection.statistics import RepetitionStatistics
from repro.experiments.common import build_watermark
from repro.experiments.fig2 import _compute_fig2
from repro.experiments.fig3 import Fig3Result
from repro.experiments.fig5 import _PAPER_PHASE_FRACTION, Fig5Panel, Fig5Result, _panel_key
from repro.experiments.fig6 import Fig6ChipResult, Fig6Result
from repro.experiments.robustness_exp import _compute_robustness
from repro.experiments.table1 import TABLE_I_SWITCHING_REGISTERS, _compute_table1
from repro.experiments.table2 import _compute_table2
from repro.measurement.acquisition import AcquisitionCampaign


@dataclass
class StageContext:
    """Mutable state threaded through one scenario's stages."""

    spec: ScenarioSpec
    runner: Any
    data: Dict[str, Any] = field(default_factory=dict)

    def finish(
        self,
        payload: Any,
        report: str,
        scalars: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> None:
        """Record the scenario's outputs (called by the final stage)."""
        self.data["payload"] = payload
        self.data["report"] = report
        self.data["scalars"] = scalars
        self.data["arrays"] = arrays


@dataclass(frozen=True)
class PipelineStage:
    """One named step of a resolved pipeline."""

    name: str
    run: Callable[[StageContext], None]


StageBuilder = Callable[[ScenarioSpec], List[PipelineStage]]

_STAGE_BUILDERS: Dict[str, StageBuilder] = {}


def stage_builder(kind: str) -> Callable[[StageBuilder], StageBuilder]:
    """Register the stage builder for one scenario kind."""

    def decorate(builder: StageBuilder) -> StageBuilder:
        _STAGE_BUILDERS[kind] = builder
        return builder

    return decorate


def stages_for(spec: ScenarioSpec) -> List[PipelineStage]:
    """Resolve a spec into its ordered stages."""
    try:
        builder = _STAGE_BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(f"no pipeline stages registered for kind {spec.kind!r}") from None
    return builder(spec)


# -- shared stages ---------------------------------------------------------------


def _chip_stage(ctx: StageContext) -> None:
    """Resolve the spec's chip through the runner's shared chip provider."""
    ctx.data["chip"] = ctx.runner.chip_for(ctx.spec)


# -- Fig. 2 ----------------------------------------------------------------------


@stage_builder("fig2")
def _fig2_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def simulate(ctx: StageContext) -> None:
        result = _compute_fig2(
            num_cycles=ctx.spec.param("num_cycles", 64),
            register_count=ctx.spec.param("register_count", 8),
            lfsr_width=ctx.spec.param("lfsr_width", 4),
            seed=ctx.spec.seed,
        )
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "baseline_toggles_per_active_register": result.baseline_toggles_per_active_register,
                "clock_modulation_toggles_per_active_register": result.clock_modulation_toggles_per_active_register,
                "idle_when_wmark_low": result.idle_when_wmark_low,
            },
            arrays={
                "wmark": result.wmark,
                "baseline_toggles": result.baseline_toggles,
                "clock_modulation_toggles": result.clock_modulation_toggles,
            },
        )

    return [PipelineStage("simulate", simulate)]


# -- Fig. 3 ----------------------------------------------------------------------


@stage_builder("fig3")
def _fig3_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def power(ctx: StageContext) -> None:
        chip = ctx.data["chip"]
        num_cycles = ctx.spec.param("num_cycles", 4_096)
        system = chip.background_power(num_cycles, ctx.spec.seed)
        watermark = chip.watermark_power(num_cycles)
        total = system.add(watermark)
        total.name = f"{chip.name}/total"
        ctx.data["system"] = system
        ctx.data["watermark"] = watermark
        ctx.data["total"] = total

    def acquisition(ctx: StageContext) -> None:
        campaign = AcquisitionCampaign.from_spec(ctx.spec)
        result = Fig3Result(
            system_power=ctx.data["system"],
            watermark_power=ctx.data["watermark"],
            total_power=ctx.data["total"],
            measured_total_power=campaign.measure(ctx.data["total"], ctx.spec.seed),
        )
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "watermark_amplitude_w": result.watermark_amplitude_w,
                "system_mean_power_w": result.system_mean_power_w,
                "relative_amplitude": result.relative_amplitude,
                "deeply_embedded": result.deeply_embedded,
            },
            arrays={
                "system_power_w": result.system_power.power_w,
                "watermark_power_w": result.watermark_power.power_w,
                "total_power_w": result.total_power.power_w,
                "measured_total_power": result.measured_total_power,
            },
        )

    return [
        PipelineStage("chip", _chip_stage),
        PipelineStage("power", power),
        PipelineStage("acquisition", acquisition),
    ]


# -- Fig. 5 ----------------------------------------------------------------------


def _phase_offset(spec: ScenarioSpec) -> int:
    """Where the paper's peak landed on the spec's chip, in cycles of its period."""
    return int(_PAPER_PHASE_FRACTION[spec.chip] * spec.watermark.sequence_period)


def _measure_folded(ctx: StageContext, seeds: List[int]) -> PhaseFold:
    """The spec's chip power, measured once per seed as the detector reads it.

    Each acquisition is drawn as its phase fold and energy, which is all
    the detector reads of a trace: no per-cycle row exists.
    """
    chip = ctx.data["chip"]
    spec = ctx.spec
    power = chip.total_power(
        spec.measurement.num_cycles,
        watermark_active=spec.watermark_active,
        seed=spec.seed,
        watermark_phase_offset=_phase_offset(spec),
    )
    return AcquisitionCampaign.from_spec(spec).measure_folded(
        power, seeds=seeds, period=len(chip.watermark_sequence())
    )


@stage_builder("fig5_panel")
def _fig5_panel_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def acquisition(ctx: StageContext) -> None:
        ctx.data["fold"] = _measure_folded(ctx, [ctx.spec.seed])

    def detection(ctx: StageContext) -> None:
        sequence = ctx.data["chip"].watermark_sequence()
        cpa = CPADetector(ctx.spec.detection).detect(sequence, ctx.data["fold"])
        panel = Fig5Panel(
            chip_name=ctx.spec.chip,
            watermark_active=ctx.spec.watermark_active,
            cpa=cpa,
        )
        ctx.finish(
            payload=panel,
            report=f"[{panel.label}] {cpa.summary()}",
            scalars={
                "detected": bool(cpa.detected),
                "peak_correlation": float(cpa.peak_correlation),
                "peak_rotation": int(cpa.peak_rotation),
                "z_score": float(cpa.z_score),
                "noise_floor_std": float(cpa.noise_floor_std),
            },
            arrays={"correlations": cpa.correlations},
        )

    return [
        PipelineStage("chip", _chip_stage),
        PipelineStage("acquisition", acquisition),
        PipelineStage("detection", detection),
    ]


def fig5_panel_spec(spec: ScenarioSpec, chip_name: str, active: bool) -> ScenarioSpec:
    """Derive one Fig. 5 panel spec from the composite Fig. 5 spec.

    The panel's seed is the composite seed's child named by chip and
    watermark state.
    """
    return spec.with_overrides(
        kind="fig5_panel",
        name=f"{spec.name or 'fig5'}/{chip_name}-{'active' if active else 'inactive'}",
        chip=chip_name,
        watermark_active=active,
        seed=child_seed(spec.seed, chip_name, "active" if active else "inactive"),
    )


@stage_builder("fig5")
def _fig5_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def panels(ctx: StageContext) -> None:
        result = Fig5Result(num_cycles=ctx.spec.measurement.num_cycles)
        arrays: Dict[str, np.ndarray] = {}
        for chip_name in ("chip1", "chip2"):
            for active in (True, False):
                sub = ctx.runner.run(fig5_panel_spec(ctx.spec, chip_name, active))
                key = _panel_key(chip_name, active)
                result.panels[key] = sub.payload
                arrays[f"{key}/correlations"] = sub.arrays["correlations"]
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "all_active_panels_detected": result.all_active_panels_detected,
                "no_inactive_panel_detected": result.no_inactive_panel_detected,
                **{
                    f"{key}/peak_correlation": float(panel.cpa.peak_correlation)
                    for key, panel in sorted(result.panels.items())
                },
            },
            arrays=arrays,
        )

    return [PipelineStage("panels", panels)]


# -- Fig. 6 ----------------------------------------------------------------------

@stage_builder("fig6_chip")
def _fig6_chip_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def campaign_stage(ctx: StageContext) -> None:
        spec = ctx.spec
        folds = _measure_folded(
            ctx, [child_seed(spec.seed, "repetition", r) for r in range(spec.repetitions)]
        )
        sequence = ctx.data["chip"].watermark_sequence()
        batch = BatchCPADetector(spec.detection).detect_many(sequence, folds)
        ctx.data["correlations"] = batch.correlations
        ctx.data["detections"] = batch.detected

    def statistics(ctx: StageContext) -> None:
        stats = RepetitionStatistics.from_correlation_runs(
            ctx.spec.chip, ctx.data["correlations"], detected_flags=ctx.data["detections"]
        )
        result = Fig6ChipResult(
            chip_name=ctx.spec.chip,
            statistics=stats,
            peak_box=stats.peak_box(),
            off_peak_box=stats.off_peak_box(),
        )
        peak = result.peak_box
        ctx.finish(
            payload=result,
            report=(
                f"[{result.chip_name}] detection rate = {result.detection_rate * 100:.0f}%, "
                f"peak rotation {stats.peak_rotation}, median rho = {peak.median:.4f}"
            ),
            scalars={
                "detection_rate": result.detection_rate,
                "peak_separated": result.peak_separated,
                "peak_rotation": int(stats.peak_rotation),
                "peak_median_rho": float(peak.median),
            },
            arrays={
                "correlations": ctx.data["correlations"],
                "detected": ctx.data["detections"],
            },
        )

    return [
        PipelineStage("chip", _chip_stage),
        PipelineStage("campaign", campaign_stage),
        PipelineStage("statistics", statistics),
    ]


def fig6_chip_spec(spec: ScenarioSpec, chip_name: str) -> ScenarioSpec:
    """Derive one chip's Fig. 6 campaign spec from the composite spec.

    The campaign's seed is the composite seed's child named by chip.
    """
    return spec.with_overrides(
        kind="fig6_chip",
        name=f"{spec.name or 'fig6'}/{chip_name}",
        chip=chip_name,
        seed=child_seed(spec.seed, chip_name),
    )


@stage_builder("fig6")
def _fig6_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def chips(ctx: StageContext) -> None:
        result = Fig6Result(repetitions=ctx.spec.repetitions)
        arrays: Dict[str, np.ndarray] = {}
        for chip_name in ("chip1", "chip2"):
            sub = ctx.runner.run(fig6_chip_spec(ctx.spec, chip_name))
            result.chips[chip_name] = sub.payload
            arrays[f"{chip_name}/correlations"] = sub.arrays["correlations"]
            arrays[f"{chip_name}/detected"] = sub.arrays["detected"]
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "all_repetitions_detected": result.all_repetitions_detected,
                **{
                    f"{name}/detection_rate": chip_result.detection_rate
                    for name, chip_result in sorted(result.chips.items())
                },
            },
            arrays=arrays,
        )

    return [PipelineStage("chips", chips)]


# -- Tables ----------------------------------------------------------------------


@stage_builder("table1")
def _table1_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def estimate(ctx: StageContext) -> None:
        counts = ctx.spec.param(
            "switching_register_counts", list(TABLE_I_SWITCHING_REGISTERS)
        )
        result = _compute_table1(tuple(counts), ctx.spec.watermark)
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "wgc_dynamic_w": result.wgc_dynamic_w,
                "dynamic_power_monotonic": result.dynamic_power_monotonic(),
            },
            arrays={
                "switching_registers": np.array(
                    [row.switching_registers for row in result.rows], dtype=np.int64
                ),
                "dynamic_w": np.array([row.dynamic_w for row in result.rows]),
                "static_w": np.array([row.static_w for row in result.rows]),
                "share_of_watermark_dynamic": np.array(
                    [row.share_of_watermark_dynamic for row in result.rows]
                ),
            },
        )

    return [PipelineStage("estimate", estimate)]


@stage_builder("table2")
def _table2_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def estimate(ctx: StageContext) -> None:
        load_powers = ctx.spec.param("load_powers_w", list(TABLE_II_LOAD_POWERS_W))
        result = _compute_table2(
            load_powers_w=tuple(load_powers),
            wgc_registers=ctx.spec.param("wgc_registers", WGC_REGISTERS),
        )
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "headline_reduction": result.headline_reduction,
                "per_register_clock_power_w": result.per_register_clock_power_w,
                "per_register_data_power_w": result.per_register_data_power_w,
                "reduction_monotonic": result.reduction_monotonic(),
            },
            arrays={
                "load_power_w": np.array([row.load_power_w for row in result.table]),
                "load_registers": np.array(
                    [row.load_registers for row in result.table], dtype=np.int64
                ),
                "overhead_reduction": np.array(
                    [row.overhead_reduction for row in result.table]
                ),
            },
        )

    return [PipelineStage("estimate", estimate)]


# -- Robustness ------------------------------------------------------------------


@stage_builder("robustness")
def _robustness_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def attack(ctx: StageContext) -> None:
        result = _compute_robustness(
            config=ctx.spec.watermark,
            modulated_gates=ctx.spec.param("modulated_gates", 4),
        )
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "baseline_removed_by_blind_attack": result.baseline_removed_by_blind_attack,
                "baseline_removal_harmless": result.baseline_removal_harmless,
                "clock_modulation_survives_blind_attack": result.clock_modulation_survives_blind_attack,
                "clock_modulation_removal_breaks_system": result.clock_modulation_removal_breaks_system,
                "improved_robustness_demonstrated": result.improved_robustness_demonstrated,
            },
            arrays={},
        )

    return [PipelineStage("attack", attack)]


# -- Campaign-style scenarios (beyond the paper's figures) -----------------------


@stage_builder("detection_probability")
def _detection_probability_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def campaign_stage(ctx: StageContext) -> None:
        spec = ctx.spec
        sequence = build_watermark(spec.watermark).sequence()
        curve = run_detection_probability_campaign(
            sequence,
            watermark_amplitude_w=spec.param("watermark_amplitude_w", 1.5e-3),
            noise_sigma_w=spec.param("noise_sigma_w", 25e-3),
            cycle_counts=tuple(
                spec.param("cycle_counts", [5_000, 20_000, 80_000, 160_000])
            ),
            trials_per_point=spec.param("trials_per_point", 20),
            detection_config=spec.detection,
            base_power_w=spec.param("base_power_w", 5e-3),
            seed=spec.seed,
        )
        points = sorted(curve.points, key=lambda p: p.num_cycles)
        ctx.finish(
            payload=curve,
            report=curve.to_text(),
            scalars={
                "expected_rho": curve.expected_rho,
                "analytical_required_cycles": curve.analytical_required_cycles,
                "empirical_required_cycles": curve.empirical_required_cycles(),
            },
            arrays={
                "cycles": np.array([p.num_cycles for p in points], dtype=np.int64),
                "detection_probability": np.array(
                    [p.detection_probability for p in points]
                ),
                "mean_peak_correlation": np.array(
                    [p.mean_peak_correlation for p in points]
                ),
                "mean_z_score": np.array([p.mean_z_score for p in points]),
            },
        )

    return [PipelineStage("campaign", campaign_stage)]


def _masking_stages(spec: ScenarioSpec, starvation: bool) -> List[PipelineStage]:
    def sweep(ctx: StageContext) -> None:
        spec = ctx.spec
        sequence = build_watermark(spec.watermark).sequence()
        common = dict(
            watermark_amplitude_w=spec.param("watermark_amplitude_w", 1.5e-3),
            base_noise_sigma_w=spec.param("base_noise_sigma_w", 43e-3),
            num_cycles=spec.measurement.num_cycles,
            detection_config=spec.detection,
            seed=spec.seed,
            trials_per_point=spec.param("trials_per_point", 1),
        )
        if starvation:
            study = run_starvation_study(
                sequence,
                enable_duties=tuple(
                    spec.param("enable_duties", [1.0, 0.5, 0.25, 0.1, 0.02])
                ),
                **common,
            )
        else:
            study = run_noise_masking_study(
                sequence,
                masking_noise_levels_w=tuple(
                    spec.param(
                        "masking_noise_levels_w", [0.0, 50e-3, 100e-3, 200e-3, 400e-3]
                    )
                ),
                **common,
            )
        defeated = study.detection_defeated_at()
        ctx.finish(
            payload=study,
            report=study.to_text(),
            scalars={
                "still_detected_everywhere": study.still_detected_everywhere(),
                "defeated_at_masking_noise_w": (
                    None if defeated is None else defeated.masking_noise_w
                ),
                "defeated_at_enable_duty": (
                    None if defeated is None else defeated.enable_duty
                ),
            },
            arrays={
                "masking_noise_w": np.array([p.masking_noise_w for p in study.points]),
                "enable_duty": np.array([p.enable_duty for p in study.points]),
                "peak_correlation": np.array([p.peak_correlation for p in study.points]),
                "z_score": np.array([p.z_score for p in study.points]),
                "detection_probability": np.array(
                    [p.detection_probability for p in study.points]
                ),
            },
        )

    return [PipelineStage("sweep", sweep)]


@stage_builder("masking_noise")
def _masking_noise_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    return _masking_stages(spec, starvation=False)


@stage_builder("masking_starvation")
def _masking_starvation_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    return _masking_stages(spec, starvation=True)
