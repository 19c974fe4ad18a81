"""Area, overhead and robustness analysis (Sections V and VI of the paper)."""

from repro.analysis.overhead import (
    OverheadRow,
    OverheadTable,
    area_overhead_reduction,
    load_circuit_overhead_table,
)
from repro.analysis.attacks import (
    AttackOutcome,
    blind_removal,
    find_standalone_clusters,
    informed_removal,
)
from repro.analysis.robustness import (
    RobustnessAssessment,
    assess_robustness,
)
from repro.analysis.masking import (
    MaskingPoint,
    MaskingStudy,
    run_noise_masking_study,
    run_starvation_study,
)

__all__ = [
    "MaskingPoint",
    "MaskingStudy",
    "run_noise_masking_study",
    "run_starvation_study",
    "OverheadRow",
    "OverheadTable",
    "area_overhead_reduction",
    "load_circuit_overhead_table",
    "AttackOutcome",
    "blind_removal",
    "informed_removal",
    "find_standalone_clusters",
    "RobustnessAssessment",
    "assess_robustness",
]
