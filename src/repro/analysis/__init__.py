"""Area, overhead and robustness analysis (Sections V and VI of the paper).

The package also holds repro-lint, the static determinism & cache-safety
analyzer (``python -m repro.analysis``); import it from its submodules
(:mod:`repro.analysis.engine`, :mod:`repro.analysis.rules`), so that
``import repro`` does not load it.
"""

from repro.analysis.overhead import (
    OverheadRow,
    OverheadTable,
    area_overhead_reduction,
    load_circuit_overhead_table,
)
from repro.analysis.attacks import (
    AttackOutcome,
    RemovalAttack,
    find_standalone_clusters,
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
    "RemovalAttack",
    "AttackOutcome",
    "find_standalone_clusters",
    "RobustnessAssessment",
    "assess_robustness",
]
