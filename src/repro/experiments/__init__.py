"""The computations behind every table and figure of the paper.

Each module holds one experiment's result dataclass (raw numbers plus a
``to_text()`` renderer) and the ``_compute_*`` body that
:mod:`repro.pipeline.stages` runs.  Experiments are run through the
scenario pipeline -- ``python -m repro run <name>``,
:func:`repro.pipeline.run_scenario` or
:class:`repro.pipeline.ExperimentRunner` -- whose result carries the
dataclass as ``payload``.
"""

from repro.experiments.common import build_watermark, paper_expectations
from repro.experiments.fig2 import Fig2Result
from repro.experiments.fig3 import Fig3Result
from repro.experiments.fig5 import Fig5Panel, Fig5Result
from repro.experiments.fig6 import Fig6Result
from repro.experiments.table1 import Table1Result
from repro.experiments.table2 import Table2Result
from repro.experiments.robustness_exp import RobustnessResult

__all__ = [
    "build_watermark",
    "paper_expectations",
    "Fig2Result",
    "Fig3Result",
    "Fig5Panel",
    "Fig5Result",
    "Fig6Result",
    "Table1Result",
    "Table2Result",
    "RobustnessResult",
]
