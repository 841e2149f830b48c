"""Experiment harnesses: one module per figure of the paper's evaluation.

Figures 6-8 and the i-cache study are timed sweeps, declared as catalog
grids (``fig6``, ``fig7``, ``fig8``, ``icache``) that ``repro grid`` and
``repro figure`` run through :meth:`repro.api.Session.run_grid`; each
grid's report folds the streamed rows into the figure's tables.  Figure 5
and the robustness study time nothing, so they are plain functions over a
:class:`~repro.api.Session`.
"""

from .reporting import ResultTable, arithmetic_mean, geometric_mean
from .fig5_coverage import (
    Figure5Result,
    run_coverage_panel,
    run_domain_panel,
    run_figure5,
)
from .fig6_performance import FIGURE6_CONFIGS, Figure6Result, figure6_grid
from .fig7_serialization import (
    FIGURE7_BENCHMARKS,
    BestPolicyResult,
    best_policy,
    figure7_grid,
)
from .fig8_amplification import (
    FIGURE8_BANDWIDTH_VARIANTS,
    FIGURE8_MODES,
    FIGURE8_REGISTER_SIZES,
    Figure8Result,
    figure8_grid,
)
from .extras import RobustnessResult, icache_grid, run_robustness

__all__ = [
    "ResultTable",
    "arithmetic_mean",
    "geometric_mean",
    "Figure5Result",
    "run_coverage_panel",
    "run_domain_panel",
    "run_figure5",
    "FIGURE6_CONFIGS",
    "Figure6Result",
    "figure6_grid",
    "FIGURE7_BENCHMARKS",
    "BestPolicyResult",
    "best_policy",
    "figure7_grid",
    "FIGURE8_BANDWIDTH_VARIANTS",
    "FIGURE8_MODES",
    "FIGURE8_REGISTER_SIZES",
    "Figure8Result",
    "figure8_grid",
    "RobustnessResult",
    "icache_grid",
    "run_robustness",
]
