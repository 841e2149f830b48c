"""The experiment-grid engine: declarative machine-space sweeps at scale.

The paper's whole evaluation is a configuration-space sweep — Figure 6
varies the mini-graph hardware, Figure 8 shrinks machine resources, both
across every workload.  This package turns that cross-product into a
first-class subsystem:

* :mod:`repro.grid.spec` — :class:`Axis` / :class:`GridSpec`: declare axes
  (machine × policy × workload × budget) with include/exclude predicates;
  expansion to :class:`~repro.api.spec.RunSpec`\\ s is lazy and
  deterministic.
* :mod:`repro.grid.planner` — :func:`plan_grid` groups cells into
  shared-artifact stages (one functional profile per program, one front-end
  compile per (program, policy), N timing runs each) and shards by stage.
* :mod:`repro.grid.engine` — :func:`run_grid` executes a plan across the
  process pool, streaming one :class:`GridRow` per cell; terminal row
  artifacts are content-addressed, which makes runs resumable (``--resume``)
  and shard unions exact.
* :mod:`repro.grid.catalog` — named grids (``fig6``, ``fig7``, ``fig8``,
  ``icache``, ``mini``) behind ``repro grid --name``, ``repro figure`` and
  ``repro submit --grid``.

See ``docs/architecture.md`` ("Grid engine") for the full design.
"""

from .spec import Axis, GridCell, GridError, GridSpec
from .planner import CompileGroup, GridPlan, PlanStage, plan_cells, plan_grid
from .engine import GridRow, cell_key, run_grid
from .catalog import (
    GRID_CATALOG,
    GridDefinition,
    get_grid,
    grid_definitions,
    grid_names,
    register_grid,
)

__all__ = [
    "Axis",
    "GridCell",
    "GridError",
    "GridSpec",
    "CompileGroup",
    "GridPlan",
    "PlanStage",
    "plan_cells",
    "plan_grid",
    "GridRow",
    "cell_key",
    "run_grid",
    "GRID_CATALOG",
    "GridDefinition",
    "get_grid",
    "grid_definitions",
    "grid_names",
    "register_grid",
]
