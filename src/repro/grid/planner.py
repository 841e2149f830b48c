"""Dependency-aware grid planning: cells → shared-artifact stages → shards.

Expanding a grid yields one :class:`~repro.grid.spec.GridCell` per (machine ×
policy × workload × budget) point, but executing each cell independently
would re-derive the expensive shared prefix of the pipeline — one functional
profile per (program, input, budget) and one front-end compile
(select/rewrite/trace) per (program, policy) — once per cell.  The planner
groups cells by the artifacts they share into an explicit, inspectable
plan:

* a :class:`PlanStage` per distinct profile identity ``(source, input,
  budget)`` — the unit shipped to one process-pool worker, where the shared
  stages run once and the interned decode metadata is reused by every
  timing run;
* a :class:`CompileGroup` per distinct selection policy inside a stage —
  cells of one group run consecutively so the front-end artifacts they share
  stay hot;
* deterministic ordering throughout (stages by first cell, groups by first
  cell, cells by expansion index), which is what makes sharding
  (:meth:`GridPlan.shard`) a partition: shard *i* of *N* takes every
  *N*-th stage, and the union of all shards is exactly the unsharded plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .spec import GridCell, GridError, GridSpec


@dataclass
class CompileGroup:
    """Cells sharing one front-end compile: same program *and* policy."""

    policy_key: Any                  # canonical policy key; None = baseline
    cells: List[GridCell] = field(default_factory=list)


@dataclass
class PlanStage:
    """Cells sharing one profile identity ``(source, input, budget)``.

    One stage is one process-pool job: every cell in it reuses the stage's
    functional profile, and cells are ordered compile-group-major so each
    policy's select/rewrite/trace artifacts are computed once and reused
    while still hot.
    """

    key: Tuple[str, str, int]
    groups: List[CompileGroup] = field(default_factory=list)

    @property
    def cells(self) -> List[GridCell]:
        """Stage cells in execution order (compile-group-major)."""
        return [cell for group in self.groups for cell in group.cells]

    @property
    def cell_count(self) -> int:
        return sum(len(group.cells) for group in self.groups)

    @property
    def frontend_compiles(self) -> int:
        """Distinct front-end compiles (non-baseline policies) in the stage."""
        return sum(1 for group in self.groups if group.policy_key is not None)


@dataclass
class GridPlan:
    """A grid expanded and grouped into shared-artifact stages.

    ``grid`` is ``None`` for plans built from bare cells
    (:func:`plan_cells`) — e.g. the serve daemon planning a client's
    pre-expanded cell list.
    """

    grid: Optional[GridSpec]
    stages: List[PlanStage]
    shard: Optional[Tuple[int, int]] = None   # (index, count) when sharded

    @property
    def cell_count(self) -> int:
        return sum(stage.cell_count for stage in self.stages)

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def frontend_compiles(self) -> int:
        return sum(stage.frontend_compiles for stage in self.stages)

    @property
    def dedup_ratio(self) -> float:
        """Timing runs per shared-artifact stage (1.0 = nothing shared)."""
        if not self.stages:
            return 1.0
        return self.cell_count / len(self.stages)

    def cells(self) -> List[GridCell]:
        """Every planned cell, stage-major in execution order."""
        return [cell for stage in self.stages for cell in stage.cells]

    def take_shard(self, index: int, count: int) -> "GridPlan":
        """Shard ``index`` of ``count``: every ``count``-th stage.

        Sharding by *stage* (not by cell) keeps each shard's shared-artifact
        grouping intact — no shard ever recomputes another shard's front-end
        compile — and the shards partition the plan: their union is exactly
        the unsharded cell set.
        """
        if count <= 0:
            raise GridError(f"shard count must be positive, got {count}")
        if not 0 <= index < count:
            raise GridError(f"shard index {index} out of range for "
                            f"{count} shards (expected 0..{count - 1})")
        return GridPlan(grid=self.grid, stages=self.stages[index::count],
                        shard=(index, count))

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly plan summary."""
        return {
            "grid": None if self.grid is None else self.grid.name,
            "cells": self.cell_count,
            "stages": self.stage_count,
            "frontend_compiles": self.frontend_compiles,
            "dedup_ratio": self.dedup_ratio,
            "shard": None if self.shard is None
                     else f"{self.shard[0]}/{self.shard[1]}",
        }


def plan_cells(cells: Iterable[GridCell],
               grid: Optional[GridSpec] = None) -> GridPlan:
    """Group already-expanded cells into shared-artifact stages.

    The grouping behind :func:`plan_grid`, reusable for cell lists that
    never came from a :class:`GridSpec` — the serve daemon plans client
    submissions (pre-expanded on the client, where the grid's build
    closures live) through exactly this path, so concurrent daemon jobs
    get the same profile/compile dedup as local grid runs.

    Deterministic: stages appear in order of their first cell, compile
    groups in order of their first cell within the stage, and cells keep
    their input order within each group.
    """
    stages: Dict[Tuple[str, str, int], PlanStage] = {}
    groups: Dict[Tuple[Tuple[str, str, int], Any], CompileGroup] = {}
    for cell in cells:
        spec = cell.spec
        stage_key = (spec.source_id, spec.input_name, spec.budget)
        stage = stages.get(stage_key)
        if stage is None:
            stage = stages[stage_key] = PlanStage(key=stage_key)
        policy_key = spec.policy_key
        group_key = (stage_key, policy_key)
        group = groups.get(group_key)
        if group is None:
            group = groups[group_key] = CompileGroup(policy_key=policy_key)
            stage.groups.append(group)
        group.cells.append(cell)
    return GridPlan(grid=grid, stages=list(stages.values()))


def plan_grid(grid: GridSpec) -> GridPlan:
    """Expand ``grid`` and group its cells into shared-artifact stages."""
    return plan_cells(grid.cells(), grid)
