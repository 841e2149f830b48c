"""Grid planning: cells → shared-profile stages → shards.

Expanding a grid yields one :class:`~repro.grid.spec.GridCell` per (machine ×
policy × workload × budget) point, but executing each cell independently
would re-derive the shared prefix of the pipeline — one functional profile
per (program, input, budget) — once per cell.  The planner groups the cells
into stages, one per distinct profile identity ``(source, input, budget)``:
a stage is the list of cells sharing that profile, in cell order, and the
unit one worker of the pool (:mod:`repro.grid.pool`) runs, whose session
then computes the profile and every other artifact the cells share once.

Stages appear in order of their first cell, which is what makes sharding
(:meth:`GridPlan.take_shard`) a partition: shard *i* of *N* takes every
*N*-th stage, and the union of all shards is exactly the unsharded plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .spec import GridCell, GridError, GridSpec


@dataclass
class GridPlan:
    """A grid's cells grouped into stages of cells sharing one profile."""

    stages: List[List[GridCell]]
    shard: Optional[Tuple[int, int]] = None   # (index, count) when sharded

    def cells(self) -> List[GridCell]:
        """Every planned cell, stage-major in execution order."""
        return [cell for stage in self.stages for cell in stage]

    def take_shard(self, index: int, count: int) -> "GridPlan":
        """Shard ``index`` of ``count``: every ``count``-th stage.

        Sharding by *stage* (not by cell) means no shard ever recomputes
        another shard's profile, and the shards partition the plan: their
        union is exactly the unsharded cell set.
        """
        if count <= 0:
            raise GridError(f"shard count must be positive, got {count}")
        if not 0 <= index < count:
            raise GridError(f"shard index {index} out of range for "
                            f"{count} shards (expected 0..{count - 1})")
        return GridPlan(self.stages[index::count], shard=(index, count))


def plan_cells(cells: Iterable[GridCell]) -> GridPlan:
    """Group already-expanded cells into stages by profile identity.

    The grouping behind :func:`plan_grid`, also used for cell lists that
    never came from a :class:`GridSpec`: the serve daemon plans client
    submissions (expanded on the client, where the grid's build closures
    live) through exactly this path.
    """
    stages: Dict[Tuple[str, str, int], List[GridCell]] = {}
    for cell in cells:
        spec = cell.spec
        key = (spec.source_id, spec.input_name, spec.budget)
        stages.setdefault(key, []).append(cell)
    return GridPlan(list(stages.values()))


def plan_grid(grid: GridSpec) -> GridPlan:
    """Expand ``grid`` and group its cells into stages."""
    return plan_cells(grid.cells())
