"""Grid execution: sharded, resumable, streaming runs over a plan.

:func:`run_grid` drives a :class:`~repro.grid.planner.GridPlan` through a
:class:`~repro.api.session.Session` and *streams* one :class:`GridRow` per
cell — results are yielded as each shared-artifact stage completes, in the
plan's deterministic order, so a thousand-cell campaign can be tailed as
JSONL instead of held in memory.

Each cell's terminal result (the row payload: IPCs, cycles, coverage,
speedup, template count) is itself a content-addressed artifact, stored
under a key derived from the run spec's identity and ``repro.__version__``.
That is what makes grids **resumable**: with ``resume=True`` every cell
whose row artifact is already in the store is served from it (``row.resumed``
is ``True``) and never shipped to the pool, so re-running an interrupted —
or sharded — campaign only executes the missing cells, and the union of
shard runs plus one resumed pass equals the unsharded result exactly.

With ``workers > 1`` the run is one job, as a daemon submit is: the
resumed rows and each stage's cells still to run go to forked workers of
:mod:`repro.grid.pool`, which retry a stage once when its worker dies and
store each row in the driving session's store, and every row streams
from the job.  The job's counters merge into the driving session.
Otherwise, or where no process can be forked, the stages run serially in
the driving session.

This module is the only one that knows how a cell is keyed, computed,
stored, resumed and turned into a row: :func:`resume_rows` is the resume
probe, :func:`cell_payload` computes a cell and :func:`store_row` stores
and builds its row.  The pool and the ``repro serve`` daemon call them, so
the daemon's rows are the rows :func:`run_grid` streams.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..api.keys import digest
from ..api.session import Session
from ..api.spec import RunSpec
from ..api.store import MISS, ArtifactStore
from ..uarch.stats import ipc_speedup
from .planner import GridPlan, plan_grid
from .spec import GridCell, GridSpec


@dataclass
class GridRow:
    """One streamed grid result: the cell's point plus its terminal metrics."""

    index: int
    labels: Dict[str, Any]
    spec_hash: str
    benchmark: str
    input: str
    budget: int
    machine: str
    machine_hash: str
    baseline_machine: str
    coverage: float
    baseline_ipc: float
    ipc: float
    speedup: float            # nan when the baseline retired nothing
    cycles: int
    baseline_cycles: int
    templates: Optional[int]
    resumed: bool = False

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly row (NaN is not valid JSON; surfaced as null)."""
        def cell(value: Any) -> Any:
            if isinstance(value, float) and math.isnan(value):
                return None
            return value
        return {
            "index": self.index,
            "point": dict(self.labels),
            "spec_hash": self.spec_hash,
            "benchmark": self.benchmark,
            "input": self.input,
            "budget": self.budget,
            "machine": self.machine,
            "machine_hash": self.machine_hash,
            "baseline_machine": self.baseline_machine,
            "coverage": cell(self.coverage),
            "baseline_ipc": cell(self.baseline_ipc),
            "ipc": cell(self.ipc),
            "speedup": cell(self.speedup),
            "cycles": self.cycles,
            "baseline_cycles": self.baseline_cycles,
            "templates": self.templates,
            "resumed": self.resumed,
        }


def cell_key(spec: RunSpec, version: str) -> str:
    """Store key of one cell's terminal row artifact.

    Grid-independent by design — only the run spec's identity and the
    package version participate — so two grids whose cells resolve to the
    same run share one row artifact, ``resume`` works across grid
    declarations, and daemon rows and ``repro grid --resume`` runs serve
    each other.
    """
    return f"gridcell-{digest((version, spec.spec_hash))}"


#: The :class:`GridRow` fields a row artifact stores (:func:`cell_payload`).
_PAYLOAD_KEYS = frozenset(("coverage", "baseline_ipc", "ipc", "speedup",
                           "cycles", "baseline_cycles", "templates"))


def cell_payload(session: Session, spec: RunSpec) -> Dict[str, Any]:
    """The cached part of a row: one run's seven result numbers.

    Reads only what they depend on: the spec's two timing stages and, for a
    policy spec, its selection's template count.  A warm cell therefore
    costs three store reads (two for a baseline-only spec) and decodes no
    trace.  Coverage is the timed run's absorbed share of its committed
    instructions.

    Deliberately excludes anything derivable from the spec — in particular
    display *names*: two cells with identical run identity but different
    machine labels (e.g. Figure 8's ``prf164`` against the plain baseline)
    share one row artifact, so a stored name would leak one cell's label
    into the other's resumed row.  :func:`_row` re-derives those fields
    from the cell's own spec, keeping resumed rows bit-identical to fresh
    ones.
    """
    timing = session.timing(spec)
    baseline = session.baseline_timing(spec)
    return {
        "coverage": timing.dynamic_coverage,
        "baseline_ipc": baseline.ipc,
        "ipc": timing.ipc,
        "speedup": ipc_speedup(timing, baseline),
        "cycles": timing.cycles,
        "baseline_cycles": baseline.cycles,
        "templates": (None if spec.policy is None
                      else session.selection(spec).template_count),
    }


def _row(cell: GridCell, payload: Dict[str, Any], *, resumed: bool) -> GridRow:
    spec = cell.spec
    machine = spec.resolved_machine
    return GridRow(index=cell.index, labels=cell.labels, resumed=resumed,
                   spec_hash=spec.spec_hash,
                   benchmark=spec.label,
                   input=spec.input_name,
                   budget=spec.budget,
                   machine=machine.name,
                   machine_hash=machine.machine_hash,
                   baseline_machine=spec.resolved_baseline_machine.name,
                   **payload)


def store_row(store: ArtifactStore, cell: GridCell,
              payload: Dict[str, Any]) -> GridRow:
    """Store ``payload`` as ``cell``'s row artifact and return its row.

    The only code that stores a row: :func:`run_grid`'s serial loop calls
    it, and so does the pool (:mod:`repro.grid.pool`) for each payload a
    worker sends.
    """
    store.put(cell_key(cell.spec, store.version), payload)
    return _row(cell, payload, resumed=False)


def resume_rows(store: ArtifactStore, cells: Iterable[GridCell]
                ) -> Tuple[List[GridRow], List[GridCell]]:
    """The resume probe: split ``cells`` into rows served from their stored
    row artifacts (``resumed=True``) and the cells still to run.

    A stored value that is not a row payload (a dict of exactly
    :data:`_PAYLOAD_KEYS`) is a miss, and the probe discards it from the
    store: its cell runs again, and the row it stores then serves the next
    resume.
    """
    served: List[GridRow] = []
    remaining: List[GridCell] = []
    for cell in cells:
        key = cell_key(cell.spec, store.version)
        payload = store.get(key)
        if isinstance(payload, dict) and payload.keys() == _PAYLOAD_KEYS:
            served.append(_row(cell, payload, resumed=True))
            continue
        if payload is not MISS:
            store.discard(key)
        remaining.append(cell)
    return served, remaining


def run_grid(session: Session, grid: Union[GridSpec, GridPlan], *,
             shard: Optional[Tuple[int, int]] = None,
             resume: bool = False,
             workers: Optional[int] = None) -> Iterator[GridRow]:
    """Execute a grid (or a prepared plan), streaming rows in plan order.

    Args:
        session: the driving session; its store serves resume probes and
            receives every computed row artifact (workers read and fill
            their copies of it), and its statistics absorb the workers'
            accounting.
        grid: a :class:`GridSpec` (planned here) or an existing plan.
        shard: ``(index, count)`` — run only that stage-partition shard.
        resume: serve cells whose row artifact is already stored without
            executing them (``row.resumed`` marks them).
        workers: how many forked workers run the stages (default: one
            per stage to run, up to the CPU count; 0/1 = serial in the
            parent session, where the plan's grouping keeps shared
            artifacts hot in the memory cache).
    """
    plan = grid if isinstance(grid, GridPlan) else plan_grid(grid)
    if shard is not None:
        plan = plan.take_shard(*shard)

    # Probe phase: with resume, serve every already-stored cell row up front;
    # ``stages`` keeps each stage's cells still to run.
    served: Dict[int, GridRow] = {}
    stages: List[List[GridCell]] = []
    for stage in plan.stages:
        rows, remaining = (resume_rows(session.store, stage) if resume
                           else ([], stage))
        served.update((row.index, row) for row in rows)
        if remaining:
            stages.append(remaining)

    if workers is None:
        workers = min(len(stages), os.cpu_count() or 1)
    if workers > 1 and len(stages) > 1:
        from .pool import WorkerPool
        from .queue import JobQueue
        queue = JobQueue()
        pool = WorkerPool(queue, session.store, min(workers, len(stages)))
        try:
            pool.start()
        except OSError:
            pass    # no process can be forked here: run serially below
        else:
            job = queue.submit(stages, rows=list(served.values()))
            yield from _job_rows(session, plan, queue, pool, job)
            return
    # Serial: compute in the parent session, in plan order, so shared
    # artifacts stay hot in the memory cache.
    for stage in plan.stages:
        yield from _by_index(
            served.get(cell.index)
            or store_row(session.store, cell, cell_payload(session, cell.spec))
            for cell in stage)


def _by_index(rows: Iterable[GridRow]) -> List[GridRow]:
    """One stage's rows in cell-index order."""
    return sorted(rows, key=lambda row: row.index)


def _job_rows(session: Session, plan: GridPlan, queue, pool,
              job) -> Iterator[GridRow]:
    """Stream a pool job's rows, resumed or computed, stage by stage in plan
    order.  A stage's exception is raised here, and a stage that killed two
    workers raises ``RuntimeError``; however the stream ends, the pool stops
    and the job's accounting merges into ``session``."""
    rows: Dict[int, GridRow] = {}
    try:
        for stage in plan.stages:
            with queue.cond:
                queue.cond.wait_for(lambda: job.terminal or all(
                    cell.index in job.delivered for cell in stage))
                rows.update((row.index, row) for row in job.rows[len(rows):])
            if job.error is not None:
                raise job.exception or RuntimeError(job.error["message"])
            yield from _by_index(rows[cell.index] for cell in stage)
        with queue.cond:
            queue.cond.wait_for(lambda: job.terminal)
    finally:
        pool.stop()
        session.stats.merge(job.session_stats)
        session.cache_stats.merge(job.cache_stats)
