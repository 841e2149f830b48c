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

Stages fan out across a process pool (one worker session per stage, sharing
the disk cache), falling back to serial execution in the driving session
when process pools are unavailable; the workers' accounting is merged back
into that session.

This module is the only one that knows how a cell is keyed, computed,
stored, resumed and turned into a row: :func:`resume_rows` is the resume
probe and :func:`run_cells` the cell runner, and the ``repro serve`` daemon
calls both, so its rows are the rows :func:`run_grid` streams.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..api.keys import digest
from ..api.session import Session, SessionStats
from ..api.spec import RunSpec
from ..api.store import MISS, ArtifactStore, CacheStats
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
_PAYLOAD_FIELDS = ("coverage", "baseline_ipc", "ipc", "speedup", "cycles",
                   "baseline_cycles", "templates")
_PAYLOAD_KEYS = frozenset(_PAYLOAD_FIELDS)


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


def run_cells(session: Session,
              cells: Iterable[GridCell]) -> Iterator[GridRow]:
    """Run each cell in ``session``, store its row artifact, yield its row.

    The only code that computes a cell: :func:`run_grid`'s serial loop, its
    process-pool worker and the ``repro serve`` workers all call it.
    """
    version = session.version
    for cell in cells:
        payload = cell_payload(session, cell.spec)
        session.store.put(cell_key(cell.spec, version), payload)
        yield _row(cell, payload, resumed=False)


def resume_rows(store: ArtifactStore, version: str, cells: Iterable[GridCell]
                ) -> Tuple[List[GridRow], List[GridCell]]:
    """The resume probe: split ``cells`` into rows served from their stored
    row artifacts (``resumed=True``) and the cells still to run.

    A stored value that is not a row payload (a dict of exactly
    :data:`_PAYLOAD_FIELDS`) is a miss, and the probe discards it from the
    store: its cell runs again, and the row it stores then serves the next
    resume.
    """
    served: List[GridRow] = []
    remaining: List[GridCell] = []
    for cell in cells:
        key = cell_key(cell.spec, version)
        payload = store.get(key)
        if isinstance(payload, dict) and payload.keys() == _PAYLOAD_KEYS:
            served.append(_row(cell, payload, resumed=True))
            continue
        if payload is not MISS:
            store.discard(key)
        remaining.append(cell)
    return served, remaining


#: One pool job: the stage's cells (GridSpec builders never cross the
#: process boundary), the shared cache directory and the version.
_StageJob = Tuple[List[GridCell], Optional[str], str]


def _run_stage_job(job: _StageJob) -> Tuple[List[Dict[str, Any]],
                                            SessionStats, CacheStats]:
    """Process-pool worker: run one shared-artifact stage in one session.

    Returns each cell's row payload; the parent turns it into the row with
    its own cell, as a resumed row is built.
    """
    cells, cache_dir, version = job
    session = Session(cache_dir=cache_dir, version=version)
    payloads = [{name: getattr(row, name) for name in _PAYLOAD_FIELDS}
                for row in run_cells(session, cells)]
    return payloads, session.stats, session.cache_stats


def run_grid(session: Session, grid: Union[GridSpec, GridPlan], *,
             shard: Optional[Tuple[int, int]] = None,
             resume: bool = False,
             workers: Optional[int] = None) -> Iterator[GridRow]:
    """Execute a grid (or a prepared plan), streaming rows in plan order.

    Args:
        session: the driving session; its store serves resume probes and
            receives every computed row artifact, and its statistics absorb
            the workers' accounting.
        grid: a :class:`GridSpec` (planned here) or an existing plan.
        shard: ``(index, count)`` — run only that stage-partition shard.
        resume: serve cells whose row artifact is already stored without
            executing them (``row.resumed`` marks them).
        workers: process-pool width (default: one worker per stage to
            run, up to the CPU count; 0/1 = serial in the parent session,
            where the plan's grouping keeps shared artifacts hot in the
            memory cache).
    """
    plan = grid if isinstance(grid, GridPlan) else plan_grid(grid)
    if shard is not None:
        plan = plan.take_shard(*shard)

    # Probe phase: with resume, serve every already-stored cell row up front
    # and only ship the remainder to the executors.
    pending: List[_PendingStage] = []
    for stage in plan.stages:
        served, remaining = (resume_rows(session.store, session.version, stage)
                             if resume else ([], list(stage)))
        pending.append(_PendingStage(remaining, served))

    for stage_rows in _execute(session, pending, workers):
        for row in sorted(stage_rows, key=lambda row: row.index):
            yield row


@dataclass
class _PendingStage:
    """One plan stage split into resumed rows and cells still to run."""

    cells: List[GridCell]      # still to execute
    served: List[GridRow]      # already resumed from the store


def _execute(session: Session, pending: List[_PendingStage],
             workers: Optional[int]) -> Iterator[List[GridRow]]:
    """Yield each stage's complete row list (resumed + computed), in order."""
    jobs = [entry.cells for entry in pending if entry.cells]
    if workers is None:
        workers = min(len(jobs), os.cpu_count() or 1)
    if workers > 1 and len(jobs) > 1:
        outcomes = _pool_outcomes(session, jobs, workers)
        if outcomes is not None:
            yield from _merge_pool_outcomes(session, pending, outcomes)
            return
    # Serial (or pool-unavailable fallback): compute in the parent session,
    # in execution order, so shared artifacts stay hot in the memory cache.
    for entry in pending:
        yield entry.served + list(run_cells(session, entry.cells))


def _pool_outcomes(session: Session, jobs: List[List[GridCell]],
                   workers: int):
    """An ordered, streaming iterator of stage-job results — or ``None``
    when process pools are unavailable in the environment."""
    cache_dir = session.store.cache_dir
    cache_dir_name = None if cache_dir is None else str(cache_dir)
    payloads: List[_StageJob] = [(cells, cache_dir_name, session.version)
                                 for cells in jobs]
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(payloads)))
        # Executor.map submits every job eagerly; pool-spawn failures in
        # restricted environments surface here, not mid-stream.
        results = pool.map(_run_stage_job, payloads)
    except (OSError, PermissionError):
        if pool is not None:
            pool.shutdown(wait=False)
        return None

    def stream():
        try:
            yield from results
        finally:
            pool.shutdown(wait=True)
    return stream()


def _merge_pool_outcomes(session: Session, pending: List[_PendingStage],
                         outcomes) -> Iterator[List[GridRow]]:
    version = session.version
    for entry in pending:
        rows = list(entry.served)
        if entry.cells:
            payloads, worker_stats, worker_cache = next(outcomes)
            session.stats.merge(worker_stats)
            session.cache_stats.merge(worker_cache)
            for cell, payload in zip(entry.cells, payloads):
                # Mirror the row artifact into the parent store so a later
                # resumed pass hits even without a shared disk cache.
                session.store.put(cell_key(cell.spec, version), payload)
                rows.append(_row(cell, payload, resumed=False))
        yield rows
