"""The stage-graph session: one front door for the whole pipeline.

A :class:`Session` materializes the paper's tool chain

    assemble -> profile -> select -> rewrite -> build_mgt -> trace -> time

as named stages with typed artifacts.  Every stage result is cached in an
:class:`~repro.api.store.ArtifactStore` under a content-addressed key derived
from the :class:`~repro.api.spec.RunSpec`, the stage name and
``repro.__version__`` — so repeated experiment and benchmark runs (within a
process via the memory layer, across processes via the disk layer) skip
redundant simulation entirely.  Batches of specs run through
:meth:`Session.run_grid`, which groups them into shared-artifact stages and
fans the stages out across a process pool.  Trace artifacts ride everywhere
— disk cache entries, artifacts embedding a trace — as flat packed-column
buffers (:mod:`repro.sim.trace`'s binary codec), never as per-entry object
graphs.  See ``docs/api.md`` for the full contract and cache-invalidation
semantics.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..minigraph.mgt import MiniGraphTable
from ..minigraph.registry import FRONTEND_STATS
from ..minigraph.selection import SelectionResult, select_minigraphs
from ..program.profile import BlockProfile
from ..program.program import Program
from ..program.rewriter import rewrite_program
from ..sim.functional import run_program
from ..sim.trace import Trace
from ..uarch.config import MachineConfig
from ..uarch.pipeline import simulate_program
from ..uarch.stats import PipelineStats, ipc_speedup
from ..workloads import load_benchmark
from .keys import digest
from .spec import RunSpec
from .store import MISS, ArtifactStore, CacheStats


@dataclass
class ProfileArtifact:
    """Output of the ``profile`` stage: the baseline functional run.

    Pickles compactly: the embedded trace serializes as one flat binary
    column blob (``Trace.__reduce__``).
    """

    profile: BlockProfile
    trace: Trace


@dataclass
class SessionStats:
    """How much actual work (vs cache reuse) a session performed.

    The ``frontend_*`` fields mirror the compilation front-end counters
    (:data:`repro.minigraph.registry.FRONTEND_STATS`) for the select stages
    this session actually executed; they are sampled as deltas around each
    stage so pool workers report the front-end work their process performed
    and :meth:`merge` aggregates it back into the driving session.
    """

    assemble_runs: int = 0
    functional_runs: int = 0
    selection_runs: int = 0
    rewrite_runs: int = 0
    mgt_builds: int = 0
    timing_runs: int = 0
    #: Timing runs computed by :meth:`Session.prime_timing`.
    batched_timing_lanes: int = 0
    #: Always 0: nothing deduplicates timing runs beyond the stage cache.
    batched_timing_deduped: int = 0
    frontend_enumeration_seconds: float = 0.0
    frontend_selection_seconds: float = 0.0
    frontend_candidates: int = 0
    frontend_blocks: int = 0
    frontend_memo_hits: int = 0
    frontend_memo_misses: int = 0
    frontend_truncated_blocks: int = 0
    frontend_dropped_candidates: int = 0

    @property
    def simulations(self) -> int:
        """Functional plus timing simulations actually executed."""
        return self.functional_runs + self.timing_runs

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def merge(self, other: "SessionStats") -> None:
        """Accumulate another session's work (e.g. a grid pool worker's)."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)

    def record_frontend_delta(self, delta) -> None:
        """Fold a :class:`~repro.minigraph.registry.FrontendStats` delta in."""
        self.frontend_enumeration_seconds += delta.enumeration_seconds
        self.frontend_selection_seconds += delta.selection_seconds
        self.frontend_candidates += delta.candidates_enumerated
        self.frontend_blocks += delta.blocks_enumerated
        self.frontend_memo_hits += delta.block_memo_hits
        self.frontend_memo_misses += delta.block_memo_misses
        self.frontend_truncated_blocks += delta.truncated_blocks
        self.frontend_dropped_candidates += delta.dropped_candidates


@dataclass
class RunArtifacts:
    """Everything :meth:`Session.run` produces for one spec."""

    spec: RunSpec
    program: Program
    profile: BlockProfile
    baseline_trace: Trace
    timing: PipelineStats
    baseline_timing: PipelineStats
    selection: Optional[SelectionResult] = None
    mgt: Optional[MiniGraphTable] = None
    rewritten: Optional[Program] = None
    minigraph_trace: Optional[Trace] = None

    @property
    def coverage(self) -> float:
        """Fraction of dynamic instructions absorbed into handles."""
        return self.timing.dynamic_coverage

    @property
    def speedup(self) -> float:
        """IPC of this spec's machine relative to its baseline machine
        (``nan`` when the baseline retired nothing)."""
        return ipc_speedup(self.timing, self.baseline_timing)


class Session:
    """Caching, stage-graph front door to the mini-graph pipeline."""

    def __init__(self, *, store: Optional[ArtifactStore] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 version: Optional[str] = None) -> None:
        if store is not None and cache_dir is not None:
            raise ValueError("pass either a store or a cache_dir, not both")
        if store is not None:
            # Keys name the session's version and rows the store's.
            if version is not None and version != store.version:
                raise ValueError(f"version {version!r} differs from the "
                                 f"store's version {store.version!r}")
            version = store.version
        elif version is None:
            from .. import __version__
            version = __version__
        self._version = version
        # Session-created stores are version-aware: their rows carry the
        # version, so `repro cache prune` can delete other versions' rows.
        self._store = store if store is not None \
            else ArtifactStore(cache_dir, version=version)
        self.stats = SessionStats()

    @property
    def store(self) -> ArtifactStore:
        return self._store

    @property
    def cache_stats(self) -> CacheStats:
        return self._store.stats

    @property
    def version(self) -> str:
        return self._version

    def close(self) -> None:
        """Close the store's database connection.

        The session stays usable afterwards — the connection is reopened
        on demand — so ``close()`` marks a quiet point, not the end of life.
        """
        self.store.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- keying / caching ----------------------------------------------------------

    def _key(self, stage: str, spec: RunSpec, extra: Tuple[Any, ...] = ()) -> str:
        material = (self._version, stage) + spec.stage_material(stage) + extra
        return f"{stage}-{digest(material)}"

    def _stage(self, stage: str, spec: RunSpec, compute: Callable[[], Any],
               extra: Tuple[Any, ...] = ()) -> Any:
        key = self._key(stage, spec, extra)
        value = self._store.get(key)
        if value is not MISS:
            return value
        value = compute()
        self._store.put(key, value)
        return value

    # -- individual stages ---------------------------------------------------------

    def program(self, spec: RunSpec) -> Program:
        """Stage ``assemble``: the program image for the spec's source."""
        def compute() -> Program:
            self.stats.assemble_runs += 1
            if spec.program is not None:
                return spec.program
            return load_benchmark(spec.benchmark, spec.input_name)
        return self._stage("assemble", spec, compute)

    def _profile_artifact(self, spec: RunSpec) -> ProfileArtifact:
        def compute() -> ProfileArtifact:
            self.stats.functional_runs += 1
            result = run_program(self.program(spec), max_instructions=spec.budget)
            return ProfileArtifact(profile=result.profile, trace=result.trace)
        return self._stage("profile", spec, compute)

    def profile(self, spec: RunSpec) -> BlockProfile:
        """Stage ``profile``: basic-block frequencies of the baseline run."""
        return self._profile_artifact(spec).profile

    def baseline_trace(self, spec: RunSpec) -> Trace:
        """Stage ``profile``: committed-order trace of the baseline run."""
        return self._profile_artifact(spec).trace

    def selection(self, spec: RunSpec) -> SelectionResult:
        """Stage ``select``: greedy coverage-driven mini-graph selection.

        A selection that enumeration truncated (its safety valves dropped
        candidates) is surfaced through ``SelectionResult.truncated`` and the
        session's ``frontend_*`` statistics.
        """
        if spec.policy is None:
            raise ValueError(f"{spec.label}: baseline-only specs have no selection")
        def compute() -> SelectionResult:
            self.stats.selection_runs += 1
            before = FRONTEND_STATS.snapshot()
            result = select_minigraphs(self.program(spec), self.profile(spec),
                                       policy=spec.policy)
            self.stats.record_frontend_delta(FRONTEND_STATS.delta_since(before))
            return result
        return self._stage("select", spec, compute)

    def rewritten(self, spec: RunSpec) -> Program:
        """Stage ``rewrite``: the handle-rewritten binary."""
        def compute() -> Program:
            self.stats.rewrite_runs += 1
            sites = self.selection(spec).rewrite_sites()
            return rewrite_program(self.program(spec), sites).program
        return self._stage("rewrite", spec, compute)

    def mgt(self, spec: RunSpec) -> MiniGraphTable:
        """Stage ``build_mgt``: the MGHT/MGST for the selection."""
        def compute() -> MiniGraphTable:
            self.stats.mgt_builds += 1
            return MiniGraphTable.from_selection(self.selection(spec),
                                                 spec.resolved_mgt_options)
        return self._stage("build_mgt", spec, compute)

    def minigraph_trace(self, spec: RunSpec) -> Trace:
        """Stage ``trace``: functional run of the rewritten binary."""
        def compute() -> Trace:
            self.stats.functional_runs += 1
            result = run_program(self.rewritten(spec), mgt=self.mgt(spec),
                                 max_instructions=spec.budget)
            return result.trace
        return self._stage("trace", spec, compute)

    # -- timing --------------------------------------------------------------------

    def baseline_timing(self, spec: RunSpec,
                        machine: Optional[MachineConfig] = None) -> PipelineStats:
        """Stage ``time``: cycle-simulate the *original* program on ``machine``."""
        config = machine if machine is not None else spec.resolved_baseline_machine
        def compute() -> PipelineStats:
            self.stats.timing_runs += 1
            return simulate_program(self.program(spec), self.baseline_trace(spec),
                                    config)
        return self._stage("time_baseline", spec, compute,
                           extra=(config.machine_key,))

    def minigraph_timing(self, spec: RunSpec,
                         machine: Optional[MachineConfig] = None) -> PipelineStats:
        """Stage ``time``: cycle-simulate the rewritten program with its MGT."""
        if spec.policy is None:
            raise ValueError(f"{spec.label}: baseline-only specs have no "
                             "mini-graph timing; use baseline_timing")
        config = machine if machine is not None else spec.resolved_machine
        def compute() -> PipelineStats:
            self.stats.timing_runs += 1
            return simulate_program(self.rewritten(spec), self.minigraph_trace(spec),
                                    config, mgt=self.mgt(spec),
                                    compressed_layout=spec.compressed_layout)
        return self._stage("time", spec, compute,
                           extra=("minigraph", config.machine_key,
                                  spec.compressed_layout))

    def timing(self, spec: RunSpec) -> PipelineStats:
        """Timing statistics of the spec itself (baseline or mini-graph)."""
        if spec.policy is None:
            return self.baseline_timing(spec, spec.resolved_machine)
        return self.minigraph_timing(spec)

    def prime_timing(self, specs: Iterable[RunSpec]) -> int:
        """Compute the timing stages :meth:`run` needs for each spec.

        Stops at the first error, as :meth:`run` does.  Returns the number
        of timing runs computed (cache misses), also counted in
        ``stats.batched_timing_lanes``.
        """
        before = self.stats.timing_runs
        for spec in specs:
            self.timing(spec)
            self.baseline_timing(spec)
        primed = self.stats.timing_runs - before
        self.stats.batched_timing_lanes += primed
        return primed

    # -- end-to-end ----------------------------------------------------------------

    def run(self, spec: RunSpec) -> RunArtifacts:
        """Run (or reuse) the full stage graph for one spec."""
        program = self.program(spec)
        profile_artifact = self._profile_artifact(spec)
        if spec.policy is None:
            timing = self.baseline_timing(spec, spec.resolved_machine)
            return RunArtifacts(
                spec=spec, program=program,
                profile=profile_artifact.profile,
                baseline_trace=profile_artifact.trace,
                timing=timing,
                baseline_timing=self.baseline_timing(spec))
        return RunArtifacts(
            spec=spec, program=program,
            profile=profile_artifact.profile,
            baseline_trace=profile_artifact.trace,
            selection=self.selection(spec),
            mgt=self.mgt(spec),
            rewritten=self.rewritten(spec),
            minigraph_trace=self.minigraph_trace(spec),
            timing=self.minigraph_timing(spec),
            baseline_timing=self.baseline_timing(spec))

    # -- grids ---------------------------------------------------------------------

    def plan(self, grid) -> "GridPlan":  # noqa: F821 - forward ref, see repro.grid
        """Expand a :class:`~repro.grid.spec.GridSpec` into a
        :class:`~repro.grid.planner.GridPlan`: stages of the cells that
        share one functional profile."""
        from ..grid.planner import plan_grid
        return plan_grid(grid)

    def run_grid(self, grid, *, shard=None, resume=False, workers=None):
        """Execute a grid (or plan), streaming one row per cell.

        Thin front door to :func:`repro.grid.engine.run_grid`: supports
        ``shard=(index, count)`` stage-partitioning, ``resume=True`` (serve
        cells whose terminal row artifact is already stored) and fan-out of
        the plan's stages to forked pool workers (``workers``; 0/1 runs
        serially here), with the workers' accounting merged back into this
        session.  Returns
        a lazy iterator of :class:`~repro.grid.engine.GridRow`.
        """
        from ..grid.engine import run_grid
        return run_grid(self, grid, shard=shard, resume=resume,
                        workers=workers)
