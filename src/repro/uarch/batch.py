"""Batched multi-machine timing kernel: one fused pass drives M lanes.

Grid campaigns time committed traces on many machine shapes — the planner
already dedups the functional profile and the front-end compile, so the
per-cell cost left is the scalar :class:`~repro.uarch.pipeline.
TimingSimulator` interpreter loop, repeated once per machine even though the
decode facts, the trace columns and the fetch addresses never change.

:class:`BatchedTimingSimulator` restructures that work as structure-of-arrays
*lanes*.  A lane is one machine configuration over one decoded trace, and
lanes of a pass need **not** share the trace: each lane carries a *trace
cursor* — its interned :class:`TraceFacts` (trace identity, decode feed,
length) plus its commit position while it runs — so a fig6/fig8-style
pass can interleave a 40k-entry workload's machines with the leftover lanes
of much smaller benchmarks instead of under-filling per-trace passes:

* everything derived from a (program, trace, MGT, layout) quadruple is
  interned once in a shared, immutable :class:`TraceFacts` — the decode
  feed, the trace-content summary that keys lane dedup and, on first use,
  the kernel's packed buffers (trace columns, per-instruction decode tables,
  fetch addresses) — and broadcast to every lane over that trace, whichever
  passes those lanes ride in;
* Python keeps the pass logic: admission checks, behavior-key dedup (lanes
  whose trace cursor *and* configuration are indistinguishable,
  :func:`lane_behavior_key` — e.g. two machines differing only in
  ``fp_units`` on an integer-only trace — simulate once and share the
  statistics) and per-lane error isolation;
* each lane group then makes one call into the fused per-lane kernel,
  ``lane_kernel.c``: the scalar pipeline's stage sequence flattened into one
  loop over flat per-sequence arrays (the replayed trace has no wrong path,
  so a dynamic entity's sequence number *is* its trace index), with its own
  caches, predictor and store sets — the unified L2 sees instruction and
  data misses in a timing-dependent interleaving, so none of that state can
  be shared across lanes.  The kernel also skips provably idle cycle spans
  by jumping straight to the next scheduled event and bulk-charging the
  per-cycle accounting, so skipped spans are bit-identical to stepped ones.
  :mod:`repro.uarch.lane_kernel` builds it on first use with the system C
  compiler; without one, each group runs the reference
  :class:`~repro.uarch.pipeline.TimingSimulator` instead — same stats and
  errors, only slower;
* lanes are architecturally independent, so each lane stops the moment it
  commits its last trace entry — a one-entry trace batched with a 40k-entry
  trace costs one entry, never padding to the longest lane — and a lane's
  per-sequence state is freed before the next lane runs, keeping peak memory
  at one live lane plus the pass's shared trace facts.

Every lane's :class:`~repro.uarch.stats.PipelineStats` is bit-identical to
``simulate_program`` for the same machine (enforced by
``tests/test_batch_timing.py`` and the ``batch`` fuzz oracle).
"""

from __future__ import annotations

import weakref
from copy import copy
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..minigraph.mgt import MiniGraphTable
from ..program.program import Program
from ..sim.trace import TF_CONTROL, TF_LOAD, TF_STORE, Trace
from .config import CacheConfig, ConfigError, MachineConfig
from .decode import KIND_FP, KIND_HANDLE, DecodeError, decode_table
from .pipeline import TimingError, TimingSimulator, fp_admission_error
from .stats import PipelineStats

#: Default lane-partition width: how many machines one batched pass holds.
#: Lanes run one after another, each freeing its per-sequence state before
#: the next, so the partition only bounds how many configs a pass collects.
DEFAULT_MAX_LANES = 8


class TraceFacts:
    """Shared, immutable per-(program, trace, MGT, layout) facts.

    One instance is interned per quadruple (weakly, keyed by the trace) and
    broadcast to every lane of every batched pass over that trace.  The
    compiled kernel packs its typed buffers into :attr:`kernel_trace` the
    first time a lane over this trace runs.
    """

    __slots__ = (
        "program", "trace", "mgt", "compressed", "feed", "total",
        # Trace-content summary flags driving lane-compatibility keying.
        "has_fp", "has_control", "has_load", "has_store", "has_handles",
        "kernel_trace", "__weakref__",
    )

    def __init__(self, program: Program, trace: Trace,
                 mgt: Optional[MiniGraphTable], compressed: bool) -> None:
        self.program = program
        self.trace = trace
        self.mgt = mgt
        self.compressed = compressed
        try:
            feed = decode_table(program, mgt).trace_feed(trace)
        except DecodeError as error:
            raise TimingError(str(error)) from None
        self.feed = feed
        self.total = len(feed)

        union = 0
        for value in set(trace.columns().flags):
            union |= value
        self.has_control = bool(union & TF_CONTROL)
        self.has_load = bool(union & TF_LOAD)
        self.has_store = bool(union & TF_STORE)
        kinds = {op.kind for op in set(feed)}
        self.has_fp = KIND_FP in kinds
        self.has_handles = KIND_HANDLE in kinds
        #: The compiled kernel's packed view (see ``lane_kernel.simulate``).
        self.kernel_trace: Optional[Tuple[Any, ...]] = None


#: ``trace -> {(decode table, compressed) -> TraceFacts}``.  Weak on the
#: trace so facts die with it; the decode table key keeps (program, MGT)
#: variants of one trace distinct.
_FACTS: "weakref.WeakKeyDictionary[Trace, Dict]" = weakref.WeakKeyDictionary()


def trace_facts(program: Program, trace: Trace,
                mgt: Optional[MiniGraphTable] = None,
                compressed_layout: bool = False) -> TraceFacts:
    """The process-wide shared :class:`TraceFacts` for one quadruple."""
    per_trace = _FACTS.get(trace)
    if per_trace is None:
        per_trace = {}
        _FACTS[trace] = per_trace
    key = (decode_table(program, mgt), compressed_layout)
    facts = per_trace.get(key)
    if facts is None:
        facts = TraceFacts(program, trace, mgt, compressed_layout)
        per_trace[key] = facts
    return facts


def _cache_geometry(cache: CacheConfig) -> Tuple[int, int, int, int]:
    return (cache.size_bytes, cache.associativity, cache.line_bytes,
            cache.hit_latency)


def lane_behavior_key(config: MachineConfig, facts: TraceFacts) -> Tuple:
    """Timing-relevant identity of ``config`` *on this trace*.

    Two lanes with equal keys are indistinguishable to the kernel — every
    config field that the trace cannot exercise is dropped (``fp_units``
    without FP entries, predictor geometry without control transfers, memory
    ports without loads/stores, the ALU-pipeline split without handles) —
    so they simulate once and share the statistics.  Fields a handle-bearing
    trace can reach indirectly (FUBMP reservations touch load/store ports
    and the data cache) are kept whenever handles are present.
    """
    key: List = [
        config.fetch_width, config.rename_width, config.issue_width,
        config.retire_width, config.front_end_depth,
        config.register_read_latency, config.scheduler_latency,
        config.rob_size, config.issue_queue_size, config.lsq_size,
        config.physical_registers, config.architected_registers,
        _cache_geometry(config.icache), _cache_geometry(config.l2cache),
        config.memory_latency,
    ]
    if facts.has_fp:
        key.append(config.fp_units)
    if facts.has_control:
        key.append((config.predictor_entries, config.btb_entries,
                    config.btb_associativity,
                    config.misprediction_redirect_penalty))
    if facts.has_handles:
        key.append((config.plain_alu_units, config.alu_pipelines,
                    config.sliding_window_scheduler,
                    config.max_memory_handles_per_cycle,
                    config.minigraph_replay_penalty,
                    config.load_ports, config.store_ports,
                    _cache_geometry(config.dcache),
                    config.store_set_entries,
                    config.ordering_violation_penalty))
    else:
        key.append(config.int_alu_units)
        if facts.has_load:
            key.append((config.load_ports, _cache_geometry(config.dcache)))
        if facts.has_store:
            key.append(config.store_ports)
        if facts.has_load and facts.has_store:
            key.append((config.store_set_entries,
                        config.ordering_violation_penalty))
    return tuple(key)


class TimingLane:
    """One lane of a batched pass: a machine config over a decoded trace.

    The quadruple ``(program, trace, mgt, compressed_layout)`` names the
    lane's trace cursor — it resolves (via :func:`trace_facts` interning) to
    the shared :class:`TraceFacts` the lane iterates, so two lanes over the
    same quadruple share columns even when their configs differ.
    """

    __slots__ = ("program", "trace", "config", "mgt", "compressed_layout")

    def __init__(self, program: Program, trace: Trace,
                 config: MachineConfig, *,
                 mgt: Optional[MiniGraphTable] = None,
                 compressed_layout: bool = False) -> None:
        self.program = program
        self.trace = trace
        self.config = config
        self.mgt = mgt
        self.compressed_layout = compressed_layout


class BatchedTimingSimulator:
    """Simulate many (decoded trace, machine configuration) lanes at once.

    The positional constructor is the shared-trace form — one trace, many
    machines; :meth:`from_lanes` is the general cross-trace form, where each
    :class:`TimingLane` carries its own trace cursor and one pass mixes
    lanes over different traces.

    Construction performs the same per-machine admission checks as the
    scalar :class:`~repro.uarch.pipeline.TimingSimulator` — but *per lane*,
    against that lane's own trace facts, so one inadmissible machine (e.g.
    ``fp_units=0`` against an FP trace) lands in :attr:`lane_errors` without
    poisoning its sibling lanes (including siblings over other traces).
    :meth:`run` likewise records per-lane runtime errors (deadlock watchdog,
    scheduler misconfiguration) instead of aborting the pass; callers that
    want scalar semantics use :func:`simulate_many`, which re-raises the
    first lane error.
    """

    def __init__(self, program: Program, trace: Trace,
                 configs: Sequence[MachineConfig], *,
                 mgt: Optional[MiniGraphTable] = None,
                 compressed_layout: bool = False) -> None:
        facts = trace_facts(program, trace, mgt, compressed_layout)
        self._bind([facts] * len(configs), list(configs))

    @classmethod
    def from_lanes(cls, lanes: Sequence[TimingLane]
                   ) -> "BatchedTimingSimulator":
        """The cross-trace constructor: one pass over heterogeneous lanes."""
        self = cls.__new__(cls)
        self._bind([trace_facts(lane.program, lane.trace, lane.mgt,
                                lane.compressed_layout) for lane in lanes],
                   [lane.config for lane in lanes])
        return self

    def _bind(self, facts: List[TraceFacts],
              configs: List[MachineConfig]) -> None:
        # Structure-of-arrays lane state: parallel per-lane lists.  A lane's
        # trace cursor is its interned TraceFacts (trace identity, decode
        # feed, length); its commit position lives inside the kernel while
        # the lane runs.
        self._facts = facts
        self._configs = configs
        #: Distinct decoded traces across the pass's lanes.
        self.trace_count = len({id(lane_facts) for lane_facts in facts})
        #: Whether this pass mixes lanes over different decoded traces.
        self.cross_trace = self.trace_count > 1
        #: lane index -> the error that lane would raise under the scalar
        #: path (admission errors at construction, runtime errors after run).
        self.lane_errors: Dict[int, Exception] = {}
        #: Lanes served by a behavior-identical sibling's simulation.
        self.deduped_lanes = 0
        for lane, (lane_facts, config) in enumerate(zip(facts, configs)):
            if lane_facts.has_fp and config.fp_units == 0:
                self.lane_errors[lane] = fp_admission_error(
                    config, lane_facts.program)

    @property
    def lanes(self) -> int:
        return len(self._configs)

    def run(self, *, max_cycles: int = 5_000_000
            ) -> List[Optional[PipelineStats]]:
        """Simulate every admissible lane; returns per-lane statistics.

        The result list is parallel to the constructor's lane sequence;
        errored lanes hold ``None`` and their exception sits in
        :attr:`lane_errors`.

        Lanes dedup per ``(trace facts, behavior key)`` — facts are interned,
        so identity distinguishes traces — and the active set retires whole
        lanes in deterministic first-lane order: lanes are architecturally
        independent, so a lane ends the moment it commits its last trace
        entry, and short-trace lanes never pad to the pass's longest lane.
        """
        results: List[Optional[PipelineStats]] = [None] * len(self._configs)
        groups: Dict[Tuple, List[int]] = {}
        for lane, (lane_facts, config) in enumerate(zip(self._facts,
                                                        self._configs)):
            if lane in self.lane_errors:
                continue
            groups.setdefault((lane_facts, lane_behavior_key(config,
                                                             lane_facts)),
                              []).append(lane)
        self.deduped_lanes = sum(len(lanes) - 1 for lanes in groups.values())
        for (facts, _), lanes in groups.items():
            try:
                stats = _simulate(facts, self._configs[lanes[0]], max_cycles)
            except (ConfigError, TimingError) as error:
                self.lane_errors[lanes[0]] = error
                if self._configs[lanes[0]].name in str(error):
                    # The message embeds the representative's config name, so
                    # sibling lanes must produce their own (they fail the same
                    # way, and such raises happen early in the simulation).
                    for lane in lanes[1:]:
                        try:
                            _simulate(facts, self._configs[lane], max_cycles)
                        except (ConfigError, TimingError) as sibling_error:
                            self.lane_errors[lane] = sibling_error
                else:
                    for lane in lanes[1:]:
                        self.lane_errors[lane] = error
                continue
            results[lanes[0]] = stats
            for lane in lanes[1:]:
                results[lane] = copy(stats)
        return results


def simulate_many(program: Program, trace: Trace,
                  configs: Sequence[MachineConfig], *,
                  mgt: Optional[MiniGraphTable] = None,
                  compressed_layout: bool = False,
                  max_cycles: int = 5_000_000) -> List[PipelineStats]:
    """Batched ``simulate_program``: scalar error semantics, many machines."""
    batch = BatchedTimingSimulator(program, trace, configs, mgt=mgt,
                                   compressed_layout=compressed_layout)
    results = batch.run(max_cycles=max_cycles)
    if batch.lane_errors:
        raise batch.lane_errors[min(batch.lane_errors)]
    return results  # type: ignore[return-value]


def _simulate(facts: TraceFacts, config: MachineConfig,
              max_cycles: int) -> PipelineStats:
    """One lane group: the compiled kernel, else the reference simulator."""
    from . import lane_kernel     # ctypes: loaded once a lane group runs

    stats = lane_kernel.simulate(facts, config, max_cycles)
    if stats is None:
        stats = TimingSimulator(
            facts.program, facts.trace, config, mgt=facts.mgt,
            compressed_layout=facts.compressed).run(max_cycles=max_cycles)
    return stats
