"""Cycle-level out-of-order superscalar timing model with mini-graph support.

The model is *functional-first, timing-directed*: the functional simulator
produces the committed-path trace (control outcomes and effective addresses)
and this pipeline re-plays it through a detailed out-of-order machine with a
real branch predictor, BTB, cache hierarchy, store-sets predictor, register
renaming, ROB/issue-queue/LSQ capacities and per-class issue ports.

Handles (mini-graphs) are processed as singleton instructions at every stage
except execution, where the MGHT header drives scheduling (FU0/FUBMP/LAT) and
the MGST bank count drives execution occupancy — exactly the division of
labour described in Section 4 of the paper.

Scheduling is *event-driven*: instead of rescanning the whole issue queue
every cycle (quadratic in window occupancy), the scheduler mirrors hardware
wakeup/select.  At rename each entity counts the source operands whose
producers have not broadcast yet; producers, at issue, push their waiting
consumers into a per-cycle wakeup bucket keyed by the operand-broadcast
cycle.  The select stage pops the bucket for the current cycle into an
age-ordered ready heap and issues from it, so per-cycle work is proportional
to the number of *ready* entities, not to window size.  The selection order —
oldest ready first, structural conflicts retried, sliding-window reservation
conflicts consuming an issue slot — is bit-identical to the exhaustive scan
it replaced (enforced by the golden-stats equivalence test).

Static per-instruction metadata (operands, opcode class, latency, MGT
headers) is interned once per program in :mod:`repro.uarch.decode` and shared
across every simulation of that program.

Two modelling simplifications keep the Python model tractable while
preserving the relative effects the paper measures:

* wrong-path instructions are not fetched: a mispredicted control transfer
  stalls fetch until it resolves and then pays the front-end redirect
  penalty, which charges the same latency as a squash-and-refetch without
  modelling wrong-path contention;
* memory-ordering violations are charged as a fetch-redirect penalty at the
  offending load (plus store-set training) rather than by rolling back
  renamed state.

:func:`simulate_program` runs this model in the compiled kernel
(:mod:`repro.uarch.lane_kernel`); :class:`TimingSimulator` is the reference
it is tested against and its fallback on a host without a C compiler.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple

from ..minigraph.mgt import MiniGraphTable
from ..program.program import Program
from ..sim.trace import (
    TF_CONTROL,
    TF_HAS_EA,
    TF_MEMORY,
    TF_STORE,
    TF_TAKEN,
    Trace,
)
from .bpred import FrontEndPredictor
from .caches import MemoryHierarchy
from .config import ConfigError, MachineConfig
from .decode import (
    KIND_FP,
    KIND_HANDLE,
    KIND_INT,
    KIND_LOAD,
    KIND_STORE,
    DecodeError,
    decode_table,
)
from .dyninst import FOREVER, NEVER, DynInst
from .funits import FunctionalUnitPool
from .stats import PipelineStats
from .storesets import StoreSetPredictor

#: Issue outcomes (integer codes keep the select loop allocation-free).
_ISSUED = 0
_BLOCKED = 1
_SLOT_LOST = 2


def fp_admission_error(config: MachineConfig, program: Program) -> ConfigError:
    """The admission error for an FP trace on a machine with no FP units.

    Shared between :class:`TimingSimulator` and :func:`simulate_program`'s
    kernel path, so both reject the pairing with the same text.
    """
    return ConfigError(
        f"machine {config.name!r} has fp_units=0 but the trace for "
        f"{program.name!r} contains floating-point instructions; "
        f"they could never issue")


class TimingError(RuntimeError):
    """Raised for inconsistent timing-model configurations."""


# The runtime errors of a timing run.  The compiled kernel reports them as
# codes and rebuilds the same text from these, so both paths raise alike.

def watchdog_error(program: Program, max_cycles: int, retired: int,
                   total: int) -> TimingError:
    """The cycle watchdog fired before the whole trace retired."""
    return TimingError(
        f"{program.name}: exceeded {max_cycles} cycles "
        f"({retired}/{total} entries retired); "
        f"the pipeline is probably deadlocked")


def sliding_window_error(config: MachineConfig) -> TimingError:
    """An integer-memory handle reached a machine without the scheduler."""
    return TimingError(
        "integer-memory handles require the sliding-window scheduler; "
        f"config {config.name!r} does not enable it")


def unissuable_error(op: str) -> TimingError:
    """An entry with no issue path reached select."""
    return TimingError(f"cannot issue opcode {op}")


@dataclass
class _LsqEntry:
    """One load/store queue entry."""

    sequence: int
    is_store: bool
    pc: int
    address: Optional[int]
    issued: bool = False
    completed: bool = False


@dataclass
class FetchLayout:
    """Maps instruction PCs to the addresses the instruction cache sees.

    In the paper's default setup mini-graph interiors are replaced by nops, so
    the static layout (and hence instruction-cache behaviour) is unchanged;
    the compression experiment of Section 6.2 removes them.
    ``compressed=True`` models that compressed layout by renumbering every
    non-nop instruction densely.
    """

    program: Program
    compressed: bool = False
    _dense_index: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.compressed:
            dense = 0
            for index, insn in enumerate(self.program.instructions):
                if not insn.is_nop:
                    self._dense_index[index] = dense
                    dense += 1

    def address_for_index(self, index: int) -> int:
        """Fetch address of the instruction at layout index ``index``."""
        if not self.compressed:
            return self.program.text_base + index * 4
        dense = self._dense_index.get(index, index)
        return self.program.text_base + dense * 4


class TimingSimulator:
    """Out-of-order pipeline model for one program/trace pair."""

    def __init__(self, program: Program, trace: Trace, config: MachineConfig, *,
                 mgt: Optional[MiniGraphTable] = None,
                 compressed_layout: bool = False,
                 record_timeline: bool = False) -> None:
        self._program = program
        self._trace = trace
        self._config = config
        self._mgt = mgt
        self.stats = PipelineStats()
        #: Retired entities in commit order (populated when
        #: ``record_timeline=True``; used by scheduler regression tests).
        self.timeline: Optional[List[DynInst]] = [] if record_timeline else None

        self._predictor = FrontEndPredictor(
            predictor_entries=config.predictor_entries,
            btb_entries=config.btb_entries,
            btb_associativity=config.btb_associativity)
        self._memory = MemoryHierarchy(config)
        self._store_sets = StoreSetPredictor(config.store_set_entries)
        self._funits = FunctionalUnitPool(config)
        self._layout = FetchLayout(program, compressed=compressed_layout)

        # Interned decode metadata, gathered into this run's trace feed: one
        # DecodedOp reference per trace entry.
        try:
            self._feed = decode_table(program, mgt).trace_feed(trace)
        except DecodeError as error:
            raise TimingError(str(error)) from None
        # Admission check: an FP instruction on a machine with no FP units
        # can never issue, so the scheduler spins until the cycle watchdog
        # fires.  Reject the pairing up front with the same error class as
        # any other impossible geometry.  (Found by the geometry fuzz
        # oracle: see tests/test_fuzz.py quarantined-geometry regressions.)
        if config.fp_units == 0 and any(op.kind == KIND_FP
                                        for op in self._feed):
            raise fp_admission_error(config, program)
        # The packed trace columns, read directly by the fetch stage.
        columns = trace.columns()
        self._index_col = columns.index
        self._next_pc_col = columns.next_pc
        self._flags_col = columns.flags
        self._ea_col = columns.effective_address

        # Renaming state: architectural register -> physical register.
        self._rename_map: Dict[int, int] = {reg: reg for reg in range(config.architected_registers)}
        self._free_list: Deque[int] = deque(range(config.architected_registers,
                                                  config.physical_registers))
        # Earliest cycle at which a consumer of the physical register may
        # issue; FOREVER until the producer has issued and broadcast.
        self._ready_cycle: Dict[int, int] = {reg: 0 for reg in range(config.architected_registers)}

        # Pipeline structures.
        self._front_end: Deque[DynInst] = deque()   # fetched, waiting to rename
        self._rob: Deque[DynInst] = deque()
        self._lsq: Deque[_LsqEntry] = deque()
        self._lsq_by_seq: Dict[int, _LsqEntry] = {}

        # Event-driven scheduler state.
        self._ready_heap: List[Tuple[int, DynInst]] = []      # (sequence, inst)
        self._wake_buckets: Dict[int, List[DynInst]] = {}     # cycle -> wakeups
        self._reg_waiters: Dict[int, List[DynInst]] = {}      # phys reg -> consumers
        self._complete_buckets: Dict[int, List[DynInst]] = {} # cycle -> completions
        self._iq_count = 0                                    # waiting + ready entries
        self._busy_heap: List[int] = []  # scheduler entries held by executing handles

        # Fetch state.
        self._fetch_index = 0
        self._fetch_stalled_until = 0
        self._fetch_blocked_on: Optional[int] = None  # sequence of unresolved mispredict
        self._next_sequence = 0

        # Hoisted config scalars: the per-cycle loops only touch plain ints.
        self._fetch_width = config.fetch_width
        self._rename_width = config.rename_width
        self._issue_width = config.issue_width
        self._retire_width = config.retire_width
        self._front_end_depth = config.front_end_depth
        self._fetch_buffer_limit = config.fetch_width * config.front_end_depth
        self._rob_size = config.rob_size
        self._iq_size = config.issue_queue_size
        self._lsq_size = config.lsq_size
        self._register_read_latency = config.register_read_latency
        self._scheduler_latency = config.scheduler_latency
        self._physical_registers = config.physical_registers
        self._icache_hit_latency = config.icache.hit_latency
        self._dcache_hit_latency = config.dcache.hit_latency
        self._alu_pipelines = config.alu_pipelines
        self._sliding_window = config.sliding_window_scheduler

    # ------------------------------------------------------------------ run --

    def run(self, *, max_cycles: int = 5_000_000) -> PipelineStats:
        """Simulate until the whole trace has retired; returns the statistics."""
        total_entries = len(self._flags_col)
        retired_entries = 0
        cycle = 0
        begin_cycle = self._funits.begin_cycle
        retire = self._retire
        complete = self._complete
        issue = self._issue
        rename = self._rename
        fetch = self._fetch
        stats = self.stats
        rob = self._rob
        front_end = self._front_end
        free_list = self._free_list
        ready_heap = self._ready_heap
        wake_buckets = self._wake_buckets
        complete_buckets = self._complete_buckets
        busy_heap = self._busy_heap
        physical_registers = self._physical_registers
        # Each stage call is guarded by the event state that could make it do
        # work, so idle stages cost nothing; the guards replicate each
        # stage's own early-out exactly.  The functional-unit pool only
        # matters while selecting, so its per-cycle reset runs just before
        # an actual issue attempt (handles reserve only future cycles, so a
        # skipped reset can never hide a reservation).
        while retired_entries < total_entries:
            if cycle > max_cycles:
                raise watchdog_error(self._program, max_cycles,
                                     retired_entries, total_entries)
            if rob:
                head_complete = rob[0].complete_cycle
                if head_complete != NEVER and head_complete <= cycle:
                    retired_entries += retire(cycle)
            finishing = complete_buckets.pop(cycle, None)
            if finishing:
                complete(cycle, finishing)
            woken = wake_buckets.pop(cycle, None)
            if woken or ready_heap:
                begin_cycle(cycle)
                issue(cycle, woken)
            if front_end:
                rename(cycle)
            if self._fetch_index < total_entries \
                    or self._fetch_blocked_on is not None \
                    or cycle < self._fetch_stalled_until:
                fetch(cycle)
            stats.rob_occupancy_sum += len(rob)
            while busy_heap and busy_heap[0] <= cycle:
                heappop(busy_heap)
            stats.iq_occupancy_sum += self._iq_count + len(busy_heap)
            stats.physical_registers_in_use_sum += \
                physical_registers - len(free_list)
            cycle += 1
        self.stats.cycles = cycle
        self.stats.branch_mispredictions = self._predictor.mispredictions()
        self.stats.icache_misses = self._memory.icache.stats.misses
        self.stats.dcache_accesses = self._memory.dcache.stats.accesses
        self.stats.dcache_misses = self._memory.dcache.stats.misses
        return self.stats

    # ---------------------------------------------------------------- retire --

    def _retire(self, cycle: int) -> int:
        rob = self._rob
        if not rob:
            return 0
        head = rob[0]
        complete_cycle = head.complete_cycle
        if complete_cycle == NEVER or complete_cycle > cycle:
            return 0
        retired = 0
        stats = self.stats
        free_list = self._free_list
        lsq = self._lsq
        width = self._retire_width
        while rob and retired < width:
            head = rob[0]
            complete_cycle = head.complete_cycle
            if complete_cycle == NEVER or complete_cycle > cycle:
                break
            rob.popleft()
            head.retire_cycle = cycle
            if head.previous_physical is not None:
                free_list.append(head.previous_physical)
            if (head.flags & TF_MEMORY) and lsq \
                    and lsq[0].sequence == head.sequence:
                lsq.popleft()
                del self._lsq_by_seq[head.sequence]
            stats.committed_instructions += head.decoded.size
            stats.committed_slots += 1
            if head.decoded.mgt_entry is not None:
                stats.committed_handles += 1
            if self.timeline is not None:
                self.timeline.append(head)
            retired += 1
        return retired

    # -------------------------------------------------------------- complete --

    def _complete(self, cycle: int, finishing: List[DynInst]) -> None:
        for inst in finishing:
            flags = inst.flags
            # Control resolution: train the predictor and release a blocked
            # front end (redirect penalty charged from the resolution cycle).
            if flags & TF_CONTROL:
                taken = bool(flags & TF_TAKEN)
                self._predictor.update(
                    inst.pc,
                    is_conditional=inst.decoded.is_conditional_branch,
                    taken=taken,
                    target=inst.next_pc if taken else None,
                    predicted_taken=bool(inst.predicted_taken))
                if self._fetch_blocked_on == inst.sequence:
                    self._fetch_blocked_on = None
                    self._fetch_stalled_until = max(
                        self._fetch_stalled_until,
                        cycle + self._config.misprediction_redirect_penalty)
            if flags & TF_MEMORY:
                lsq_entry = self._lsq_by_seq.get(inst.sequence)
                if lsq_entry is not None:
                    lsq_entry.completed = True
                if flags & TF_STORE:
                    self._store_sets.store_completed(inst.pc, inst.sequence)

    # ----------------------------------------------------------------- issue --

    def _issue(self, cycle: int, woken: Optional[List[DynInst]] = None) -> None:
        heap = self._ready_heap
        if woken:
            for inst in woken:
                heappush(heap, (inst.sequence, inst))
        if not heap:
            return
        issued = 0
        width = self._issue_width
        stats = self.stats
        deferred: List[DynInst] = []
        # Age-ordered select over the *ready* entities only; anything that
        # cannot issue this cycle (port conflict, memory dependence, lost
        # sliding-window slot) is deferred and retried next cycle.
        while heap and issued < width:
            inst = heappop(heap)[1]
            if (inst.flags & TF_MEMORY) \
                    and not self._memory_dependence_allows_issue(inst):
                deferred.append(inst)
                continue
            outcome = self._try_issue(inst, cycle)
            if outcome == _ISSUED:
                issued += 1
                stats.issue_slots_used += 1
            elif outcome == _SLOT_LOST:
                # A sliding-window reservation conflict consumes the issue slot
                # without issuing anything (Section 4.3).
                issued += 1
                stats.sliding_window_conflicts += 1
                deferred.append(inst)
            else:
                deferred.append(inst)
        for inst in deferred:
            heappush(heap, (inst.sequence, inst))

    def _memory_dependence_allows_issue(self, inst: DynInst) -> bool:
        """Store-sets scheduling plus in-order store address availability."""
        if inst.flags & TF_STORE:
            return True
        predicted = self._store_sets.predicted_store_for(inst.pc)
        if predicted is None:
            return True
        # The LFST is updated at dispatch but consulted at issue, so it can
        # name a store *younger* than the load; waiting on it would deadlock
        # once the ROB fills behind the load.  Only older stores can forward.
        if predicted >= inst.sequence:
            return True
        entry = self._lsq_by_seq.get(predicted)
        if entry is not None and entry.is_store and not entry.completed:
            return False
        return True

    def _try_issue(self, inst: DynInst, cycle: int) -> int:
        """Attempt to issue; returns ``_ISSUED``, ``_BLOCKED`` or ``_SLOT_LOST``."""
        decoded = inst.decoded
        kind = decoded.kind
        funits = self._funits
        if kind == KIND_INT:
            if not funits.take_int():
                return _BLOCKED
            self._finish_issue(inst, cycle, latency=decoded.latency)
            return _ISSUED
        if kind == KIND_LOAD:
            if not funits.take_load():
                return _BLOCKED
            self._execute_load(inst, cycle)
            return _ISSUED
        if kind == KIND_STORE:
            if not funits.take_store():
                return _BLOCKED
            self._execute_store(inst, cycle)
            return _ISSUED
        if kind == KIND_FP:
            if not funits.take_fp():
                return _BLOCKED
            self._finish_issue(inst, cycle, latency=decoded.latency)
            return _ISSUED
        if kind == KIND_HANDLE:
            return self._try_issue_handle(inst, cycle)
        raise unissuable_error(decoded.op)

    # -- singleton issue helpers ---------------------------------------------------

    def _finish_issue(self, inst: DynInst, cycle: int, *, latency: int,
                      output_latency: Optional[int] = None) -> None:
        inst.issue_cycle = cycle
        self._iq_count -= 1
        complete_cycle = cycle + self._register_read_latency + latency
        inst.complete_cycle = complete_cycle
        bucket = self._complete_buckets.get(complete_cycle)
        if bucket is None:
            self._complete_buckets[complete_cycle] = [inst]
        else:
            bucket.append(inst)
        dest = inst.destination_physical
        if dest is not None:
            visible = output_latency if output_latency is not None else latency
            scheduler_latency = self._scheduler_latency
            broadcast = cycle + (visible if visible > scheduler_latency
                                 else scheduler_latency)
            inst.output_ready_cycle = broadcast
            self._ready_cycle[dest] = broadcast
            waiters = self._reg_waiters.pop(dest, None)
            if waiters:
                wake_buckets = self._wake_buckets
                for consumer in waiters:
                    consumer.pending_sources -= 1
                    if consumer.wake_cycle < broadcast:
                        consumer.wake_cycle = broadcast
                    if consumer.pending_sources == 0:
                        wake = wake_buckets.get(consumer.wake_cycle)
                        if wake is None:
                            wake_buckets[consumer.wake_cycle] = [consumer]
                        else:
                            wake.append(consumer)

    def _execute_load(self, inst: DynInst, cycle: int) -> None:
        address = inst.effective_address or 0
        latency = self._memory.data_latency(address)
        self.stats.loads_executed += 1
        self._check_ordering_violation(inst, cycle)
        self._mark_lsq_issued(inst.sequence, address)
        self._finish_issue(inst, cycle, latency=latency)

    def _execute_store(self, inst: DynInst, cycle: int) -> None:
        self.stats.stores_executed += 1
        self._mark_lsq_issued(inst.sequence, inst.effective_address)
        # Stores write the data cache at retirement; for scheduling purposes
        # the store executes (computes its address, forwards data) in one cycle.
        self._finish_issue(inst, cycle, latency=1)

    def _mark_lsq_issued(self, sequence: int, address: Optional[int]) -> None:
        entry = self._lsq_by_seq.get(sequence)
        if entry is not None:
            entry.issued = True
            entry.address = address

    def _check_ordering_violation(self, inst: DynInst, cycle: int) -> None:
        """Detect a load issuing before an older conflicting store has executed."""
        address = inst.effective_address
        if address is None:
            return
        sequence = inst.sequence
        for entry in self._lsq:
            if entry.sequence >= sequence:
                break
            if not entry.is_store or entry.completed:
                continue
            if entry.address is not None and entry.issued:
                continue
            # The older store has not executed yet; its eventual address comes
            # from its own trace entry (entry.address is filled at dispatch).
            if entry.address == address:
                self.stats.ordering_violations += 1
                inst.caused_ordering_violation = True
                self._store_sets.train_violation(inst.pc, entry.pc)
                self._fetch_stalled_until = max(
                    self._fetch_stalled_until,
                    cycle + self._config.ordering_violation_penalty)
                return

    # -- handle issue helpers --------------------------------------------------------

    def _try_issue_handle(self, inst: DynInst, cycle: int) -> int:
        decoded = inst.decoded
        if decoded.integer_only and self._alu_pipelines > 0:
            if not self._funits.take_integer_handle():
                return _BLOCKED
        else:
            if not self._sliding_window and not decoded.integer_only:
                raise sliding_window_error(self._config)
            if not self._funits.can_issue_memory_handle(decoded.fu0, decoded.fubmp):
                return _SLOT_LOST
            self._funits.issue_memory_handle(decoded.fu0, decoded.fubmp)

        execution_cycles = decoded.execution_cycles
        output_latency = decoded.header_lat
        extra_memory = 0
        if decoded.has_load:
            address = inst.effective_address or 0
            latency = self._memory.data_latency(address)
            self.stats.loads_executed += 1
            self._check_ordering_violation(inst, cycle)
            self._mark_lsq_issued(inst.sequence, address)
            extra_memory = max(0, latency - self._dcache_hit_latency)
            if extra_memory > 0 and decoded.has_interior_load:
                # An interior load missed: the whole mini-graph is replayed
                # once the miss returns (Section 4.3).
                self.stats.minigraph_replays += 1
                inst.replayed = True
                extra_memory += self._config.minigraph_replay_penalty + execution_cycles
                output_latency = execution_cycles + extra_memory
            elif extra_memory > 0:
                output_latency += extra_memory if decoded.out_is_last else 0
        elif decoded.has_store:
            self.stats.stores_executed += 1
            self._mark_lsq_issued(inst.sequence, inst.effective_address)

        total_latency = execution_cycles + extra_memory
        self._finish_issue(inst, cycle, latency=total_latency,
                           output_latency=output_latency)
        # The MGST sequencer frees the scheduler entry only when the terminal
        # instruction issues, so the handle holds its entry while executing.
        heappush(self._busy_heap, cycle + execution_cycles)
        return _ISSUED

    # ---------------------------------------------------------------- rename --

    def _rename(self, cycle: int) -> None:
        front_end = self._front_end
        if not front_end:
            return
        renamed = 0
        stats = self.stats
        rob = self._rob
        lsq = self._lsq
        free_list = self._free_list
        rob_size = self._rob_size
        iq_size = self._iq_size
        lsq_size = self._lsq_size
        horizon = cycle - self._front_end_depth
        while front_end and renamed < self._rename_width:
            inst = front_end[0]
            if inst.fetch_cycle > horizon:
                break
            if len(rob) >= rob_size:
                stats.stall_rob_full += 1
                break
            if self._issue_queue_occupancy(cycle) >= iq_size:
                stats.stall_iq_full += 1
                break
            if (inst.flags & TF_MEMORY) and len(lsq) >= lsq_size:
                stats.stall_lsq_full += 1
                break
            if inst.decoded.needs_destination and not free_list:
                stats.stall_no_physical_register += 1
                break
            front_end.popleft()
            self._rename_one(inst, cycle)
            renamed += 1
        if renamed == 0 and front_end:
            stats.rename_stall_cycles += 1

    def _issue_queue_occupancy(self, cycle: int) -> int:
        busy = self._busy_heap
        while busy and busy[0] <= cycle:
            heappop(busy)
        return self._iq_count + len(busy)

    def _rename_one(self, inst: DynInst, cycle: int) -> None:
        inst.rename_cycle = cycle
        decoded = inst.decoded
        rename_map = self._rename_map
        source0, source1 = decoded.renamed_sources
        physical0 = rename_map.get(source0) if source0 is not None else None
        physical1 = rename_map.get(source1) if source1 is not None else None
        inst.source_physical = (physical0, physical1)

        ready_cycle = self._ready_cycle
        if decoded.needs_destination:
            physical = self._free_list.popleft()
            inst.previous_physical = rename_map.get(decoded.dest)
            rename_map[decoded.dest] = physical
            inst.destination_physical = physical
            ready_cycle[physical] = FOREVER  # not ready until issue computes it

        # Wakeup registration: count outstanding producers; if all sources
        # have broadcast, schedule straight into the earliest legal select
        # cycle (the cycle after rename, or the latest operand-ready cycle).
        pending = 0
        wake = cycle + 1
        for physical in (physical0, physical1):
            if physical is None:
                continue
            broadcast = ready_cycle.get(physical, 0)
            if broadcast >= FOREVER:
                pending += 1
                waiters = self._reg_waiters.get(physical)
                if waiters is None:
                    self._reg_waiters[physical] = [inst]
                else:
                    waiters.append(inst)
            elif broadcast > wake:
                wake = broadcast
        if pending:
            inst.pending_sources = pending
            inst.wake_cycle = wake
        else:
            bucket = self._wake_buckets.get(wake)
            if bucket is None:
                self._wake_buckets[wake] = [inst]
            else:
                bucket.append(inst)
        self._iq_count += 1

        self._rob.append(inst)
        flags = inst.flags
        if flags & TF_MEMORY:
            is_store = bool(flags & TF_STORE)
            lsq_entry = _LsqEntry(
                sequence=inst.sequence, is_store=is_store, pc=inst.pc,
                address=inst.effective_address if is_store else None)
            self._lsq.append(lsq_entry)
            self._lsq_by_seq[inst.sequence] = lsq_entry
            if is_store:
                self._store_sets.store_dispatched(inst.pc, inst.sequence)

    # ----------------------------------------------------------------- fetch --

    def _fetch(self, cycle: int) -> None:
        if self._fetch_blocked_on is not None or cycle < self._fetch_stalled_until:
            self.stats.fetch_stall_cycles += 1
            return
        flags_col = self._flags_col
        index = self._fetch_index
        total = len(flags_col)
        if index >= total:
            return
        front_end = self._front_end
        if len(front_end) >= self._fetch_buffer_limit:
            self.stats.fetch_stall_cycles += 1
            return

        fetched = 0
        current_line: Optional[int] = None
        feed = self._feed
        memory = self._memory
        layout = self._layout
        stats = self.stats
        icache_hit = self._icache_hit_latency
        width = self._fetch_width
        compressed = layout.compressed
        pc_of = self._program.pc_of
        index_col = self._index_col
        next_pc_col = self._next_pc_col
        ea_col = self._ea_col
        # Each slot is read straight out of the packed columns.
        while fetched < width and index < total:
            flags = flags_col[index]
            static_index = index_col[index]
            pc = pc_of(static_index)
            address = layout.address_for_index(static_index) if compressed \
                else pc
            line = memory.line_address(address, instruction=True)
            if line != current_line:
                latency = memory.instruction_latency(address)
                if latency > icache_hit:
                    # Instruction cache miss: charge the miss latency and stop
                    # fetching this cycle.
                    self._fetch_stalled_until = max(self._fetch_stalled_until,
                                                    cycle + latency)
                    if fetched == 0:
                        stats.fetch_stall_cycles += 1
                    break
                current_line = line
            decoded = feed[index]
            next_pc = next_pc_col[index]
            inst = DynInst(self._next_sequence, decoded, pc, next_pc, flags,
                           ea_col[index] if flags & TF_HAS_EA else None)
            inst.fetch_cycle = cycle
            self._next_sequence += 1
            front_end.append(inst)
            index += 1
            fetched += 1
            stats.fetched_slots += 1

            if flags & TF_CONTROL:
                stats.branch_lookups += 1
                prediction = self._predictor.predict(
                    pc, is_conditional=decoded.is_conditional_branch)
                inst.predicted_taken = prediction.taken
                inst.predicted_target = prediction.target
                actual_taken = bool(flags & TF_TAKEN)
                target_correct = (not actual_taken) or (prediction.target == next_pc)
                if prediction.taken != actual_taken or not target_correct:
                    inst.mispredicted = True
                    self._fetch_blocked_on = inst.sequence
                    break
                if actual_taken:
                    # Correctly predicted taken branches still end the fetch group.
                    break
        self._fetch_index = index


def simulate_program(program: Program, trace: Trace, config: MachineConfig, *,
                     mgt: Optional[MiniGraphTable] = None,
                     compressed_layout: bool = False,
                     max_cycles: int = 5_000_000) -> PipelineStats:
    """Time ``trace`` on ``config``: the one timing path of the package.

    Runs the compiled kernel (:mod:`repro.uarch.lane_kernel`).  Without a
    working C compiler it runs :class:`TimingSimulator` instead, which gives
    the same statistics and raises the same errors.
    """
    from . import lane_kernel     # ctypes: loaded on the first timing run

    facts = lane_kernel.trace_facts(program, trace, mgt, compressed_layout)
    if facts.has_fp and config.fp_units == 0:
        raise fp_admission_error(config, program)
    stats = lane_kernel.simulate(facts, config, max_cycles)
    if stats is None:
        stats = TimingSimulator(program, trace, config, mgt=mgt,
                                compressed_layout=compressed_layout
                                ).run(max_cycles=max_cycles)
    return stats
