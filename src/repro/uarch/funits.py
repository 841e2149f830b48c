"""Functional-unit pool: per-cycle issue ports, ALU pipelines and the
sliding-window resource reservation bitmap.

The baseline issues up to 4 integer, 2 floating-point, 2 load and 1 store
operations per cycle.  A mini-graph processor replaces some plain ALUs with
*ALU pipelines* (single-entry, single-exit chains of ALUs): each pipeline
accepts one operation or handle per cycle at its input but performs one
constituent operation per stage per cycle internally, amplifying execution
bandwidth without adding bypass paths.  Singleton ALU operations may also use
an ALU pipeline's input with no penalty (the output mux selects the unlatched
first-stage result), so substituting pipelines for ALUs does not hurt
programs without mini-graphs.

The *sliding-window scheduler* extends the conventional write-port
reservation bitmap in both dimensions (resources x future cycles) so that an
integer-memory handle can reserve all the functional units its constituent
instructions will need before it issues (Section 4.3).  The same mechanism is
reused as a fallback to execute handles on machines without ALU pipelines by
reserving a plain ALU for each execution cycle of the graph.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..minigraph.mgt import FU_ALU, FU_ALU_PIPELINE, FU_BRANCH, FU_LOAD, FU_STORE
from .config import MachineConfig


class FunctionalUnitPool:
    """Per-cycle issue port tracking plus the sliding-window bitmap."""

    def __init__(self, config: MachineConfig) -> None:
        self._config = config
        self._cycle = -1
        self._plain_used = 0
        self._pipeline_used = 0
        self._fp_used = 0
        self._load_used = 0
        self._store_used = 0
        self._memory_handles_issued = 0
        # Future reservations made by in-flight handles: cycle -> unit -> count.
        self._reservations: Dict[int, Dict[str, int]] = {}
        # Hoisted config scalars (plain_alu_units is a computed property) and
        # the current cycle's reservation counts, cached by begin_cycle so the
        # per-issue availability checks are pure integer arithmetic.
        self._plain_alu_units = config.plain_alu_units
        self._alu_pipelines = config.alu_pipelines
        self._fp_units = config.fp_units
        self._load_ports = config.load_ports
        self._store_ports = config.store_ports
        self._now_alu = 0
        self._now_pipeline = 0
        self._now_load = 0
        self._now_store = 0

    # -- per-cycle bookkeeping ---------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        """Reset per-cycle port usage and drop stale reservations."""
        self._cycle = cycle
        self._plain_used = 0
        self._pipeline_used = 0
        self._fp_used = 0
        self._load_used = 0
        self._store_used = 0
        self._memory_handles_issued = 0
        reservations = self._reservations
        now: Optional[Dict[str, int]] = None
        if reservations:
            for key in [key for key in reservations if key < cycle]:
                del reservations[key]
            now = reservations.get(cycle)
        if now:
            # Handles only reserve *future* cycles (offsets start at 1), so
            # this cycle's bucket cannot grow once the cycle has begun.
            self._now_alu = now.get(FU_ALU, 0)
            self._now_pipeline = now.get(FU_ALU_PIPELINE, 0)
            self._now_load = now.get(FU_LOAD, 0)
            self._now_store = now.get(FU_STORE, 0)
        else:
            self._now_alu = 0
            self._now_pipeline = 0
            self._now_load = 0
            self._now_store = 0

    def _reserved(self, cycle: int, unit: str) -> int:
        return self._reservations.get(cycle, {}).get(unit, 0)

    def _reserve(self, cycle: int, unit: str, count: int = 1) -> None:
        bucket = self._reservations.setdefault(cycle, {})
        bucket[unit] = bucket.get(unit, 0) + count

    def _plain_free(self) -> int:
        return self._plain_alu_units - self._plain_used - self._now_alu

    def _pipeline_free(self) -> int:
        return self._alu_pipelines - self._pipeline_used - self._now_pipeline

    # -- singleton issue: one check-and-consume call per operation -------------

    def take_int(self) -> bool:
        """Claim one integer issue slot (plain ALU preferred), if any is free."""
        if self._plain_free() > 0:
            self._plain_used += 1
        elif self._pipeline_free() > 0:
            self._pipeline_used += 1
        else:
            return False
        return True

    def take_fp(self) -> bool:
        """Claim one floating-point issue slot this cycle, if free."""
        if self._fp_used >= self._fp_units:
            return False
        self._fp_used += 1
        return True

    def take_load(self) -> bool:
        """Claim one load port this cycle, if free."""
        if self._load_used + self._now_load >= self._load_ports:
            return False
        self._load_used += 1
        return True

    def take_store(self) -> bool:
        """Claim one store port this cycle, if free."""
        if self._store_used + self._now_store >= self._store_ports:
            return False
        self._store_used += 1
        return True

    def take_integer_handle(self) -> bool:
        """Claim one ALU-pipeline input for an integer-only handle, if free."""
        if self._pipeline_free() <= 0:
            return False
        self._pipeline_used += 1
        return True

    # -- handle issue ----------------------------------------------------------------

    @staticmethod
    def _normalise_unit(unit: str) -> str:
        if unit.startswith(FU_ALU_PIPELINE):
            return FU_ALU_PIPELINE
        if unit == FU_BRANCH:
            return FU_ALU
        return unit

    def can_issue_memory_handle(self, fu0: str, fubmp: Tuple[Optional[str], ...]) -> bool:
        """Check first-cycle availability and the sliding-window reservation.

        At most ``max_memory_handles_per_cycle`` integer-memory handles issue
        per cycle because cross-checking candidate FUBMPs against one another
        is too expensive (Section 4.3).
        """
        if self._memory_handles_issued >= self._config.max_memory_handles_per_cycle:
            return False
        if not self._unit_available_now(self._normalise_unit(fu0)):
            return False
        for offset, unit in enumerate(fubmp, start=1):
            if unit is None:
                continue
            if not self._unit_available_future(self._cycle + offset,
                                               self._normalise_unit(unit)):
                return False
        return True

    def issue_memory_handle(self, fu0: str, fubmp: Tuple[Optional[str], ...]) -> bool:
        """Issue an integer-memory handle, reserving its future functional units."""
        if not self.can_issue_memory_handle(fu0, fubmp):
            return False
        self._consume_unit_now(self._normalise_unit(fu0))
        for offset, unit in enumerate(fubmp, start=1):
            if unit is None:
                continue
            self._reserve(self._cycle + offset, self._normalise_unit(unit))
        self._memory_handles_issued += 1
        return True

    # -- unit availability -------------------------------------------------------

    def _unit_available_now(self, unit: str) -> bool:
        if unit == FU_LOAD:
            return self._load_used + self._now_load < self._load_ports
        if unit == FU_STORE:
            return self._store_used + self._now_store < self._store_ports
        if unit == FU_ALU_PIPELINE:
            return self._pipeline_free() > 0
        return self._plain_free() > 0 or self._pipeline_free() > 0

    def _consume_unit_now(self, unit: str) -> None:
        if unit == FU_LOAD:
            self.take_load()
        elif unit == FU_STORE:
            self.take_store()
        elif unit == FU_ALU_PIPELINE:
            self._pipeline_used += 1
        else:
            self.take_int()

    def _unit_available_future(self, cycle: int, unit: str) -> bool:
        if unit == FU_LOAD:
            return self._reserved(cycle, FU_LOAD) < self._config.load_ports
        if unit == FU_STORE:
            return self._reserved(cycle, FU_STORE) < self._config.store_ports
        if unit == FU_ALU_PIPELINE:
            return self._reserved(cycle, FU_ALU_PIPELINE) < max(1, self._config.alu_pipelines)
        capacity = max(1, self._config.plain_alu_units + self._config.alu_pipelines)
        return self._reserved(cycle, FU_ALU) < capacity
