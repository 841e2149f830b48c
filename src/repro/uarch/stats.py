"""Statistics collected by the timing pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PipelineStats:
    """Counters and derived metrics for one timing simulation run.

    ``committed_instructions`` counts *original* program instructions (a
    retired handle adds its mini-graph size), so IPC is directly comparable
    between baseline and mini-graph runs: both execute the same work.
    ``committed_slots`` counts retired entities (handles count once), which is
    what the pipeline bandwidth actually processed.
    """

    cycles: int = 0
    committed_instructions: int = 0
    committed_slots: int = 0
    committed_handles: int = 0

    fetched_slots: int = 0
    fetch_stall_cycles: int = 0
    rename_stall_cycles: int = 0
    issue_slots_used: int = 0

    branch_lookups: int = 0
    branch_mispredictions: int = 0

    icache_misses: int = 0
    dcache_accesses: int = 0
    dcache_misses: int = 0

    loads_executed: int = 0
    stores_executed: int = 0
    ordering_violations: int = 0
    minigraph_replays: int = 0
    sliding_window_conflicts: int = 0

    # Structural stall breakdown (cycles in which rename was blocked by ...).
    stall_rob_full: int = 0
    stall_iq_full: int = 0
    stall_lsq_full: int = 0
    stall_no_physical_register: int = 0

    # Occupancy integrals (sum over cycles; divide by cycles for averages).
    rob_occupancy_sum: int = 0
    iq_occupancy_sum: int = 0
    physical_registers_in_use_sum: int = 0

    @property
    def ipc(self) -> float:
        """Committed original instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.committed_instructions / self.cycles

    @property
    def slot_ipc(self) -> float:
        """Committed pipeline slots (handles count once) per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.committed_slots / self.cycles

    @property
    def dynamic_coverage(self) -> float:
        """Fraction of original instructions absorbed into handles."""
        if self.committed_instructions == 0:
            return 0.0
        absorbed = self.committed_instructions - self.committed_slots
        return absorbed / self.committed_instructions

    @property
    def branch_misprediction_rate(self) -> float:
        if self.branch_lookups == 0:
            return 0.0
        return self.branch_mispredictions / self.branch_lookups

    @property
    def dcache_miss_rate(self) -> float:
        if self.dcache_accesses == 0:
            return 0.0
        return self.dcache_misses / self.dcache_accesses

    @property
    def average_rob_occupancy(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.rob_occupancy_sum / self.cycles

    @property
    def average_iq_occupancy(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.iq_occupancy_sum / self.cycles

    @property
    def average_registers_in_use(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.physical_registers_in_use_sum / self.cycles

    def as_dict(self) -> Dict[str, float]:
        """Flatten counters and derived metrics for reports."""
        return {
            "cycles": float(self.cycles),
            "committed_instructions": float(self.committed_instructions),
            "committed_slots": float(self.committed_slots),
            "committed_handles": float(self.committed_handles),
            "ipc": self.ipc,
            "slot_ipc": self.slot_ipc,
            "dynamic_coverage": self.dynamic_coverage,
            "branch_misprediction_rate": self.branch_misprediction_rate,
            "dcache_miss_rate": self.dcache_miss_rate,
            "ordering_violations": float(self.ordering_violations),
            "minigraph_replays": float(self.minigraph_replays),
            "sliding_window_conflicts": float(self.sliding_window_conflicts),
            "average_rob_occupancy": self.average_rob_occupancy,
            "average_iq_occupancy": self.average_iq_occupancy,
            "average_registers_in_use": self.average_registers_in_use,
            "stall_rob_full": float(self.stall_rob_full),
            "stall_iq_full": float(self.stall_iq_full),
            "stall_lsq_full": float(self.stall_lsq_full),
            "stall_no_physical_register": float(self.stall_no_physical_register),
        }


def ipc_speedup(timing: PipelineStats, baseline: PipelineStats) -> float:
    """IPC of ``timing`` relative to ``baseline``.

    ``nan`` when the baseline retired nothing — a silent 1.0 would hide a
    broken reference run.
    """
    if baseline.ipc == 0.0:
        return float("nan")
    return timing.ipc / baseline.ipc
