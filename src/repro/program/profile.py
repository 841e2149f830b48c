"""Basic-block frequency profiles.

The paper's mini-graph selection algorithm ranks candidates by estimated
coverage ``(n - 1) * f`` where ``f`` is the execution frequency of the
enclosing basic block, derived from a basic-block frequency profile.  This
module defines that profile; :mod:`repro.sim.functional` produces one from a
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class BlockProfile:
    """Execution-frequency profile of a program at basic-block granularity.

    Attributes:
        program_name: name of the profiled program.
        counts: block id -> number of times the block was entered.
        dynamic_instructions: total committed (non-nop) instructions observed.
    """

    program_name: str
    counts: Dict[int, int] = field(default_factory=dict)
    dynamic_instructions: int = 0

    def frequency(self, block_id: int) -> int:
        """Execution count of block ``block_id`` (0 if never executed)."""
        return self.counts.get(block_id, 0)
