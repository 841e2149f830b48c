"""Dynamic instruction records used by the timing pipeline.

A :class:`DynInst` is one in-flight entity: either a singleton instruction or
a mini-graph handle.  It pairs the dynamic facts of the trace row it was
fetched from (control outcome, next PC, effective address) with the interned
:class:`~repro.uarch.decode.DecodedOp` for its static instruction, and
carries the renamed register identifiers, the per-stage timestamps and the
wakeup bookkeeping the event-driven scheduler fills in as the entity flows
through the machine.

The class is ``__slots__``-backed: tens of thousands of instances are created
per simulation and the per-instance dict plus property dispatch of the old
dataclass were a measurable share of simulation time.  Static facts
(operands, opcode class, latency, MGT header) live on the shared decode
record; the entry's ``pc`` (derived from its static index) and the trace
row's dynamic facts (``next_pc``, the :mod:`repro.sim.trace` flags byte and
the normalized effective address) are copied in as plain scalars by the
fetch stage, the only place a :class:`DynInst` is built; only genuinely
per-instance state lives here.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .decode import DecodedOp

#: Sentinel cycle value meaning "has not happened yet".
NEVER = -1

#: Sentinel ready-cycle meaning "producer has not broadcast yet".
FOREVER = 1 << 62


class DynInst:
    """One in-flight instruction or handle.

    Attributes:
        sequence: global dynamic sequence number (age ordering).
        decoded: interned static metadata (shared across dynamic instances).
        pc / next_pc / flags / effective_address: the entry's pc and the
            dynamic facts of the trace row this entity was fetched from
            (``flags`` is the :mod:`repro.sim.trace` ``TF_*`` bitfield).
        source_physical: physical registers of the (up to two) sources.
        destination_physical: allocated physical destination, or None.
        previous_physical: physical register previously mapped to the
            destination architectural register (freed at retire).
        pending_sources: source operands whose producer has not broadcast
            yet (scheduler wakeup bookkeeping).
        wake_cycle: earliest cycle the scheduler may consider this entity
            for selection once ``pending_sources`` reaches zero.
    """

    __slots__ = (
        "sequence", "decoded",
        "pc", "next_pc", "flags", "effective_address",
        "source_physical", "destination_physical", "previous_physical",
        "predicted_taken", "predicted_target", "mispredicted",
        "fetch_cycle", "rename_cycle", "issue_cycle", "complete_cycle",
        "retire_cycle", "output_ready_cycle",
        "replayed", "caused_ordering_violation",
        "pending_sources", "wake_cycle",
    )

    def __init__(self, sequence: int, decoded: DecodedOp, pc: int,
                 next_pc: int, flags: int,
                 effective_address: Optional[int]) -> None:
        self.sequence = sequence
        self.decoded = decoded
        self.pc = pc
        self.next_pc = next_pc
        self.flags = flags
        self.effective_address = effective_address
        self.source_physical: Tuple[Optional[int], Optional[int]] = (None, None)
        self.destination_physical: Optional[int] = None
        self.previous_physical: Optional[int] = None
        self.predicted_taken: Optional[bool] = None
        self.predicted_target: Optional[int] = None
        self.mispredicted = False
        self.fetch_cycle = NEVER
        self.rename_cycle = NEVER
        self.issue_cycle = NEVER
        self.complete_cycle = NEVER
        self.retire_cycle = NEVER
        self.output_ready_cycle = NEVER
        self.replayed = False
        self.caused_ordering_violation = False
        self.pending_sources = 0
        self.wake_cycle = NEVER
