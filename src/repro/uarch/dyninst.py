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

from ..isa.instruction import Instruction
from ..minigraph.mgt import MgtEntry
from ..sim.trace import TF_CONTROL, TF_LOAD, TF_MEMORY, TF_STORE
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

    # -- static views (delegate to the interned decode record) ---------------------

    @property
    def static(self) -> Instruction:
        return self.decoded.static

    @property
    def mgt_entry(self) -> Optional[MgtEntry]:
        return self.decoded.mgt_entry

    @property
    def is_handle(self) -> bool:
        return self.decoded.mgt_entry is not None

    @property
    def is_conditional_branch(self) -> bool:
        return self.decoded.is_conditional_branch

    @property
    def needs_destination(self) -> bool:
        """Does this entity allocate a physical destination register?

        Following the paper's baseline, stores and branches are not allocated
        registers; a handle allocates one register only if its mini-graph has
        an interface output.
        """
        return self.decoded.needs_destination

    def source_registers(self) -> Tuple[int, ...]:
        """Architectural source registers (handles expose the interface only)."""
        return self.decoded.static.source_registers()

    # -- dynamic views (from the packed trace-row scalars) -------------------------

    @property
    def is_load(self) -> bool:
        return bool(self.flags & TF_LOAD)

    @property
    def is_store(self) -> bool:
        return bool(self.flags & TF_STORE)

    @property
    def is_memory(self) -> bool:
        return bool(self.flags & TF_MEMORY)

    @property
    def is_control(self) -> bool:
        return bool(self.flags & TF_CONTROL)

    # -- status --------------------------------------------------------------------

    @property
    def issued(self) -> bool:
        return self.issue_cycle != NEVER

    @property
    def completed(self) -> bool:
        return self.complete_cycle != NEVER

    def describe(self) -> str:
        """Readable one-liner for debugging and trace dumps."""
        kind = f"mg[{self.static.mgid}]" if self.is_handle else self.static.op
        return (f"#{self.sequence} pc={self.pc:#x} {kind} "
                f"fetch={self.fetch_cycle} issue={self.issue_cycle} "
                f"complete={self.complete_cycle} retire={self.retire_cycle}")
