"""Interned decode metadata for the timing pipeline.

The timing model replays one committed trace entry per fetched slot, and a
static instruction typically recurs thousands of times in a trace (loop
bodies).  Re-deriving operand lists, opcode class, latency and MGT headers
from the :class:`~repro.isa.instruction.Instruction` on every dynamic
instance dominated the old fetch/issue path.

This module interns all of that per *static* instruction (plus its MGT row
for handles) into a :class:`DecodedOp`: a flat ``__slots__`` record the
pipeline reads with plain attribute loads.  Decode tables are cached per
``(program, mgt)`` pair in process-wide weak maps, so every simulation of the
same program — across machine configurations, across
:class:`~repro.api.session.Session` stages, and across the cells of one
grid stage (:mod:`repro.grid.planner`) — shares one decode pass.  A table
keeps nothing per trace: the compiled kernel reads one row per distinct
static op, and only the reference
:class:`~repro.uarch.pipeline.TimingSimulator` gathers a per-entry
:meth:`DecodeTable.trace_feed`.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import OpClass
from ..minigraph.mgt import MgtEntry, MiniGraphTable
from ..program.program import Program
from ..program.weakcache import PerProgramCache
from ..sim.trace import Trace

#: Issue-path discriminator codes (``DecodedOp.kind``).
KIND_INT = 0        #: plain ALU / MUL / control / nop / halt — integer issue port
KIND_FP = 1         #: floating-point issue port
KIND_LOAD = 2       #: load port + data-cache latency
KIND_STORE = 3      #: store port, single-cycle address/data computation
KIND_HANDLE = 4     #: mini-graph handle — MGHT-driven scheduling
KIND_UNISSUABLE = 5 #: no issue path — reported when (if ever) it reaches select


class DecodeError(RuntimeError):
    """Raised when a trace entry cannot be decoded (e.g. handle without MGT)."""


class DecodedOp:
    """Everything the pipeline needs to know about one static instruction.

    One instance exists per (static instruction, MGT row) and is shared by
    every dynamic instance; all fields are immutable after construction.
    """

    __slots__ = (
        "index", "static", "mgt_entry", "op", "size", "kind", "latency",
        "renamed_sources", "dest", "needs_destination",
        "is_conditional_branch",
        # Handle-only scheduling metadata (None / 0 for singletons).
        "execution_cycles", "header_lat", "fu0", "fubmp",
        "integer_only", "has_load", "has_interior_load", "has_store",
        "out_is_last",
    )

    def __init__(self, index: int, static: Instruction,
                 mgt_entry: Optional[MgtEntry]) -> None:
        self.index = index
        self.static = static
        self.mgt_entry = mgt_entry
        self.op = static.op
        spec = static.spec

        sources = static.source_registers()
        self.renamed_sources: Tuple[Optional[int], Optional[int]] = (
            sources[0] if len(sources) > 0 else None,
            sources[1] if len(sources) > 1 else None,
        )
        self.dest = static.destination_register()

        if mgt_entry is not None:
            template = mgt_entry.template
            header = mgt_entry.header
            self.size = template.size
            self.kind = KIND_HANDLE
            self.latency = header.total_latency
            self.needs_destination = (template.out_index is not None
                                      and self.dest is not None)
            self.is_conditional_branch = template.has_branch
            self.execution_cycles = len(mgt_entry.banks)
            self.header_lat = header.lat
            self.fu0 = header.fu0
            self.fubmp = header.fubmp
            self.integer_only = template.is_integer_only
            self.has_load = template.has_load
            self.has_interior_load = template.has_interior_load
            self.has_store = template.has_store
            self.out_is_last = template.out_index == template.size - 1
            return

        self.size = 1
        self.needs_destination = self.dest is not None
        self.is_conditional_branch = static.is_branch
        self.execution_cycles = 0
        self.header_lat = 0
        self.fu0 = None
        self.fubmp = ()
        self.integer_only = False
        self.has_load = False
        self.has_interior_load = False
        self.has_store = False
        self.out_is_last = False

        if spec.is_load:
            self.kind = KIND_LOAD
            self.latency = spec.latency
        elif spec.is_store:
            self.kind = KIND_STORE
            self.latency = 1
        elif spec.is_fp:
            self.kind = KIND_FP
            self.latency = spec.latency
        elif spec.op_class in (OpClass.ALU, OpClass.MUL) or spec.is_control \
                or spec.op_class is OpClass.NOP or spec.op_class is OpClass.HALT:
            self.kind = KIND_INT
            self.latency = max(1, spec.latency)
        else:
            # No issue path; reported lazily so the error surfaces at the same
            # point (select) it did before decode interning.
            self.kind = KIND_UNISSUABLE
            self.latency = 1


class DecodeTable:
    """Lazily-populated ``index -> DecodedOp`` map for one (program, MGT)."""

    def __init__(self, program: Program, mgt: Optional[MiniGraphTable]) -> None:
        self._instructions = program.instructions
        self._mgt = mgt
        self._ops: List[Optional[DecodedOp]] = [None] * len(program.instructions)

    def op_at(self, index: int) -> DecodedOp:
        """The interned decode record for the instruction at ``index``."""
        decoded = self._ops[index]
        if decoded is None:
            static = self._instructions[index]
            mgt_entry: Optional[MgtEntry] = None
            if static.spec.op_class is OpClass.MG:
                if self._mgt is None:
                    raise DecodeError(
                        "trace contains handles but no MGT was supplied")
                mgt_entry = self._mgt.lookup(static.mgid)
            decoded = DecodedOp(index, static, mgt_entry)
            self._ops[index] = decoded
        return decoded

    def trace_feed(self, trace: Trace) -> List[DecodedOp]:
        """Decode records for every trace entry, in trace order.

        One decode per *unique* static index, then a C-level gather over the
        trace's packed index column.
        """
        index_column = trace.columns().index
        ops = self._ops
        for index in set(index_column):
            if ops[index] is None:
                self.op_at(index)
        return list(map(ops.__getitem__, index_column))


class _NoMgt:
    """Identity placeholder: the decode-table key for 'no MGT'."""

_NO_MGT = _NoMgt()

#: ``program -> (mgt -> DecodeTable)``.  The outer level is the shared weak
#: per-program cache (decode state dies with its program); the inner
#: WeakKeyDictionary is keyed by MGT, so holding a table never pins an MGT.
#: DecodeTable holds the program's instruction list, not the program itself,
#: so the cache cannot keep programs alive.
_TABLES: PerProgramCache["weakref.WeakKeyDictionary"] = \
    PerProgramCache(lambda program: weakref.WeakKeyDictionary())


def decode_table(program: Program, mgt: Optional[MiniGraphTable]) -> DecodeTable:
    """The process-wide interned decode table for ``(program, mgt)``."""
    per_program = _TABLES.get(program)
    key = mgt if mgt is not None else _NO_MGT
    table = per_program.get(key)
    if table is None:
        table = DecodeTable(program, mgt)
        per_program[key] = table
    return table
