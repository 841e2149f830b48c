"""Call the compiled timing kernel.

``lane_kernel.c`` is the timing pipeline flattened into one loop over flat
per-sequence arrays; :func:`repro.uarch.pipeline.simulate_program` runs
every timing simulation through it.  :mod:`repro.native` compiles it (with
the functional core) the first time a trace is timed — never at import —
and this module calls it through :mod:`ctypes`:

* :func:`trace_facts` interns, once per (program, trace, MGT, layout), the
  facts read from the decode table's distinct static ops (entry count, FP
  presence, decode errors) and, on the first kernel call, the kernel's typed
  buffers;
  :func:`simulate` runs one machine over them and rebuilds the reference
  path's exact :class:`~repro.uarch.pipeline.TimingError` text from the
  kernel's error code;
* without a working compiler it returns ``None`` and the caller runs the
  reference :class:`~repro.uarch.pipeline.TimingSimulator`, which gives the
  same stats and errors, only slower.
"""

from __future__ import annotations

import ctypes
import dataclasses
import weakref
from array import array
from operator import attrgetter
from typing import Any, Dict, Optional, Tuple

from .. import native
from ..minigraph.mgt import (
    FU_ALU,
    FU_ALU_PIPELINE,
    FU_BRANCH,
    FU_LOAD,
    FU_STORE,
    MiniGraphTable,
)
from ..program.program import Program
from ..sim.trace import Trace
from .config import MachineConfig
from .decode import KIND_FP, DecodeError, decode_table
from .pipeline import (
    FetchLayout,
    TimingError,
    sliding_window_error,
    unissuable_error,
    watchdog_error,
)
from .stats import PipelineStats

#: Result codes of ``repro_lane_run`` (``LANE_*`` in the C source).
LANE_OK, LANE_WATCHDOG, LANE_NEEDS_SLIDING_WINDOW, LANE_UNISSUABLE, \
    LANE_NO_MEMORY = range(5)

#: Per-static-op decode bits (``OP_*`` in the C source), by DecodedOp field.
OP_BITS = (
    ("needs_destination", 0x01), ("is_conditional_branch", 0x02),
    ("mgt_entry", 0x04), ("integer_only", 0x08), ("has_load", 0x10),
    ("has_interior_load", 0x20), ("has_store", 0x40), ("out_is_last", 0x80),
)

#: The machine configuration vector, in ``CF_*`` order.
CONFIG_FIELDS = (
    "fetch_width", "rename_width", "issue_width", "retire_width",
    "front_end_depth", "register_read_latency", "scheduler_latency",
    "rob_size", "issue_queue_size", "lsq_size",
    "physical_registers", "architected_registers",
    "plain_alu_units", "alu_pipelines", "fp_units", "load_ports",
    "store_ports", "max_memory_handles_per_cycle", "sliding_window_scheduler",
    "minigraph_replay_penalty", "misprediction_redirect_penalty",
    "ordering_violation_penalty",
    "predictor_entries", "btb_entries", "btb_associativity",
    "icache.size_bytes", "icache.associativity", "icache.line_bytes",
    "icache.hit_latency",
    "dcache.size_bytes", "dcache.associativity", "dcache.line_bytes",
    "dcache.hit_latency",
    "l2cache.size_bytes", "l2cache.associativity", "l2cache.line_bytes",
    "l2cache.hit_latency",
    "memory_latency", "store_set_entries",
)
_CONFIG_GETTERS = tuple(attrgetter(name) for name in CONFIG_FIELDS)

#: The kernel's buffers in ``lane_trace`` order: name, C item type, and
#: the count that sizes it (trace entries, static ops or FUBMP codes).
_TRACE_COLUMNS = tuple(
    (name, ctype, count)
    for names, ctype, count in (
        (("flags",), ctypes.c_uint8, "total"),
        (("next_pc", "ea"), ctypes.c_uint64, "total"),
        (("index",), ctypes.c_uint32, "total"),
        (("kind", "bits"), ctypes.c_uint8, "ops"),
        (("pc", "addr"), ctypes.c_uint64, "ops"),
        (("size", "latency", "src0", "src1", "dest", "execution_cycles",
          "header_lat"), ctypes.c_int32, "ops"),
        (("fu0",), ctypes.c_int8, "ops"),
        (("fubmp_start", "fubmp_count"), ctypes.c_int32, "ops"),
        (("fubmp",), ctypes.c_int8, "fubmp_len"),
    )
    for name in names)

_STAT_COUNT = len(dataclasses.fields(PipelineStats))


class _LaneTrace(ctypes.Structure):
    _fields_ = ([(count, ctypes.c_int64)
                 for count in ("total", "ops", "fubmp_len")]
                + [(name, ctypes.c_void_p) for name, _, _ in _TRACE_COLUMNS])


def _unit_code(unit: Optional[str]) -> int:
    """``FU_*`` code of an MGHT unit name, normalized as the funits pool."""
    if unit is None:
        return -1
    if unit.startswith(FU_ALU_PIPELINE):
        return 1
    return {FU_ALU: 0, FU_BRANCH: 0, FU_LOAD: 2, FU_STORE: 3}.get(unit, 4)


# -- entry point --------------------------------------------------------------


def kernel() -> Optional[Any]:
    """The ``repro_lane_run`` entry point, or None without a library."""
    library = native.library()
    return None if library is None else library.repro_lane_run


# -- trace facts --------------------------------------------------------------


class TraceFacts:
    """What every machine timed over one (program, trace, MGT, layout) shares.

    Holds the trace's columns, never the trace itself, so interning facts
    does not keep a trace (or its packed kernel buffers) alive.  Everything
    else is read from the decode table's distinct static ops; no per-entry
    list is built.
    """

    __slots__ = ("program", "columns", "mgt", "compressed", "total",
                 "has_fp", "kernel_trace")

    def __init__(self, program: Program, trace: Trace,
                 mgt: Optional[MiniGraphTable], compressed: bool) -> None:
        self.program = program
        self.columns = trace.columns()
        self.mgt = mgt
        self.compressed = compressed
        self.total = len(trace)
        table = decode_table(program, mgt)
        try:
            ops = [table.op_at(index) for index in set(self.columns.index)]
        except DecodeError as error:
            raise TimingError(str(error)) from None
        #: Feeds the ``fp_units=0`` admission check.
        self.has_fp = any(op.kind == KIND_FP for op in ops)
        #: The kernel's packed view, built on the first :func:`simulate`.
        self.kernel_trace: Optional[Tuple[Any, ...]] = None


#: ``trace -> {(decode table, compressed) -> TraceFacts}``.  Weak on the
#: trace so facts die with it; the decode table key keeps (program, MGT)
#: variants of one trace distinct.
_FACTS: "weakref.WeakKeyDictionary[Trace, Dict]" = weakref.WeakKeyDictionary()


def trace_facts(program: Program, trace: Trace,
                mgt: Optional[MiniGraphTable] = None,
                compressed_layout: bool = False) -> TraceFacts:
    """The process-wide interned :class:`TraceFacts` for one quadruple."""
    per_trace = _FACTS.get(trace)
    if per_trace is None:
        per_trace = _FACTS[trace] = {}
    key = (decode_table(program, mgt), compressed_layout)
    facts = per_trace.get(key)
    if facts is None:
        facts = per_trace[key] = TraceFacts(program, trace, mgt,
                                            compressed_layout)
    return facts


# -- call ---------------------------------------------------------------------


def _pack(facts: TraceFacts) -> Tuple[_LaneTrace, Tuple[array, ...]]:
    """The kernel's view of ``facts`` plus the buffers it points into.

    Trace columns are passed zero-copy; the pc, fetch address and decode
    metadata become one row per static instruction (indexed by each entry's
    static index), with handle metadata as small integer codes.
    """
    program = facts.program
    columns = facts.columns
    table = decode_table(program, facts.mgt)
    ops = len(program.instructions)
    kind, bits = array("B", bytes(ops)), array("B", bytes(ops))
    fu0 = array("b", bytes(ops))
    layout = FetchLayout(program, compressed=facts.compressed)
    pc = array("Q", map(program.pc_of, range(ops)))
    addr = array("Q", map(layout.address_for_index, range(ops)))
    size, latency, execution_cycles, header_lat, fubmp_start, fubmp_count = (
        array("i", bytes(4 * ops)) for _ in range(6))
    src0, src1, dest = (array("i", [-1]) * ops for _ in range(3))
    fubmp = array("b")
    for index in set(columns.index):
        op = table.op_at(index)
        kind[index] = op.kind
        size[index] = op.size
        latency[index] = op.latency
        source0, source1 = op.renamed_sources
        if source0 is not None:
            src0[index] = source0
        if source1 is not None:
            src1[index] = source1
        if op.dest is not None:
            dest[index] = op.dest
        bits[index] = sum(bit for field, bit in OP_BITS
                          if getattr(op, field) not in (None, False))
        if op.mgt_entry is not None:
            execution_cycles[index] = op.execution_cycles
            header_lat[index] = op.header_lat
            fu0[index] = _unit_code(op.fu0)
            fubmp_start[index] = len(fubmp)
            fubmp_count[index] = len(op.fubmp)
            fubmp.extend(_unit_code(unit) for unit in op.fubmp)
    buffers = {
        "flags": columns.flags, "next_pc": columns.next_pc,
        "ea": columns.effective_address, "index": columns.index,
        "kind": kind, "bits": bits, "pc": pc, "addr": addr, "size": size,
        "latency": latency, "src0": src0, "src1": src1, "dest": dest,
        "execution_cycles": execution_cycles, "header_lat": header_lat,
        "fu0": fu0, "fubmp_start": fubmp_start, "fubmp_count": fubmp_count,
        "fubmp": fubmp,
    }
    counts = {"total": facts.total, "ops": ops, "fubmp_len": len(fubmp)}
    for name, ctype, count in _TRACE_COLUMNS:
        buffer = buffers[name]
        if buffer.itemsize != ctypes.sizeof(ctype) \
                or len(buffer) != counts[count]:
            raise TimingError(
                f"{program.name}: timing kernel buffer {name!r} holds "
                f"{len(buffer)} x {buffer.itemsize} bytes, expected "
                f"{counts[count]} x {ctypes.sizeof(ctype)}")
    packed = _LaneTrace(*counts.values(),
                        *(buffers[name].buffer_info()[0]
                          for name, _, _ in _TRACE_COLUMNS))
    return packed, tuple(buffers.values())


def simulate(facts: TraceFacts, config: MachineConfig,
             max_cycles: int) -> Optional[PipelineStats]:
    """One machine over ``facts`` in the compiled kernel.

    Returns the statistics, raises the reference path's error, or returns None
    when the compiled kernel is unavailable — the caller then runs the
    reference simulator.  Validation keeps every field of ``config`` below
    :data:`~repro.uarch.config.FIELD_LIMIT`, the kernel's range.
    """
    entry = kernel()
    if entry is None:
        return None
    vector = array("q", [int(getter(config)) for getter in _CONFIG_GETTERS])
    packed = facts.kernel_trace
    if packed is None:
        packed = facts.kernel_trace = _pack(facts)
    out = (ctypes.c_int64 * _STAT_COUNT)()
    code = entry(ctypes.byref(packed[0]), vector.buffer_info()[0],
                 max(-1, min(max_cycles, 1 << 62)), out)
    if code == LANE_OK:
        return PipelineStats(*out)
    entry_index, retired, cycle = out[0], out[1], out[2]
    if code == LANE_WATCHDOG:
        raise watchdog_error(facts.program, max_cycles, retired, facts.total)
    if code == LANE_NEEDS_SLIDING_WINDOW:
        raise sliding_window_error(config)
    if code == LANE_UNISSUABLE:
        index = facts.columns.index[entry_index]
        raise unissuable_error(
            decode_table(facts.program, facts.mgt).op_at(index).op)
    if code == LANE_NO_MEMORY:
        raise MemoryError(f"{facts.program.name}: timing kernel state for "
                          f"{config.name!r} does not fit in memory")
    raise TimingError(f"{facts.program.name}: timing kernel invariant failed "
                      f"(code {code}) at entry {entry_index}, cycle {cycle}")
