"""The mini-graph table (MGT): header table (MGHT) and sequencing table (MGST).

The MGT is the central component of the mini-graph execution core
(Section 4.1).  It is organised as two tables:

* the **MGHT** holds the scheduling information read at rename time and
  copied into the scheduler entry: the functional unit of the first
  instruction (``FU0``), a bitmap of the functional units needed by the
  second and subsequent instructions per execution cycle (``FUBMP``), and the
  latency of the interface register output (``LAT``);
* the **MGST** holds per-cycle execution information — one *bank* per
  execution cycle containing functional unit, opcode, immediate and the two
  bypass directives (operand sources).  Multi-cycle operations (loads) leave
  the following ``latency - 1`` banks empty so that one pipelined sequencer
  per issued handle can simply advance one bank per cycle.

This module builds MGHT/MGST entries from templates and exposes a
:class:`MiniGraphTable` keyed by MGID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .selection import SelectionResult
from .templates import MiniGraphTemplate, OperandRef, TemplateInstruction

#: Functional-unit names used in MGHT/MGST entries.
FU_ALU_PIPELINE = "AP"
FU_ALU = "ALU"
FU_LOAD = "LD"
FU_STORE = "ST"
FU_BRANCH = "BR"


class MgtError(ValueError):
    """Raised for malformed MGT contents or unknown MGIDs."""


def functional_unit_for(template_insn: TemplateInstruction, *,
                        on_alu_pipeline: bool, pipeline_stage: int) -> str:
    """Functional unit used by one constituent instruction."""
    if template_insn.is_load:
        return FU_LOAD
    if template_insn.is_store:
        return FU_STORE
    if on_alu_pipeline:
        return f"{FU_ALU_PIPELINE}.{pipeline_stage}"
    if template_insn.is_control:
        return FU_BRANCH if not on_alu_pipeline else f"{FU_ALU_PIPELINE}.{pipeline_stage}"
    return FU_ALU


@dataclass(frozen=True)
class MgstEntry:
    """One MGST bank entry: the control signals for one execution cycle."""

    fu: str
    op: str
    imm: Optional[int]
    b0: Optional[OperandRef]
    b1: Optional[OperandRef]
    slot: int  # position of this instruction within the template

    def describe(self) -> str:
        operands = [str(ref) for ref in (self.b0, self.b1) if ref is not None]
        if self.imm is not None:
            operands.append(str(self.imm))
        return f"{self.fu} {self.op} " + ",".join(operands)


@dataclass(frozen=True)
class MghtEntry:
    """One MGHT row: scheduling header for a mini-graph."""

    lat: int                      # latency of the interface register output
    fu0: str                      # functional unit of the first instruction
    fubmp: Tuple[Optional[str], ...]  # FU needed in each cycle after the first
    total_latency: int            # execution latency of the complete graph
    size: int                     # number of constituent instructions

    def describe(self) -> str:
        bmp = ":".join(fu if fu else "-" for fu in self.fubmp) if self.fubmp else "-"
        return f"LAT={self.lat} FU0={self.fu0} FUBMP={bmp}"


@dataclass
class MgtEntry:
    """Complete MGT row: template plus its MGHT header and MGST banks."""

    mgid: int
    template: MiniGraphTemplate
    header: MghtEntry
    banks: List[Optional[MgstEntry]]

    @property
    def execution_cycles(self) -> int:
        """Number of MGST banks (execution cycles) the graph occupies."""
        return len(self.banks)


@dataclass(frozen=True)
class MgtBuildOptions:
    """Assumptions baked into MGHT/MGST construction.

    Attributes:
        load_latency: L1-hit load latency assumed by the bank layout.
        use_alu_pipeline: place contiguous integer portions on ALU pipelines.
        collapsing: pair-wise collapsing ALU pipelines — two dependent integer
            operations execute per cycle (Section 6.2 "latency reduction").
    """

    load_latency: int = 2
    use_alu_pipeline: bool = True
    collapsing: bool = False


def _integer_run_is_pipelined(template: MiniGraphTemplate, options: MgtBuildOptions) -> List[bool]:
    """Decide, per instruction, whether it runs on an ALU pipeline stage.

    Integer-only graphs run entirely on an ALU pipeline.  Integer-memory
    graphs run their contiguous trailing integer portion on an ALU pipeline
    when one exists (the paper's "partial mini-graphs on ALU pipelines"),
    while the memory operation uses a load/store port.
    """
    flags = [False] * template.size
    if not options.use_alu_pipeline:
        return flags
    if template.is_integer_only:
        return [not t.is_memory for t in template.instructions]
    # Trailing run of non-memory instructions after the last memory op.
    last_memory = max(i for i, t in enumerate(template.instructions) if t.is_memory)
    for position in range(last_memory + 1, template.size):
        flags[position] = True
    return flags


def build_mgt_entry(mgid: int, template: MiniGraphTemplate,
                    options: Optional[MgtBuildOptions] = None) -> MgtEntry:
    """Build the MGHT header and MGST banks for one template."""
    options = options or MgtBuildOptions()
    pipelined = _integer_run_is_pipelined(template, options)

    banks: List[Optional[MgstEntry]] = []
    start_cycle: List[int] = []
    pipeline_stage = 0
    collapsed_parity = 0
    for position, template_insn in enumerate(template.instructions):
        if position == 0:
            cycle = 0
        else:
            previous_start = start_cycle[position - 1]
            previous = template.instructions[position - 1]
            previous_latency = options.load_latency if previous.is_load else 1
            if (options.collapsing and pipelined[position] and pipelined[position - 1]
                    and not previous.is_load and collapsed_parity == 0):
                # Pair-wise collapsing: this instruction shares its
                # predecessor's cycle.
                cycle = previous_start
                collapsed_parity = 1
            else:
                cycle = previous_start + previous_latency
                collapsed_parity = 0
        start_cycle.append(cycle)
        while len(banks) <= cycle:
            banks.append(None)
        fu = functional_unit_for(template_insn, on_alu_pipeline=pipelined[position],
                                 pipeline_stage=pipeline_stage)
        if pipelined[position]:
            pipeline_stage += 1
        entry = MgstEntry(fu=fu, op=template_insn.op, imm=template_insn.imm,
                          b0=template_insn.src0, b1=template_insn.src1, slot=position)
        if banks[cycle] is None:
            banks[cycle] = entry
        else:
            # Collapsed pair: represent the second op of the pair in the same
            # bank by chaining its description; the timing model only needs
            # the cycle occupancy, which is identical.
            first = banks[cycle]
            banks[cycle] = MgstEntry(
                fu=first.fu, op=f"{first.op}+{entry.op}", imm=first.imm,
                b0=first.b0, b1=first.b1, slot=first.slot)

    last = template.instructions[-1]
    last_latency = options.load_latency if last.is_load else 1
    total_latency = start_cycle[-1] + last_latency
    if template.out_index is not None:
        out_insn = template.instructions[template.out_index]
        out_latency = options.load_latency if out_insn.is_load else 1
        lat = start_cycle[template.out_index] + out_latency
    else:
        lat = total_latency

    fubmp: List[Optional[str]] = []
    for cycle in range(1, len(banks)):
        bank = banks[cycle]
        fubmp.append(bank.fu if bank is not None else None)

    header = MghtEntry(
        lat=lat,
        fu0=banks[0].fu if banks[0] is not None else FU_ALU,
        fubmp=tuple(fubmp),
        total_latency=total_latency,
        size=template.size,
    )
    return MgtEntry(mgid=mgid, template=template, header=header, banks=banks)


class MiniGraphTable:
    """The on-chip MGT: MGID -> (template, MGHT header, MGST banks)."""

    def __init__(self, options: Optional[MgtBuildOptions] = None) -> None:
        self._options = options or MgtBuildOptions()
        self._entries: Dict[int, MgtEntry] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_selection(cls, selection: SelectionResult,
                       options: Optional[MgtBuildOptions] = None) -> "MiniGraphTable":
        """Build an MGT from a selection result (MGIDs follow the selection)."""
        table = cls(options)
        for selected in selection.selected:
            table.add(selected.mgid, selected.template)
        return table

    @classmethod
    def from_templates(cls, templates: Sequence[MiniGraphTemplate],
                       options: Optional[MgtBuildOptions] = None) -> "MiniGraphTable":
        """Build an MGT from bare templates, assigning dense MGIDs."""
        table = cls(options)
        for mgid, template in enumerate(templates):
            table.add(mgid, template)
        return table

    def add(self, mgid: int, template: MiniGraphTemplate) -> MgtEntry:
        """Install ``template`` at ``mgid``; returns the built entry."""
        if mgid in self._entries:
            raise MgtError(f"MGID {mgid} already present in the MGT")
        entry = build_mgt_entry(mgid, template, self._options)
        self._entries[mgid] = entry
        return entry

    # -- lookup ----------------------------------------------------------------

    def __contains__(self, mgid: int) -> bool:
        return mgid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, mgid: int) -> MgtEntry:
        """Return the MGT entry for ``mgid``."""
        try:
            return self._entries[mgid]
        except KeyError as exc:
            raise MgtError(f"MGID {mgid} not present in the MGT") from exc

    def header(self, mgid: int) -> MghtEntry:
        """MGHT read: the scheduling header for ``mgid``."""
        return self.lookup(mgid).header

    def banks(self, mgid: int) -> List[Optional[MgstEntry]]:
        """MGST read: the per-cycle banks for ``mgid``."""
        return self.lookup(mgid).banks

    def mgids(self) -> List[int]:
        return sorted(self._entries)

    # -- formatting -------------------------------------------------------------

    def format_logical(self, mgid: int) -> str:
        """Render one entry in the logical MGT format of Figure 1c."""
        entry = self.lookup(mgid)
        columns = [str(t) for t in entry.template.instructions]
        out = entry.template.out_index if entry.template.out_index is not None else "-"
        return f"MGID {mgid}: OUT={out} | " + " | ".join(columns)

    def format_physical(self, mgid: int) -> str:
        """Render one entry in the physical MGHT/MGST format of Figure 2."""
        entry = self.lookup(mgid)
        banks = []
        for cycle, bank in enumerate(entry.banks):
            banks.append(f"MGST.{cycle}[{bank.describe() if bank else 'empty'}]")
        return f"MGID {mgid}: MGHT[{entry.header.describe()}] " + " ".join(banks)

    def describe(self) -> str:
        """Render the whole table (physical format), one line per MGID."""
        return "\n".join(self.format_physical(mgid) for mgid in self.mgids())
