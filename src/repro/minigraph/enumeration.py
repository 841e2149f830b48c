"""Enumeration of legal mini-graph candidates within basic blocks.

This implements the first stage of the paper's selection flow: analyse the
static executable and enumerate all possible legal mini-graphs.  Enumeration
works one basic block at a time (atomicity restricts mini-graphs to basic
blocks) and grows connected subgraphs of the block-local dependence graph up
to a maximum size.

Legality testing goes beyond the interface (two register inputs, one register
output) and composition (one memory operation, terminal control transfer)
conditions: because member instructions are collapsed around a statically
chosen *anchor* (branch > memory operation > last instruction), the collapse
must not change execution semantics.  The interference check rejects
candidates whose members cannot be moved to the anchor position past the
intervening non-member instructions.

Incremental core (see ``docs/architecture.md``, "Compilation front-end"):

* per-block candidate lists are **memoized** process-wide, keyed by the
  block's instruction content, the enumeration limits, and the slice of the
  block's live-out set that its written registers can observe.  Fragment-
  built workloads, shared loop bodies and repeated domain-suite blocks
  enumerate once; later blocks only rebind the cached *relative* candidates
  to their layout position;
* the per-block context is flat position-indexed arrays (reads, producers,
  writes, opcode flags) instead of dicts-of-tuples, and connected-subset
  search runs on int bitsets;
* templates are interned through :mod:`repro.minigraph.registry` from raw
  structural keys, so a dataflow shape is constructed and validated at most
  once per process, and every candidate leaves the enumerator carrying its
  template's id.  A shape that fails validation raises
  :class:`~repro.minigraph.templates.TemplateError`: the legality checks
  here admit only valid shapes, so one that does not is a bug.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import CONDITIONAL_MOVES, OpClass, opcode
from ..isa.registers import is_zero_reg
from ..program.basic_block import BasicBlock, split_basic_blocks
from ..program.liveness import analyze_liveness
from ..program.program import Program
from ..program.weakcache import PerProgramCache
from .candidates import MiniGraphCandidate
from .registry import FRONTEND_STATS, TEMPLATE_REGISTRY
from .templates import (
    MAX_EXTERNAL_INPUTS,
    MiniGraphTemplate,
    OperandRef,
    TemplateInstruction,
    external,
    internal,
    zero,
)


@dataclass
class EnumerationLimits:
    """Bounds on the enumeration search.

    Attributes:
        max_size: maximum number of instructions per mini-graph (paper sweeps
            2, 3, 4 and 8; the main results use 4).
        allow_memory: include loads/stores (integer-memory mini-graphs).
        allow_branches: include terminal control transfers.
        max_candidates_per_block: safety valve on pathological blocks.
    """

    max_size: int = 4
    allow_memory: bool = True
    allow_branches: bool = True
    max_candidates_per_block: int = 4096

    def _memo_key(self) -> Tuple:
        return (self.max_size, self.allow_memory, self.allow_branches,
                self.max_candidates_per_block)


class EnumerationResult(List[MiniGraphCandidate]):
    """Candidate list plus enumeration bookkeeping.

    A ``list`` subclass so every existing consumer of
    :func:`enumerate_minigraphs` keeps working; the extra attributes surface
    what the safety valves silently dropped (``truncated_blocks`` /
    ``dropped_subsets``).  Slicing or filtering returns plain lists — the
    attributes describe this exact enumeration, not derived views.  Block
    memo traffic is counted in :data:`~repro.minigraph.registry.
    FRONTEND_STATS`.
    """

    truncated_blocks: int = 0
    dropped_subsets: int = 0

    @property
    def truncated(self) -> bool:
        """True if any per-block safety valve dropped candidates."""
        return self.truncated_blocks > 0


# -- per-opcode flags ----------------------------------------------------------

class _OpFlags(NamedTuple):
    """Flat per-mnemonic facts, resolved once instead of per property chain."""

    eligible: bool        # minigraph_eligible and not nop/handle
    is_memory: bool
    is_control: bool
    is_load: bool
    is_store: bool
    reads_rs1: bool
    reads_rs2: bool
    writes_rd: bool
    is_cmov: bool         # implicitly reads the destination register


_OP_FLAGS: Dict[str, _OpFlags] = {}

#: Encoded operand references in the registry's raw structural keys:
#: ``(kind << 8) | index`` with kind E=0, M=1, Z=3 (see :func:`_decode_ref`).
_ENC_EXTERNAL = 0 << 8
_ENC_INTERNAL = 1 << 8
_ENC_ZERO = 3 << 8


def _op_flags(op: str) -> _OpFlags:
    flags = _OP_FLAGS.get(op)
    if flags is None:
        spec = opcode(op)
        flags = _OP_FLAGS[op] = _OpFlags(
            eligible=(spec.minigraph_eligible
                      and spec.op_class is not OpClass.NOP
                      and spec.op_class is not OpClass.MG),
            is_memory=spec.is_memory,
            is_control=spec.is_control,
            is_load=spec.is_load,
            is_store=spec.is_store,
            reads_rs1=spec.reads_rs1,
            reads_rs2=spec.reads_rs2,
            writes_rd=spec.writes_rd,
            is_cmov=op in CONDITIONAL_MOVES,
        )
    return flags


def _sources_of(insn: Instruction, flags: _OpFlags) -> Tuple[int, ...]:
    """``Instruction.source_registers`` on precomputed flags (hot path)."""
    sources = []
    rs1 = insn.rs1
    if flags.reads_rs1 and rs1 is not None and not is_zero_reg(rs1):
        sources.append(rs1)
    rs2 = insn.rs2
    if flags.reads_rs2 and rs2 is not None and not is_zero_reg(rs2):
        sources.append(rs2)
    if flags.is_cmov:
        rd = insn.rd
        if rd is not None and not is_zero_reg(rd) and rd not in sources:
            sources.append(rd)
    return tuple(sources)


def _dest_of(insn: Instruction, flags: _OpFlags) -> Optional[int]:
    """``Instruction.destination_register`` on precomputed flags (hot path)."""
    rd = insn.rd
    if not flags.writes_rd or rd is None or is_zero_reg(rd):
        return None
    return rd


# -- per-program analysis (weak, id-keyed cache) -------------------------------

@dataclass
class _ProgramAnalysis:
    """Blocks and live-out sets, shared by every enumeration of a program.

    Deliberately holds no reference to the :class:`Program` itself so the
    :class:`PerProgramCache` finalizer can fire; basic blocks only reference
    the shared instruction objects.
    """

    blocks: List[BasicBlock]
    live_out: Dict[int, FrozenSet[int]]


def _build_analysis(program: Program) -> _ProgramAnalysis:
    blocks = split_basic_blocks(program)
    return _ProgramAnalysis(blocks=blocks,
                            live_out=dict(analyze_liveness(blocks).live_out))


_ANALYSIS_CACHE: PerProgramCache[_ProgramAnalysis] = PerProgramCache(_build_analysis)


# -- flat per-block context ----------------------------------------------------

class _BlockContext:
    """Pre-computed per-block information shared by all candidate checks.

    Everything is a flat position-indexed array (the seed used
    dicts-of-tuples); ``read_producers[p]`` is aligned with ``reads[p]`` and
    holds the block-local position of each read's most recent definition, or
    None when the value enters the block live.  ``out_events[p]`` is the
    ordered list of later positions that read or redefine ``writes[p]`` (cut
    at the first redefinition) — the only positions the output-visibility
    scan ever has to look at, precomputed once per block instead of walking
    the whole block tail per candidate.
    """

    __slots__ = ("instructions", "eligible", "reads", "read_producers",
                 "writes", "is_memory", "is_control", "live_after_block",
                 "out_events")

    def __init__(self, instructions: Sequence[Instruction],
                 limits: EnumerationLimits,
                 live_after_block: FrozenSet[int]) -> None:
        self.instructions = instructions
        self.live_after_block = live_after_block
        length = len(instructions)
        self.reads: List[Tuple[int, ...]] = []
        self.read_producers: List[Tuple[Optional[int], ...]] = []
        self.writes: List[Optional[int]] = []
        self.is_memory: List[bool] = []
        self.is_control: List[bool] = []
        self.eligible: List[int] = []
        last_def: Dict[int, int] = {}
        for position, insn in enumerate(instructions):
            flags = _op_flags(insn.op)
            sources = _sources_of(insn, flags)
            self.reads.append(sources)
            self.read_producers.append(
                tuple(last_def.get(reg) for reg in sources))
            dest = _dest_of(insn, flags)
            self.writes.append(dest)
            self.is_memory.append(flags.is_memory)
            self.is_control.append(flags.is_control)
            if self._is_eligible(flags, position, length, limits):
                self.eligible.append(position)
            if dest is not None:
                last_def[dest] = position

        writes = self.writes
        reads = self.reads
        out_events: List[Optional[Tuple[Tuple[int, bool, bool], ...]]] = []
        for position in range(length):
            dest = writes[position]
            if dest is None:
                out_events.append(None)
                continue
            events: List[Tuple[int, bool, bool]] = []
            for later in range(position + 1, length):
                reads_dest = dest in reads[later]
                writes_dest = writes[later] == dest
                if reads_dest or writes_dest:
                    events.append((later, reads_dest, writes_dest))
                    if writes_dest:
                        break
            out_events.append(tuple(events))
        self.out_events = out_events

    @staticmethod
    def _is_eligible(flags: _OpFlags, position: int, block_length: int,
                     limits: EnumerationLimits) -> bool:
        # Conditional moves read their destination implicitly, which a
        # template cannot name; they stay singletons.
        if not flags.eligible or flags.is_cmov:
            return False
        if flags.is_memory and not limits.allow_memory:
            return False
        if flags.is_control:
            if not limits.allow_branches:
                return False
            # Control transfers must be terminal: only the block's last
            # instruction qualifies, and indirect transfers / calls never do
            # (minigraph_eligible already excludes them).
            if position != block_length - 1:
                return False
        return True


# -- memoized relative candidates ----------------------------------------------

class _RelCandidate(NamedTuple):
    """A candidate relative to its block start, ready for cheap rebinding."""

    members: Tuple[int, ...]      # block-local member positions
    anchor: int                   # block-local anchor position
    template: MiniGraphTemplate   # canonical (registry-owned) object
    template_id: int
    input_regs: Tuple[int, ...]
    output_reg: Optional[int]


class _BlockEntry(NamedTuple):
    """Memoized enumeration of one block content under one set of limits."""

    candidates: Tuple[_RelCandidate, ...]
    truncated: bool
    dropped_subsets: int


#: Process-wide block memo.  Soft-capped: insertion-ordered eviction keeps
#: streaming over an unbounded corpus O(distinct recent blocks).
_BLOCK_MEMO: Dict[Tuple, _BlockEntry] = {}
_BLOCK_MEMO_MAX = 1 << 16


def clear_block_memo() -> None:
    """Drop every memoized block (tests, memory pressure)."""
    _BLOCK_MEMO.clear()


def _block_content_key(instructions: Sequence[Instruction]
                       ) -> Tuple[Tuple, FrozenSet[int]]:
    """(content key, written registers) of a block's instruction sequence."""
    rows = []
    written: Set[int] = set()
    for insn in instructions:
        op = insn.op
        rows.append((op, insn.rd, insn.rs1, insn.rs2, insn.imm))
        dest = _dest_of(insn, _op_flags(op))
        if dest is not None:
            written.add(dest)
    return tuple(rows), frozenset(written)


class MiniGraphEnumerator:
    """Enumerates legal mini-graph candidates for one program."""

    def __init__(self, program: Program, limits: Optional[EnumerationLimits] = None) -> None:
        self._limits = limits or EnumerationLimits()
        self._analysis = _ANALYSIS_CACHE.get(program)

    # -- public API ----------------------------------------------------------

    def enumerate(self) -> EnumerationResult:
        """Enumerate all legal candidates in the whole program."""
        start = time.perf_counter()
        result = EnumerationResult()
        hits = 0
        for block in self._analysis.blocks:
            entry, hit = self._block_entry(block)
            hits += hit
            if entry.truncated:
                result.truncated_blocks += 1
                result.dropped_subsets += entry.dropped_subsets
            base = block.start_index
            block_id = block.block_id
            for rel in entry.candidates:
                result.append(MiniGraphCandidate(
                    block_id=block_id,
                    member_indices=tuple(base + position
                                         for position in rel.members),
                    anchor_index=base + rel.anchor,
                    template=rel.template,
                    input_regs=rel.input_regs,
                    output_reg=rel.output_reg,
                    template_id=rel.template_id,
                ))
        stats = FRONTEND_STATS
        stats.enumeration_seconds += time.perf_counter() - start
        blocks = len(self._analysis.blocks)
        stats.candidates_enumerated += len(result)
        stats.blocks_enumerated += blocks
        stats.block_memo_hits += hits
        stats.block_memo_misses += blocks - hits
        stats.truncated_blocks += result.truncated_blocks
        stats.dropped_candidates += result.dropped_subsets
        return result

    # -- memo ----------------------------------------------------------------

    def _block_entry(self, block: BasicBlock) -> Tuple[_BlockEntry, bool]:
        live_out = self._analysis.live_out.get(block.block_id, frozenset())
        content_key, written = _block_content_key(block.instructions)
        memo_key = (content_key, tuple(sorted(live_out & written)),
                    self._limits._memo_key())
        entry = _BLOCK_MEMO.get(memo_key)
        if entry is not None:
            return entry, True
        context = _BlockContext(block.instructions, self._limits,
                                live_out)
        entry = self._enumerate_context(context)
        if len(_BLOCK_MEMO) >= _BLOCK_MEMO_MAX:
            # Insertion-ordered soft eviction: drop the oldest entry so a
            # streaming corpus cannot grow the memo without bound.
            del _BLOCK_MEMO[next(iter(_BLOCK_MEMO))]
        _BLOCK_MEMO[memo_key] = entry
        return entry, False

    def _enumerate_context(self, context: _BlockContext) -> _BlockEntry:
        if len(context.eligible) < 2:
            return _BlockEntry(candidates=(), truncated=False, dropped_subsets=0)
        subsets, subsets_capped = self._connected_subsets(context)
        candidates: List[_RelCandidate] = []
        consumed = 0
        cap = self._limits.max_candidates_per_block
        for subset in subsets:
            consumed += 1
            candidate = self._try_build_candidate(context, subset)
            if candidate is not None:
                candidates.append(candidate)
            if len(candidates) >= cap:
                break
        dropped = len(subsets) - consumed
        return _BlockEntry(candidates=tuple(candidates),
                           truncated=subsets_capped or dropped > 0,
                           dropped_subsets=dropped)

    # -- connected subset enumeration -----------------------------------------

    def _dependence_masks(self, context: _BlockContext) -> Dict[int, int]:
        """Undirected block-local true-dependence adjacency as bitsets."""
        masks: Dict[int, int] = {position: 0 for position in context.eligible}
        eligible_set = set(context.eligible)
        for position in context.eligible:
            producers = context.read_producers[position]
            for producer in producers:
                if producer is not None and producer in eligible_set:
                    masks[position] |= 1 << producer
                    masks[producer] |= 1 << position
        return masks

    def _connected_subsets(self, context: _BlockContext
                           ) -> Tuple[List[Tuple[int, ...]], bool]:
        """Enumerate connected subsets (size 2..max_size) of the dependence graph.

        Uses the standard "anchor at the smallest member" expansion so every
        connected subset is produced exactly once; subsets, frontiers and
        exclusion sets are int bitsets.  Returns the subsets (in the same
        deterministic DFS order as the seed implementation — the order the
        ``max_candidates_per_block`` valve truncates in) and whether the
        subset safety valve itself capped the search.
        """
        masks = self._dependence_masks(context)
        max_size = self._limits.max_size
        results: List[Tuple[int, ...]] = []
        limit = self._limits.max_candidates_per_block * 4
        dropped = False  # a subset was actually discarded, not just limit == count

        def expand(current: int, count: int, frontier: int, forbidden: int) -> None:
            nonlocal dropped
            if len(results) >= limit:
                if count >= 2:
                    # This call would have recorded ``current``: real truncation.
                    dropped = True
                return
            if count >= 2:
                members = []
                remaining = current
                while remaining:
                    bit = remaining & -remaining
                    members.append(bit.bit_length() - 1)
                    remaining ^= bit
                results.append(tuple(members))
            if count >= max_size:
                return
            local_forbidden = forbidden
            pending = frontier
            while pending:
                node_bit = pending & -pending
                pending ^= node_bit
                node = node_bit.bit_length() - 1
                new_frontier = ((frontier | masks[node])
                                & ~current & ~node_bit & ~local_forbidden)
                expand(current | node_bit, count + 1, new_frontier,
                       local_forbidden)
                local_forbidden |= node_bit

        for position, seed in enumerate(context.eligible):
            seed_bit = 1 << seed
            forbidden = seed_bit - 1  # every position below the seed
            expand(seed_bit, 1, masks[seed] & ~forbidden, forbidden)
            if len(results) >= limit:
                if not dropped:
                    # A remaining seed with a higher-position neighbour would
                    # have produced at least the pair subset {seed, neighbour}.
                    for unprocessed in context.eligible[position + 1:]:
                        if masks[unprocessed] & ~((1 << (unprocessed + 1)) - 1):
                            dropped = True
                            break
                break
        return results, dropped

    # -- candidate construction and legality ----------------------------------

    def _choose_anchor(self, context: _BlockContext, members: Sequence[int]) -> int:
        """Anchor preference: branch, then memory operation, then last member."""
        for position in members:
            if context.is_control[position]:
                return position
        for position in members:
            if context.is_memory[position]:
                return position
        return members[-1]

    def _try_build_candidate(self, context: _BlockContext,
                             members: Tuple[int, ...]) -> Optional[_RelCandidate]:
        is_memory = context.is_memory
        is_control = context.is_control

        memory_count = 0
        control_count = 0
        member_mask = 0
        for position in members:
            member_mask |= 1 << position
            if is_memory[position]:
                memory_count += 1
            if is_control[position]:
                control_count += 1
        if memory_count > 1 or control_count > 1:
            return None
        if control_count == 1 and not is_control[members[-1]]:
            return None

        interface = self._interface_registers(context, members, member_mask)
        if interface is None:
            return None
        input_regs, output_reg, out_member = interface

        anchor = self._choose_anchor(context, members)
        if not self._movement_is_legal(context, members, member_mask, anchor):
            return None

        template_id, template = self._intern_template(
            context, members, member_mask, input_regs, out_member)

        return _RelCandidate(
            members=members,
            anchor=anchor,
            template=template,
            template_id=template_id,
            input_regs=input_regs,
            output_reg=output_reg,
        )

    def _interface_registers(self, context: _BlockContext,
                             members: Tuple[int, ...], member_mask: int
                             ) -> Optional[Tuple[Tuple[int, ...], Optional[int], Optional[int]]]:
        """Compute (input_regs, output_reg, out_member) or None if illegal.

        *Inputs* are registers read by members whose most recent definition is
        not another member.  *Outputs* are member-produced values that are
        observable outside the graph: read later in the block by a non-member
        before redefinition, or reaching the block end while the register is
        live-out.  At most two inputs and one output are allowed.
        """
        reads = context.reads
        writes = context.writes
        input_regs: List[int] = []
        for position in members:
            producers = context.read_producers[position]
            for slot, reg in enumerate(reads[position]):
                producer = producers[slot]
                if producer is not None and (member_mask >> producer) & 1:
                    continue
                if reg not in input_regs:
                    input_regs.append(reg)
        if len(input_regs) > MAX_EXTERNAL_INPUTS:
            return None

        output_reg: Optional[int] = None
        out_member: Optional[int] = None
        out_events = context.out_events
        for position in members:
            dest = writes[position]
            if dest is None:
                continue
            visible = False
            redefined = False
            for later, reads_dest, writes_dest in out_events[position]:
                if reads_dest and not (member_mask >> later) & 1:
                    visible = True
                    break
                if writes_dest:
                    # Redefinition kills this value before any external use in
                    # the block; redefinitions by later members do not make the
                    # value external either.
                    redefined = True
                    break
            if not visible and not redefined and dest in context.live_after_block:
                visible = True
            if visible:
                if output_reg is not None and (output_reg != dest or out_member != position):
                    return None
                output_reg = dest
                out_member = position
        return tuple(input_regs), output_reg, out_member

    def _movement_is_legal(self, context: _BlockContext, members: Tuple[int, ...],
                           member_mask: int, anchor: int) -> bool:
        """Check that collapsing all members at ``anchor`` preserves semantics.

        A member moving across an intervening non-member must not have a true,
        anti or output register dependence with it, and memory members must
        not cross other memory operations (conservative no-alias assumption).
        """
        reads = context.reads
        writes = context.writes
        for position in members:
            if position == anchor:
                continue
            low, high = (position, anchor) if position < anchor else (anchor, position)
            member_reads = reads[position]
            member_write = writes[position]
            member_is_memory = context.is_memory[position]
            for between in range(low + 1, high):
                if (member_mask >> between) & 1:
                    continue
                other_write = writes[between]
                if other_write is not None:
                    if other_write in member_reads:
                        return False
                    if member_write is not None and member_write == other_write:
                        return False
                if member_write is not None and member_write in reads[between]:
                    return False
                if member_is_memory and context.is_memory[between]:
                    return False
                if context.is_control[between]:
                    # Should not happen inside a block, but never hoist across
                    # a control transfer.
                    return False
        return True

    def _intern_template(self, context: _BlockContext, members: Tuple[int, ...],
                         member_mask: int, input_regs: Tuple[int, ...],
                         out_member: Optional[int]
                         ) -> Tuple[int, MiniGraphTemplate]:
        """Build the raw structural key and intern it (construct on first use)."""
        position_to_slot = {position: slot for slot, position in enumerate(members)}
        input_index = {reg: index for index, reg in enumerate(input_regs)}
        rows: List[Tuple[str, Optional[int], Optional[int], Optional[int]]] = []

        for position in members:
            insn = context.instructions[position]
            flags = _op_flags(insn.op)
            sources = context.reads[position]
            producers = context.read_producers[position]

            encoded = [None, None]
            for operand, (reg, is_read) in enumerate(
                    ((insn.rs1, flags.reads_rs1), (insn.rs2, flags.reads_rs2))):
                if not is_read or reg is None:
                    continue
                for slot, read_reg in enumerate(sources):
                    if read_reg == reg:
                        producer = producers[slot]
                        if producer is not None and (member_mask >> producer) & 1:
                            encoded[operand] = _ENC_INTERNAL | position_to_slot[producer]
                        else:
                            encoded[operand] = _ENC_EXTERNAL | input_index[reg]
                        break
                else:
                    # Reads of the hardwired zero register.
                    encoded[operand] = _ENC_ZERO

            rows.append((insn.op, encoded[0], encoded[1], insn.imm))

        out_index = position_to_slot[out_member] if out_member is not None else None
        raw_key = (tuple(rows), len(input_regs), out_index)
        template_id = TEMPLATE_REGISTRY.intern_raw(
            raw_key, lambda: _build_template(rows, len(input_regs), out_index))
        return template_id, TEMPLATE_REGISTRY.template(template_id)


#: Interned OperandRef instances, keyed by encoding.
_REF_CACHE: Dict[Optional[int], Optional[OperandRef]] = {None: None}


def _decode_ref(encoded: Optional[int]) -> Optional[OperandRef]:
    ref = _REF_CACHE.get(encoded, _REF_CACHE)
    if ref is _REF_CACHE:
        kind = encoded >> 8
        if kind == 0:
            ref = external(encoded & 0xFF)
        elif kind == 1:
            ref = internal(encoded & 0xFF)
        else:
            ref = zero()
        _REF_CACHE[encoded] = ref
    return ref


def _build_template(rows: Sequence[Tuple[str, Optional[int], Optional[int], Optional[int]]],
                    num_inputs: int, out_index: Optional[int]) -> MiniGraphTemplate:
    """Construct and validate the template raw ``rows`` encode (intern miss)."""
    return MiniGraphTemplate(
        instructions=tuple(
            TemplateInstruction(op=op, src0=_decode_ref(enc0),
                                src1=_decode_ref(enc1), imm=imm)
            for op, enc0, enc1, imm in rows),
        num_inputs=num_inputs,
        out_index=out_index,
    )


def enumerate_minigraphs(program: Program,
                         limits: Optional[EnumerationLimits] = None
                         ) -> EnumerationResult:
    """Enumerate all legal mini-graph candidates of ``program``.

    Returns an :class:`EnumerationResult` — a plain candidate list carrying
    truncation bookkeeping as attributes.  Every candidate carries its
    template's interned id.
    """
    return MiniGraphEnumerator(program, limits).enumerate()
