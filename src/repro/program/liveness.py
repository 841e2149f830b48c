"""Global register liveness analysis.

Mini-graph extraction must distinguish *interface* values (which need a
physical register) from *interior* values (transient, living only in the
bypass network).  A member instruction's result is interior only if nothing
outside the mini-graph ever reads it, which requires knowing which registers
are live at the end of each basic block — a classic backward dataflow
problem solved here over the blocks' static successor edges.

The analysis is conservative in the usual ways:

* blocks that end in calls, indirect jumps or halts are assumed to have every
  register live-out (the callee or unknown successor may read anything);
* the hardwired zero registers are never live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set

from ..isa.opcodes import OpClass
from ..isa.registers import NUM_ARCH_REGS, is_zero_reg
from .basic_block import BasicBlock

#: Register set used when control leaves the analysed program (conservative).
ALL_REGISTERS: FrozenSet[int] = frozenset(
    reg for reg in range(NUM_ARCH_REGS) if not is_zero_reg(reg)
)


@dataclass
class LivenessInfo:
    """Result of liveness analysis for one program.

    Attributes:
        live_in: block id -> registers live at block entry.
        live_out: block id -> registers live at block exit.
    """

    live_in: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    live_out: Dict[int, FrozenSet[int]] = field(default_factory=dict)

    def live_after(self, block: BasicBlock, local_index: int) -> Set[int]:
        """Registers live immediately *after* the instruction at ``local_index``.

        Computed by walking backward from the block exit; cost is linear in
        the block length, which is fine for the block sizes we deal with.
        """
        live = set(self.live_out.get(block.block_id, frozenset()))
        for position in range(len(block.instructions) - 1, local_index, -1):
            insn = block.instructions[position]
            dest = insn.destination_register()
            if dest is not None:
                live.discard(dest)
            live.update(insn.source_registers())
        return live


def block_successors(blocks: Sequence[BasicBlock]) -> Dict[int, List[int]]:
    """Map each block id to the sorted ids of the blocks that can follow it.

    Only static edges count: a conditional branch or a call goes to its
    target or falls through, a jump goes to its target, and a block that
    does not end in a control transfer falls through.  Indirect jumps and
    halts have no static successors.  Every in-program direct target is a
    block leader, so a target is found by its start PC.
    """
    block_at = {block.start_pc: block.block_id for block in blocks}
    successors: Dict[int, List[int]] = {}
    for block in blocks:
        terminator = block.terminator
        op_class = terminator.spec.op_class
        found: Set[int] = set()
        if op_class in (OpClass.BRANCH, OpClass.JUMP, OpClass.CALL) \
                and terminator.imm in block_at:
            found.add(block_at[terminator.imm])
        if op_class not in (OpClass.JUMP, OpClass.INDIRECT, OpClass.HALT) \
                and block.block_id + 1 < len(blocks):
            found.add(block.block_id + 1)
        successors[block.block_id] = sorted(found)
    return successors


def _block_gen_kill(block: BasicBlock) -> tuple[Set[int], Set[int]]:
    """Return (gen, kill): registers read before written / written in block."""
    gen: Set[int] = set()
    kill: Set[int] = set()
    for insn in block.instructions:
        for src in insn.source_registers():
            if src not in kill:
                gen.add(src)
        dest = insn.destination_register()
        if dest is not None:
            kill.add(dest)
    return gen, kill


def _is_escaping_block(block: BasicBlock) -> bool:
    """True if the block's successors are not fully known statically."""
    terminator = block.terminator
    return terminator.spec.op_class in (OpClass.CALL, OpClass.INDIRECT)


def _is_terminating_block(block: BasicBlock) -> bool:
    """True if execution stops at the end of the block (nothing reads registers)."""
    return block.terminator.spec.op_class is OpClass.HALT


def analyze_liveness(blocks: Sequence[BasicBlock]) -> LivenessInfo:
    """Run iterative backward liveness analysis over a program's ``blocks``.

    ``blocks`` is the whole program in layout order, as
    :func:`~repro.program.basic_block.split_basic_blocks` returns it.
    """
    successors = block_successors(blocks)
    gen_kill = {block.block_id: _block_gen_kill(block) for block in blocks}
    live_in: Dict[int, Set[int]] = {block.block_id: set() for block in blocks}
    live_out: Dict[int, Set[int]] = {block.block_id: set() for block in blocks}

    changed = True
    while changed:
        changed = False
        # Reverse layout order converges quickly for mostly-forward CFGs.
        for block in reversed(blocks):
            block_id = block.block_id
            if _is_terminating_block(block):
                out_set: Set[int] = set()
            elif _is_escaping_block(block):
                out_set = set(ALL_REGISTERS)
            else:
                out_set = set()
                for successor in successors[block_id]:
                    out_set |= live_in[successor]
                # A block with no successors at all (e.g. trailing padding)
                # is treated conservatively.
                if not successors[block_id]:
                    out_set = set(ALL_REGISTERS)
            gen, kill = gen_kill[block_id]
            in_set = gen | (out_set - kill)
            if out_set != live_out[block_id] or in_set != live_in[block_id]:
                live_out[block_id] = out_set
                live_in[block_id] = in_set
                changed = True

    return LivenessInfo(
        live_in={bid: frozenset(regs) for bid, regs in live_in.items()},
        live_out={bid: frozenset(regs) for bid, regs in live_out.items()},
    )

