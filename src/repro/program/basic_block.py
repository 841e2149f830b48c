"""Basic block identification for MGA programs.

Mini-graphs are constrained to reside within a single basic block (the
paper's atomicity requirement), so block identification is the first step of
extraction.  A block is a maximal straight-line sequence of instructions with
a single entry (its first instruction) and a single exit (its last).

Leaders are: the program entry, every direct control-transfer target, and
every instruction following a control transfer.  Nops are kept inside blocks
(the rewriter's nop padding relies on this) but are never mini-graph
members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..isa.instruction import Instruction
from .program import Program


@dataclass
class BasicBlock:
    """One basic block of a program.

    Attributes:
        block_id: dense index of the block in layout order.
        start_index: layout index of the first instruction.
        end_index: layout index one past the last instruction.
        start_pc: PC of the first instruction.
        instructions: the block's instructions, in order.
    """

    block_id: int
    start_index: int
    end_index: int
    start_pc: int
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of instructions in the block (including nops)."""
        return len(self.instructions)

    @property
    def useful_size(self) -> int:
        """Number of non-nop instructions in the block."""
        return sum(1 for insn in self.instructions if not insn.is_nop)

    @property
    def terminator(self) -> Instruction:
        """The last instruction of the block."""
        return self.instructions[-1]

    def indices(self) -> range:
        """Layout indices covered by the block."""
        return range(self.start_index, self.end_index)


def find_leaders(program: Program) -> List[int]:
    """Return the sorted list of leader layout indices of ``program``."""
    leaders = {0}
    entry_index = program.index_of(program.entry_pc)
    leaders.add(entry_index)
    for index, insn in enumerate(program.instructions):
        if insn.is_control:
            if index + 1 < len(program.instructions):
                leaders.add(index + 1)
            if insn.is_direct_control and insn.imm is not None:
                if program.contains_pc(insn.imm):
                    leaders.add(program.index_of(insn.imm))
    return sorted(leaders)


def split_basic_blocks(program: Program) -> List[BasicBlock]:
    """Split ``program`` into basic blocks in layout order."""
    leaders = find_leaders(program)
    blocks: List[BasicBlock] = []
    for block_id, start in enumerate(leaders):
        end = leaders[block_id + 1] if block_id + 1 < len(leaders) else len(program.instructions)
        blocks.append(
            BasicBlock(
                block_id=block_id,
                start_index=start,
                end_index=end,
                start_pc=program.pc_of(start),
                instructions=list(program.instructions[start:end]),
            )
        )
    return blocks


class BlockIndex:
    """Fast lookup from PC / layout index to basic block."""

    def __init__(self, program: Program) -> None:
        self._program = program
        self._blocks = split_basic_blocks(program)
        self._by_index: Dict[int, BasicBlock] = {}
        for block in self._blocks:
            for index in block.indices():
                self._by_index[index] = block

    @property
    def blocks(self) -> List[BasicBlock]:
        """All basic blocks, in layout order."""
        return self._blocks

    def block_of_index(self, layout_index: int) -> BasicBlock:
        """Return the block containing layout index ``layout_index``."""
        return self._by_index[layout_index]

    def block_of_pc(self, pc: int) -> BasicBlock:
        """Return the block containing ``pc``."""
        return self.block_of_index(self._program.index_of(pc))


def average_block_size(blocks: Sequence[BasicBlock]) -> float:
    """Average non-nop block size; 0.0 for an empty sequence."""
    if not blocks:
        return 0.0
    return sum(block.useful_size for block in blocks) / len(blocks)
