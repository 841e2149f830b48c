"""Tests for the static program model: programs, basic blocks, successors, liveness."""

import pytest

from repro.isa.instruction import Instruction
from repro.program import (
    BlockIndex,
    Program,
    ProgramError,
    analyze_liveness,
    average_block_size,
    block_successors,
    split_basic_blocks,
)

LOOP_SOURCE = """
start:
  ldi r1, 4
  clr r2
loop:
  addqi r2,1,r2
  subqi r1,1,r1
  bne r1,loop
  halt
"""


@pytest.fixture
def loop_program():
    return Program.from_assembly("loop", LOOP_SOURCE)


class TestProgram:
    def test_pcs_and_indexing(self, loop_program):
        assert loop_program.entry_pc == loop_program.text_base
        for index in range(len(loop_program)):
            pc = loop_program.pc_of(index)
            assert loop_program.index_of(pc) == index
            assert loop_program.contains_pc(pc)

    def test_branch_targets_resolved(self, loop_program):
        branch = [insn for insn in loop_program if insn.is_branch][0]
        assert branch.imm == loop_program.labels["loop"]

    def test_bad_pc_raises(self, loop_program):
        with pytest.raises(ProgramError):
            loop_program.index_of(loop_program.text_base + 2)
        with pytest.raises(ProgramError):
            loop_program.index_of(loop_program.end_pc)

    def test_undefined_target_raises(self):
        with pytest.raises(ProgramError):
            Program("bad", [Instruction("br", target="nowhere"), Instruction("halt")])

    def test_empty_program_raises(self):
        with pytest.raises(ProgramError):
            Program("empty", [])

    def test_disassemble_contains_labels(self, loop_program):
        text = loop_program.disassemble()
        assert "loop:" in text
        assert "bne" in text

    def test_with_instructions_preserves_data(self, loop_program):
        clone = loop_program.with_instructions(list(loop_program.instructions))
        assert clone.labels == loop_program.labels
        assert clone.entry_pc == loop_program.entry_pc


class TestBasicBlocks:
    def test_block_boundaries(self, loop_program):
        blocks = split_basic_blocks(loop_program)
        # Blocks: [start..clr], [loop body with bne], [halt]
        assert len(blocks) == 3
        assert blocks[1].terminator.is_branch
        assert blocks[2].terminator.is_halt

    def test_block_index_lookup(self, loop_program):
        index = BlockIndex(loop_program)
        block = index.block_of_pc(loop_program.labels["loop"])
        assert block.start_pc == loop_program.labels["loop"]

    def test_average_block_size(self, loop_program):
        blocks = split_basic_blocks(loop_program)
        assert average_block_size(blocks) == pytest.approx(6 / 3)

    def test_nops_excluded_from_useful_size(self):
        program = Program.from_assembly("nops", "nop\nnop\naddqi r1,1,r1\nhalt\n")
        blocks = split_basic_blocks(program)
        assert blocks[0].useful_size == 2  # addqi + halt counted, nops not
        assert blocks[0].size == 4


class TestCfg:
    def test_successors_of_branch_block(self, loop_program):
        index = BlockIndex(loop_program)
        loop_block = index.block_of_pc(loop_program.labels["loop"])
        successors = block_successors(index.blocks)[loop_block.block_id]
        assert loop_block.block_id in successors  # taken edge back to itself
        assert len(successors) == 2               # plus fall-through to halt


class TestLiveness:
    def test_loop_counter_is_live_across_back_edge(self, loop_program):
        index = BlockIndex(loop_program)
        liveness = analyze_liveness(index.blocks)
        loop_block = index.block_of_pc(loop_program.labels["loop"])
        # r1 (counter) and r2 (accumulator) are live into the loop block.
        assert 1 in liveness.live_in[loop_block.block_id]
        assert 2 in liveness.live_in[loop_block.block_id]

    def test_dead_temporary_is_not_live_out(self):
        source = """
        start:
          addqi r1,1,r5
          addqi r5,1,r2
          bne r2,start
          halt
        """
        program = Program.from_assembly("t", source)
        index = BlockIndex(program)
        liveness = analyze_liveness(index.blocks)
        block = index.block_of_pc(program.labels["start"])
        # r5 is recomputed before use on every path, so it is not live into
        # the block.
        assert 5 not in liveness.live_in[block.block_id]

    def test_live_after_walks_backward(self, loop_program):
        index = BlockIndex(loop_program)
        liveness = analyze_liveness(index.blocks)
        loop_block = index.block_of_pc(loop_program.labels["loop"])
        live_after_first = liveness.live_after(loop_block, 0)
        assert 1 in live_after_first  # counter still read by subqi/bne
