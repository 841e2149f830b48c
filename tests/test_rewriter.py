"""Tests for the binary rewriter."""

import pytest

from repro.isa.instruction import Instruction
from repro.program import Program, RewriteError, RewriteSite, rewrite_program
from repro.uarch import FetchLayout

SOURCE = """
start:
  ldi r1, 10
loop:
  addqi r2,1,r2
  srli r2,3,r3
  andi r3,1,r4
  subqi r1,1,r1
  bne r1,loop
  halt
"""


@pytest.fixture
def program():
    return Program.from_assembly("rewrite-target", SOURCE)


def _site(program, member_labels, anchor_label, mgid=0, inputs=(2,), output=4):
    return RewriteSite(
        anchor_index=anchor_label,
        member_indices=tuple(member_labels),
        mgid=mgid,
        input_regs=tuple(inputs),
        output_reg=output,
    )


def test_padded_rewrite_keeps_layout(program):
    # Collapse srli (index 2) and andi (index 3) around the andi anchor.
    site = _site(program, (2, 3), 3)
    result = rewrite_program(program, [site])
    rewritten = result.program
    assert len(rewritten) == len(program)
    assert rewritten.instructions[2].is_nop
    assert rewritten.instructions[3].is_handle
    assert result.removed_instructions == 1
    assert rewritten.labels == program.labels


def test_handle_records_interface(program):
    site = _site(program, (2, 3), 3, mgid=7, inputs=(2,), output=4)
    result = rewrite_program(program, [site])
    handle = result.program.instructions[3]
    assert handle.mgid == 7
    assert handle.rs1 == 2
    assert handle.rd == 4


def test_handle_pcs_map(program):
    site = _site(program, (2, 3), 3, mgid=9)
    result = rewrite_program(program, [site])
    pc = result.program.pc_of(3)
    assert result.handle_pcs[pc] == 9


def test_fetch_layout_models_the_compressed_layout(program):
    rewritten = rewrite_program(program, [_site(program, (2, 3), 3)]).program
    indices = range(len(rewritten))

    padded = FetchLayout(rewritten)
    assert [padded.address_for_index(i) for i in indices] == \
        [rewritten.pc_of(i) for i in indices]

    # Section 6.2: the absorbed srli's nop takes no space, so every other
    # instruction, the handle included, gets the next dense fetch address.
    compressed = FetchLayout(rewritten, compressed=True)
    kept = [i for i in indices if not rewritten.instructions[i].is_nop]
    assert kept == [0, 1, 3, 4, 5, 6]
    assert [compressed.address_for_index(i) for i in kept] == \
        [rewritten.text_base + 4 * dense for dense in range(len(kept))]


def test_overlapping_sites_rejected(program):
    first = _site(program, (2, 3), 3)
    second = _site(program, (3, 4), 4, mgid=1)
    with pytest.raises(RewriteError):
        rewrite_program(program, [first, second])


def test_anchor_must_be_member(program):
    with pytest.raises(RewriteError):
        RewriteSite(anchor_index=5, member_indices=(2, 3), mgid=0,
                    input_regs=(2,), output_reg=4)


def test_too_many_inputs_rejected(program):
    with pytest.raises(RewriteError):
        RewriteSite(anchor_index=3, member_indices=(2, 3), mgid=0,
                    input_regs=(1, 2, 3), output_reg=4)


def test_rewriting_nop_member_rejected(program):
    padded = rewrite_program(program, [_site(program, (2, 3), 3)]).program
    with pytest.raises(RewriteError):
        rewrite_program(padded, [_site(padded, (2, 3), 3)])


def test_rewriting_handle_member_rejected(program):
    padded = rewrite_program(program, [_site(program, (2, 3), 3)]).program
    with pytest.raises(RewriteError):
        rewrite_program(padded, [_site(padded, (3, 4), 4)])


def test_metadata_marks_rewritten(program):
    result = rewrite_program(program, [_site(program, (2, 3), 3)])
    assert result.program.metadata["rewritten"] is True
    assert result.program.metadata["compressed"] is False
