"""Tests for mini-graph templates and their structural constraints."""

import pytest

from repro.isa.opcodes import CONDITIONAL_MOVES
from repro.minigraph import (
    MiniGraphTemplate,
    TemplateError,
    TemplateInstruction,
    external,
    immediate,
    internal,
)


def _chain_template():
    """The paper's Figure 1 left mini-graph: addl / cmplt / bne."""
    return MiniGraphTemplate(
        instructions=(
            TemplateInstruction("addli", src0=external(0), imm=2),
            TemplateInstruction("cmplt", src0=internal(0), src1=external(1)),
            TemplateInstruction("bne", src0=internal(1), imm=0xA),
        ),
        num_inputs=2,
        out_index=0,
    )


def _load_template():
    """The paper's Figure 1 right mini-graph: ldq / srl / and."""
    return MiniGraphTemplate(
        instructions=(
            TemplateInstruction("ldq", src0=external(0), imm=16),
            TemplateInstruction("srli", src0=internal(0), imm=14),
            TemplateInstruction("andi", src0=internal(1), imm=1),
        ),
        num_inputs=1,
        out_index=2,
    )


class TestTemplateProperties:
    def test_chain_template_shape(self):
        template = _chain_template()
        assert template.size == 3
        assert template.is_integer_only
        assert template.has_branch
        assert not template.has_memory
        assert template.is_serial_chain
        assert not template.is_internally_parallel

    def test_chain_template_is_externally_serial(self):
        # cmplt reads E1, an external input to the second instruction.
        assert _chain_template().is_externally_serial

    def test_load_template_shape(self):
        template = _load_template()
        assert template.is_integer_memory
        assert template.has_load
        assert template.load_position == 0
        assert template.has_interior_load
        assert not template.is_externally_serial

    def test_terminal_load_is_not_interior(self):
        template = MiniGraphTemplate(
            instructions=(
                TemplateInstruction("addli", src0=external(0), imm=8),
                TemplateInstruction("ldq", src0=internal(0), imm=0),
            ),
            num_inputs=1,
            out_index=1,
        )
        assert template.has_load
        assert not template.has_interior_load

    def test_internally_parallel_detection(self):
        template = MiniGraphTemplate(
            instructions=(
                TemplateInstruction("addli", src0=external(0), imm=1),
                TemplateInstruction("addli", src0=external(1), imm=2),
                TemplateInstruction("addq", src0=internal(0), src1=internal(1)),
            ),
            num_inputs=2,
            out_index=2,
        )
        assert template.is_internally_parallel
        assert not template.is_serial_chain

    def test_key_is_stable_and_discriminating(self):
        assert _chain_template().key() == _chain_template().key()
        assert _chain_template().key() != _load_template().key()

    def test_describe_mentions_operands(self):
        text = _chain_template().describe()
        assert "E0" in text and "M0" in text and "bne" in text


class TestTemplateValidation:
    def test_single_instruction_rejected(self):
        with pytest.raises(TemplateError):
            MiniGraphTemplate(
                instructions=(TemplateInstruction("addli", src0=external(0), imm=1),),
                num_inputs=1, out_index=0)

    def test_two_memory_ops_rejected(self):
        with pytest.raises(TemplateError):
            MiniGraphTemplate(
                instructions=(
                    TemplateInstruction("ldq", src0=external(0), imm=0),
                    TemplateInstruction("stq", src0=external(1), src1=internal(0), imm=0),
                ),
                num_inputs=2, out_index=None)

    def test_non_terminal_branch_rejected(self):
        with pytest.raises(TemplateError):
            MiniGraphTemplate(
                instructions=(
                    TemplateInstruction("bne", src0=external(0), imm=0),
                    TemplateInstruction("addli", src0=external(1), imm=1),
                ),
                num_inputs=2, out_index=1)

    def test_internal_reference_must_point_backwards(self):
        with pytest.raises(TemplateError):
            MiniGraphTemplate(
                instructions=(
                    TemplateInstruction("addli", src0=internal(1), imm=1),
                    TemplateInstruction("addli", src0=external(0), imm=1),
                ),
                num_inputs=1, out_index=1)

    def test_multiplies_are_not_eligible(self):
        with pytest.raises(TemplateError):
            MiniGraphTemplate(
                instructions=(
                    TemplateInstruction("mull", src0=external(0), src1=external(1)),
                    TemplateInstruction("addli", src0=internal(0), imm=1),
                ),
                num_inputs=2, out_index=1)

    def test_out_index_must_write_a_register(self):
        with pytest.raises(TemplateError):
            MiniGraphTemplate(
                instructions=(
                    TemplateInstruction("addli", src0=external(0), imm=1),
                    TemplateInstruction("bne", src0=internal(0), imm=0),
                ),
                num_inputs=1, out_index=1)

    def test_too_many_inputs_rejected(self):
        with pytest.raises(TemplateError):
            MiniGraphTemplate(
                instructions=(
                    TemplateInstruction("addq", src0=external(0), src1=external(1)),
                    TemplateInstruction("addq", src0=internal(0), src1=external(2)),
                ),
                num_inputs=3, out_index=1)

    @pytest.mark.parametrize("op", sorted(CONDITIONAL_MOVES))
    def test_conditional_moves_rejected(self, op):
        # A conditional move also reads its destination, which a template
        # cannot name: the cmovne graph run as ``mg r1,r2,r3`` with r1 = 0
        # used to leave r3 = r2 instead of keeping r3.
        with pytest.raises(TemplateError, match=op):
            MiniGraphTemplate(
                (TemplateInstruction(op, external(0), external(1)),
                 TemplateInstruction("addqi", internal(0), None, 0)),
                2, 1)
