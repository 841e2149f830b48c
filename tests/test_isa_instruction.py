"""Tests for the Instruction dataclass and register namespace."""

import pytest

from repro.isa.instruction import Instruction, format_instruction, make_handle, make_nop
from repro.isa.registers import (
    NUM_ARCH_REGS,
    ZERO_REG,
    FP_ZERO_REG,
    RegisterError,
    fp_reg,
    int_reg,
    is_fp_reg,
    is_int_reg,
    is_zero_reg,
    parse_reg,
    reg_name,
)


class TestRegisters:
    def test_int_and_fp_ranges(self):
        assert is_int_reg(0)
        assert is_int_reg(31)
        assert is_fp_reg(32)
        assert is_fp_reg(63)
        assert not is_int_reg(32)
        assert not is_fp_reg(64)

    def test_zero_registers(self):
        assert is_zero_reg(ZERO_REG)
        assert is_zero_reg(FP_ZERO_REG)
        assert not is_zero_reg(0)

    def test_reg_name_round_trip(self):
        for reg in range(NUM_ARCH_REGS):
            assert parse_reg(reg_name(reg)) == reg

    def test_parse_aliases(self):
        assert parse_reg("zero") == ZERO_REG
        assert parse_reg("sp") == 30
        assert parse_reg("ra") == 26

    def test_parse_rejects_garbage(self):
        with pytest.raises(RegisterError):
            parse_reg("x5")
        with pytest.raises(RegisterError):
            parse_reg("r99")

    def test_constructors_reject_out_of_range(self):
        with pytest.raises(RegisterError):
            int_reg(32)
        with pytest.raises(RegisterError):
            fp_reg(-1)


class TestInstruction:
    def test_alu_instruction_sources_and_dest(self):
        insn = Instruction("addl", rd=3, rs1=1, rs2=2)
        assert insn.source_registers() == (1, 2)
        assert insn.destination_register() == 3

    def test_zero_register_reads_are_not_dependences(self):
        insn = Instruction("addl", rd=3, rs1=ZERO_REG, rs2=2)
        assert insn.source_registers() == (2,)

    def test_write_to_zero_register_is_discarded(self):
        insn = Instruction("addl", rd=ZERO_REG, rs1=1, rs2=2)
        assert insn.destination_register() is None

    def test_missing_operand_raises(self):
        with pytest.raises(ValueError):
            Instruction("addl", rd=3, rs1=1)  # missing rs2

    def test_missing_immediate_raises(self):
        for insn in (dict(op="addqi", rd=1, rs1=1), dict(op="zapnot", rd=1, rs1=1),
                     dict(op="bne", rs1=7), dict(op="mg", rd=1, rs1=2, rs2=3)):
            with pytest.raises(ValueError, match="missing immediate"):
                Instruction(**insn)
        # A control transfer may carry its label alone until it resolves,
        # and a memory op's absent displacement means 0.
        assert Instruction("br", target="top").imm is None
        assert format_instruction(Instruction("ldq", rd=2, rs1=4)) == "ldq r2,0(r4)"

    @pytest.mark.parametrize("field", ["rd", "rs1", "rs2"])
    def test_register_out_of_range_raises(self, field):
        operands = dict(rd=3, rs1=1, rs2=2)
        for reg in (NUM_ARCH_REGS, -1):
            with pytest.raises(RegisterError, match="out of range"):
                Instruction("addl", **{**operands, field: reg})
        Instruction("addl", **{**operands, field: NUM_ARCH_REGS - 1})

    def test_load_store_classification(self):
        load = Instruction("ldq", rd=2, rs1=4, imm=16)
        store = Instruction("stq", rs1=4, rs2=2, imm=8)
        assert load.is_load and load.is_memory and not load.is_store
        assert store.is_store and store.is_memory and not store.is_load
        assert store.destination_register() is None

    def test_branch_instruction(self):
        branch = Instruction("bne", rs1=7, target="loop")
        assert branch.is_branch
        assert branch.is_direct_control
        assert branch.source_registers() == (7,)

    def test_handle_construction(self):
        handle = make_handle(18, 5, 18, 12)
        assert handle.is_handle
        assert handle.mgid == 12
        assert handle.rs1 == 18 and handle.rs2 == 5 and handle.rd == 18

    def test_handle_with_missing_fields_uses_zero_register(self):
        handle = make_handle(4, None, 17, 34)
        assert handle.rs2 == ZERO_REG
        assert handle.source_registers() == (4,)

    def test_mgid_on_non_handle_raises(self):
        with pytest.raises(ValueError):
            _ = Instruction("addl", rd=1, rs1=1, rs2=2).mgid

    def test_nop_and_halt(self):
        assert make_nop().is_nop
        assert Instruction("halt").is_halt

    def test_with_target(self):
        branch = Instruction("bne", rs1=7, target="a")
        retargeted = branch.with_target("b", 0x2000)
        assert retargeted.target == "b"
        assert retargeted.imm == 0x2000


class TestFormatting:
    def test_format_matches_paper_style(self):
        assert format_instruction(Instruction("addl", rd=18, rs1=18, rs2=2)) == "addl r18,r2,r18"
        assert format_instruction(Instruction("ldq", rd=2, rs1=4, imm=16)) == "ldq r2,16(r4)"
        assert format_instruction(make_handle(18, 5, 18, 12)) == "mg r18,r5,r18,12"

    def test_format_store(self):
        text = format_instruction(Instruction("stq", rs1=4, rs2=2, imm=8))
        assert text == "stq r2,8(r4)"

    def test_format_branch_with_label(self):
        text = format_instruction(Instruction("bne", rs1=7, target="loop"))
        assert text == "bne r7,loop"
