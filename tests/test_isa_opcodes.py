"""Tests for the opcode table."""

import pytest

from repro.isa.opcodes import (
    OpClass,
    UnknownOpcodeError,
    all_opcodes,
    has_opcode,
    opcode,
)


def test_lookup_known_opcode():
    spec = opcode("addl")
    assert spec.name == "addl"
    assert spec.op_class is OpClass.ALU
    assert spec.latency == 1
    assert spec.writes_rd


def test_lookup_unknown_opcode_raises():
    with pytest.raises(UnknownOpcodeError):
        opcode("not-an-opcode")


def test_has_opcode():
    assert has_opcode("ldq")
    assert not has_opcode("vaporware")


def test_load_classification():
    spec = opcode("ldq")
    assert spec.is_load
    assert spec.is_memory
    assert not spec.is_store
    assert spec.minigraph_eligible


def test_store_classification():
    spec = opcode("stq")
    assert spec.is_store
    assert spec.is_memory
    assert not spec.writes_rd
    assert spec.minigraph_eligible


def test_branch_classification():
    spec = opcode("bne")
    assert spec.is_branch
    assert spec.is_control
    assert not spec.writes_rd
    assert spec.minigraph_eligible


def test_unconditional_jump_is_control_but_not_branch():
    spec = opcode("br")
    assert spec.is_control
    assert not spec.is_branch


def test_call_and_indirect_are_not_minigraph_eligible():
    assert not opcode("jsr").minigraph_eligible
    assert not opcode("ret").minigraph_eligible
    assert not opcode("jmp").minigraph_eligible


def test_multiply_is_multicycle_and_not_eligible():
    spec = opcode("mull")
    assert spec.latency > 1
    assert not spec.minigraph_eligible
    assert not spec.is_single_cycle_int


def test_fp_ops_are_fp_class():
    assert opcode("addt").is_fp
    assert opcode("mult").is_fp
    assert opcode("divt").is_fp
    assert not opcode("addl").is_fp


def test_handle_opcode():
    spec = opcode("mg")
    assert spec.op_class is OpClass.MG
    assert spec.has_imm


def test_all_alu_ops_single_cycle():
    alu_specs = [spec for spec in all_opcodes().values()
                 if spec.op_class is OpClass.ALU]
    assert alu_specs
    for spec in alu_specs:
        assert spec.latency == 1, spec.name
        assert spec.minigraph_eligible


def test_opcode_table_is_copied():
    table = all_opcodes()
    table["fake"] = None
    assert not has_opcode("fake")


def test_branches_read_only_one_register():
    for name in ("beq", "bne", "blt", "bge", "bgt", "ble"):
        spec = opcode(name)
        assert spec.reads_rs1
        assert not spec.reads_rs2


def test_loads_read_base_register_only():
    spec = opcode("ldq")
    assert spec.reads_rs1
    assert not spec.reads_rs2
    assert spec.has_imm


def test_stores_read_base_and_value():
    spec = opcode("stq")
    assert spec.reads_rs1
    assert spec.reads_rs2
