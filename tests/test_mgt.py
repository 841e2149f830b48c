"""Tests for the mini-graph table (MGHT + MGST)."""

import pytest

from repro.minigraph import (
    FU_ALU_PIPELINE,
    FU_LOAD,
    MgtBuildOptions,
    MgtError,
    MiniGraphTable,
    MiniGraphTemplate,
    TemplateInstruction,
    build_mgt_entry,
    external,
    internal,
)


def chain_template():
    """Figure 1 left: addl E0,2 ; cmplt M0,E1 ; bne M1 (output from instruction 0)."""
    return MiniGraphTemplate(
        instructions=(
            TemplateInstruction("addli", src0=external(0), imm=2),
            TemplateInstruction("cmplt", src0=internal(0), src1=external(1)),
            TemplateInstruction("bne", src0=internal(1), imm=0xA),
        ),
        num_inputs=2,
        out_index=0,
    )


def load_template():
    """Figure 1 right: ldq 16(E0) ; srl M0,14 ; and M1,1 (output from the last)."""
    return MiniGraphTemplate(
        instructions=(
            TemplateInstruction("ldq", src0=external(0), imm=16),
            TemplateInstruction("srli", src0=internal(0), imm=14),
            TemplateInstruction("andi", src0=internal(1), imm=1),
        ),
        num_inputs=1,
        out_index=2,
    )


class TestMghtContents:
    def test_integer_chain_header_matches_figure2(self):
        entry = build_mgt_entry(12, chain_template())
        # Output produced by the first instruction -> LAT 1; first FU is the
        # ALU pipeline; integer mini-graph -> empty FUBMP resources beyond AP.
        assert entry.header.lat == 1
        assert entry.header.fu0.startswith(FU_ALU_PIPELINE)
        assert entry.header.size == 3
        assert entry.header.total_latency == 3

    def test_load_chain_header_matches_figure2(self):
        entry = build_mgt_entry(34, load_template(), MgtBuildOptions(load_latency=2))
        # Load-first graph: ldq in bank 0, bank 1 empty, srl in bank 2, and in
        # bank 3; output from the last instruction -> LAT 4.
        assert entry.header.fu0 == FU_LOAD
        assert entry.header.lat == 4
        assert entry.header.total_latency == 4
        assert len(entry.banks) == 4
        assert entry.banks[1] is None

    def test_fubmp_lists_units_after_the_first(self):
        entry = build_mgt_entry(34, load_template())
        # Cycles 1..3 after issue: empty, then two ALU-pipeline stages.
        assert entry.header.fubmp[0] is None
        assert entry.header.fubmp[1] is not None
        assert entry.header.fubmp[2] is not None

    def test_collapsing_reduces_bank_count(self):
        plain = build_mgt_entry(0, chain_template(), MgtBuildOptions(collapsing=False))
        collapsed = build_mgt_entry(0, chain_template(), MgtBuildOptions(collapsing=True))
        assert len(collapsed.banks) < len(plain.banks)
        assert collapsed.header.total_latency < plain.header.total_latency


class TestMiniGraphTable:
    def test_add_and_lookup(self):
        table = MiniGraphTable()
        table.add(12, chain_template())
        table.add(34, load_template())
        assert 12 in table and 34 in table
        assert len(table) == 2
        assert table.header(12).size == 3
        assert table.lookup(34).template.has_load

    def test_duplicate_mgid_rejected(self):
        table = MiniGraphTable()
        table.add(1, chain_template())
        with pytest.raises(MgtError):
            table.add(1, load_template())

    def test_unknown_mgid_rejected(self):
        with pytest.raises(MgtError):
            MiniGraphTable().lookup(99)

    def test_from_templates_assigns_dense_ids(self):
        table = MiniGraphTable.from_templates([chain_template(), load_template()])
        assert table.mgids() == [0, 1]

    def test_format_logical_mentions_operand_names(self):
        table = MiniGraphTable.from_templates([chain_template()])
        text = table.format_logical(0)
        assert "E0" in text and "M0" in text and "OUT=0" in text

    def test_format_physical_mentions_banks(self):
        table = MiniGraphTable.from_templates([load_template()])
        text = table.format_physical(0)
        assert "MGST.0" in text and "empty" in text
        assert "LAT=4" in text

    def test_describe_covers_all_entries(self):
        table = MiniGraphTable.from_templates([chain_template(), load_template()])
        assert len(table.describe().splitlines()) == 2
