"""Tests for the functional simulator and memory model."""

import pytest

from repro.minigraph import (
    MgtError,
    MiniGraphTable,
    MiniGraphTemplate,
    TemplateInstruction,
    external,
    internal,
)
from repro.program import Program
from repro.sim import Memory, MemoryError_, run_program
from repro.sim.functional import SimulationError
from repro.sim.trace import (
    TF_CONTROL,
    TF_HAS_EA,
    TF_LOAD,
    TF_TAKEN,
    TF_TAKEN_KNOWN,
)


class TestMemory:
    def test_quadword_round_trip(self):
        memory = Memory()
        memory.store(0x1000, 0x1122334455667788, 8)
        assert memory.load(0x1000, 8) == 0x1122334455667788

    def test_sub_word_access(self):
        memory = Memory()
        memory.store(0x2000, 0xFF, 1)
        memory.store(0x2004, 0x1234, 4)
        assert memory.load(0x2000, 1, signed=False) == 0xFF
        assert memory.load(0x2000, 1, signed=True) == -1
        assert memory.load(0x2004, 4) == 0x1234

    def test_misaligned_access_raises(self):
        memory = Memory()
        with pytest.raises(MemoryError_):
            memory.load(0x1001, 4)
        with pytest.raises(MemoryError_):
            memory.store(0x1002, 0, 8)

    def test_unsupported_size_raises(self):
        with pytest.raises(MemoryError_):
            Memory().load(0x1000, 3)

    def test_from_image(self):
        memory = Memory.from_image({0x100: 7, 0x108: 9})
        assert memory.load_word(0x100) == 7
        assert memory.load_word(0x108) == 9

    def test_checksum_changes_with_contents(self):
        a = Memory.from_image({0x100: 1})
        b = Memory.from_image({0x100: 2})
        assert a.checksum() != b.checksum()

    def test_from_image_rejects_misaligned_words(self):
        with pytest.raises(MemoryError_, match="misaligned 8-byte store at 0x3"):
            Memory.from_image({0x100: 1, 0x3: 2})

    def test_from_image_masks_negative_values(self):
        memory = Memory.from_image({8: -1})
        assert memory.load_word(8) == 0xFFFFFFFFFFFFFFFF


def _run(source, **kwargs):
    program = Program.from_assembly("t", source)
    return run_program(program, **kwargs)


class TestFunctionalExecution:
    def test_arithmetic_chain(self):
        result = _run("""
          ldi r1, 6
          ldi r2, 7
          mulq r1,r2,r3
          addqi r3,900,r4
          halt
        """)
        assert result.register(3) == 42
        assert result.register(4) == 942
        assert result.halted

    def test_compare_and_branch_loop(self):
        result = _run("""
          clr r1
          clr r2
        loop:
          addqi r1,1,r1
          addq r2,r1,r2
          cmplti r1,5,r3
          bne r3,loop
          halt
        """)
        assert result.register(1) == 5
        assert result.register(2) == 15

    def test_memory_round_trip(self):
        result = _run("""
        .data buffer 0 0 0 0
          la r1, buffer
          ldi r2, 77
          stq r2,8(r1)
          ldq r3,8(r1)
          halt
        """)
        assert result.register(3) == 77

    def test_loads_use_initial_data(self):
        result = _run("""
        .data values 5 10 15
          la r1, values
          ldq r2,16(r1)
          halt
        """)
        assert result.register(2) == 15

    def test_shift_and_mask_idiom(self):
        result = _run("""
          ldi r1, 0x1234
          srli r1,4,r2
          andi r2,0xff,r3
          halt
        """)
        assert result.register(3) == 0x23

    def test_signed_comparison(self):
        result = _run("""
          ldi r1, 5
          subqi r1,10,r2
          cmplt r2,r1,r3
          blt r2,neg
          clr r4
          halt
        neg:
          ldi r4, 1
          halt
        """)
        assert result.register(3) == 1
        assert result.register(4) == 1

    def test_budget_expiry_reported(self):
        result = _run("""
        forever:
          addqi r1,1,r1
          br forever
        """, max_instructions=50)
        assert not result.halted
        assert result.instructions_executed == 50

    def test_profile_counts_blocks(self):
        result = _run("""
          clr r1
        loop:
          addqi r1,1,r1
          cmplti r1,4,r2
          bne r2,loop
          halt
        """)
        # The loop body block executed 4 times.
        assert 4 in result.profile.counts.values()
        assert result.profile.dynamic_instructions == result.instructions_executed

    def test_trace_records_control_and_memory(self):
        result = _run("""
        .data buffer 3
          la r1, buffer
          ldq r2,0(r1)
          beq r2,skip
          addqi r2,1,r2
        skip:
          halt
        """)
        flags = result.trace.columns().flags
        load = next(row for row, bits in enumerate(flags) if bits & TF_LOAD)
        assert flags[load] & TF_HAS_EA
        branch = next(row for row, bits in enumerate(flags)
                      if bits & TF_CONTROL)
        # Not taken: the outcome is known, and it is false.
        assert flags[branch] & (TF_TAKEN_KNOWN | TF_TAKEN) == TF_TAKEN_KNOWN

    def test_nops_are_skipped_silently(self):
        result = _run("nop\nnop\nldi r1, 3\nhalt\n")
        assert result.register(1) == 3
        assert result.entries_committed == 2  # ldi + halt

    def test_execution_leaving_text_raises(self):
        program = Program.from_assembly("fall", "addqi r1,1,r1\naddqi r1,1,r1\n"
                                                "addqi r1,1,r1\naddqi r1,1,r1\n")
        with pytest.raises(SimulationError):
            run_program(program)

    def test_call_and_return(self):
        result = _run("""
          jsr r26, helper
          addqi r3,100,r4
          halt
        helper:
          ldi r3, 11
          ret r26
        """)
        assert result.register(3) == 11
        assert result.register(4) == 111

    def test_checksum_deterministic(self):
        source = """
          ldi r1, 9
          addqi r1,1,r2
          halt
        """
        assert _run(source).checksum() == _run(source).checksum()


def _add_pair_mgt():
    """MGT 0: ``addqi E0,1 ; addq M0,E1`` with the sum as its output."""
    template = MiniGraphTemplate(
        instructions=(
            TemplateInstruction("addqi", src0=external(0), imm=1),
            TemplateInstruction("addq", src0=internal(0), src1=external(1)),
        ),
        num_inputs=2, out_index=1)
    return MiniGraphTable.from_templates([template])


_HANDLE_SOURCE = """
  ldi r1, 4
  ldi r2, 10
  mg r1,r2,r3,{mgid}
  halt
"""


class TestHandleErrors:
    """Handle errors are raised when the handle executes, never before."""

    def test_handle_without_mgt_names_its_pc(self):
        program = Program.from_assembly("h", _HANDLE_SOURCE.format(mgid=0))
        with pytest.raises(SimulationError,
                           match=rf"h: handle at {program.pc_of(2):#x} "
                                 rf"but no MGT was supplied"):
            run_program(program)

    def test_unreached_handle_needs_no_mgt(self):
        program = Program.from_assembly("h", _HANDLE_SOURCE.format(mgid=0))
        result = run_program(program, max_instructions=2)   # stops before mg
        assert result.instructions_executed == 2
        assert not result.halted

    def test_unknown_mgid_raises_mgt_error(self):
        program = Program.from_assembly("h", _HANDLE_SOURCE.format(mgid=7))
        with pytest.raises(MgtError, match="MGID 7 not present"):
            run_program(program, mgt=_add_pair_mgt())
