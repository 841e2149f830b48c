"""Tests for the functional simulator, its compiled core and memory model.

``run_program`` runs every functional simulation in the compiled core
(``sim/functional_kernel.c``) when a C compiler is found, and reruns the
reference ``FunctionalSimulator`` whenever the core cannot express a
program or stops on an error.  Beyond the simulator's own semantics, these
tests pin that the core equals the reference for every opcode at every
operand width boundary, every memory width at aligned and misaligned
addresses, every registered benchmark and the fuzz corpus at several
budgets, and every error by type and text; that the core really runs
wherever a compiler exists; that the no-compiler and failing-compiler
fallbacks give the same results; and that concurrent runs share no state.
"""

import re
import shutil
import threading
from importlib import resources
from pathlib import Path

import pytest

from repro import native
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CONDITIONAL_MOVES, OpClass, all_opcodes
from repro.isa.registers import RegisterError
from repro.minigraph import (
    MgtError,
    MiniGraphTable,
    MiniGraphTemplate,
    TemplateInstruction,
    external,
    internal,
)
from repro.program import Program
from repro.sim import Memory, MemoryError_, functional_kernel, run_program
from repro.sim.functional import FunctionalSimulator, SimulationError
from repro.sim.trace import (
    TF_CONTROL,
    TF_HAS_EA,
    TF_LOAD,
    TF_TAKEN,
    TF_TAKEN_KNOWN,
    encode_trace,
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


# -- the compiled core against the reference ----------------------------------

HAS_COMPILER = native.find_compiler() is not None
needs_compiler = pytest.mark.skipif(not HAS_COMPILER,
                                    reason="no C compiler on PATH")

#: Operand values at every width boundary the semantics care about.
OPERANDS = (0, 1, 2**31 - 1, 2**31, 2**32 - 1, 2**63 - 1, 2**63, 2**64 - 1)
IMMEDIATES = (0, 1, -1, 7, 63, 64, 2**15, -2**31, 2**31 - 1, 2**63 - 1,
              -2**63)


def _outcome(run):
    """A functional run's observable state, or its error as (type, text)."""
    try:
        result = run()
    except Exception as error:  # noqa: BLE001 - errors must match too
        return (type(error).__name__, str(error))
    return {
        "trace": encode_trace(result.trace),
        "instructions_executed": result.instructions_executed,
        "entries_committed": result.entries_committed,
        "halted": result.halted,
        "registers": result.registers,
        "memory": list(result.memory.words.items()),
        "profile": list(result.profile.counts.items()),
        "dynamic_instructions": result.profile.dynamic_instructions,
        "program_name": result.program_name,
    }


def _assert_parity(program, mgt=None, budget=100):
    """``run_program`` equals the reference, through the core when it can."""
    expected = _outcome(lambda: FunctionalSimulator(program, mgt=mgt).run(
        max_instructions=budget))
    got = _outcome(lambda: run_program(program, mgt=mgt,
                                       max_instructions=budget))
    assert got == expected
    if HAS_COMPILER and isinstance(expected, dict):
        # The result came from the core, not from a silent fallback.
        assert functional_kernel.run(program, mgt, budget) is not None
    return expected


def _program(*instructions, data=None):
    return Program("op", list(instructions) + [Instruction("halt")],
                   data=dict(data or {}))


def _operand_loads(a, b, c=0):
    """r1, r2, r3 = a, b, c, loaded from the image at 0x100."""
    loads = [Instruction("ldq", rd=reg, rs1=31, imm=0x100 + 8 * slot)
             for slot, reg in enumerate((1, 2, 3))]
    return loads, {0x100: a, 0x108: b, 0x110: c}


_OPS = all_opcodes()
_COMPUTED = sorted(name for name, spec in _OPS.items()
                   if spec.op_class in (OpClass.ALU, OpClass.MUL)
                   or spec.is_fp)


class TestOpcodeParity:
    """Every opcode, one instruction under test, both paths."""

    @pytest.mark.parametrize("op", _COMPUTED)
    def test_computed_ops(self, op):
        spec = _OPS[op]
        if spec.has_imm:
            cases = [(a, 3, imm) for a in OPERANDS for imm in IMMEDIATES]
        else:
            cases = [(a, b, None) for a in OPERANDS for b in OPERANDS]
        for a, b, imm in cases:
            loads, data = _operand_loads(a, b, 0x5A5A)
            insn = Instruction(op, rd=3, rs1=1,
                               rs2=2 if spec.reads_rs2 else None, imm=imm)
            _assert_parity(_program(*loads, insn, data=data))

    @pytest.mark.parametrize("op", ["beq", "bne", "blt", "bge", "bgt", "ble"])
    def test_branches(self, op):
        for a in OPERANDS:
            loads, data = _operand_loads(a, 0)
            # Both outcomes land on the halt; the trace tells them apart.
            branch = Instruction(op, rs1=1, imm=0x1000 + 4 * 4)
            _assert_parity(_program(*loads, branch, data=data))

    def test_direct_and_indirect_transfers(self):
        halt_pc = 0x1000 + 4 * 4
        for insn in (Instruction("br", imm=halt_pc),
                     Instruction("jsr", rd=26, imm=halt_pc),
                     Instruction("jsr", rd=31, imm=halt_pc)):
            loads, data = _operand_loads(0, 0)
            _assert_parity(_program(*loads, insn, data=data))
        for op in ("jmp", "ret"):
            for target in OPERANDS + (halt_pc, halt_pc + 2, 0x1000 - 4):
                loads, data = _operand_loads(target, 0)
                _assert_parity(_program(
                    *loads, Instruction(op, rs1=1), data=data))

    @pytest.mark.parametrize("op", sorted(name for name, spec in _OPS.items()
                                          if spec.is_memory))
    def test_memory_ops(self, op):
        for base in OPERANDS + (0x100, 0x104, 0x10F):
            for imm in IMMEDIATES + (None,):
                loads, data = _operand_loads(base, 0x8899AABBCCDDEEFF)
                if _OPS[op].is_load:
                    insn = Instruction(op, rd=3, rs1=1, imm=imm)
                else:
                    insn = Instruction(op, rs1=1, rs2=2, imm=imm)
                _assert_parity(_program(*loads, insn, data=data))

    @pytest.mark.parametrize("op", sorted(name for name, spec in _OPS.items()
                                          if spec.is_memory))
    def test_every_width_aligned_and_misaligned(self, op):
        # A word of distinct bytes with the sign bit set in every byte, so
        # a signed narrow load differs from an unsigned one.
        for offset in range(8):
            loads, data = _operand_loads(0x200 + offset, 0x8192A3B4C5D6E7F8)
            data[0x200] = 0xF1E2D3C4B5A69788
            if _OPS[op].is_load:
                insn = Instruction(op, rd=3, rs1=1, imm=0)
            else:
                insn = Instruction(op, rs1=1, rs2=2, imm=0)
            outcome = _assert_parity(_program(*loads, insn, data=data))
            width = {"q": 8, "t": 8, "l": 4, "w": 2, "b": 1}[op[2]]
            assert isinstance(outcome, dict) == (offset % width == 0), offset

    def test_nop_halt_and_handle(self):
        _assert_parity(_program(Instruction("nop")))
        _assert_parity(_program())
        for a in OPERANDS:
            loads, data = _operand_loads(a, 2**64 - 2)
            handle = Instruction("mg", rd=4, rs1=1, rs2=2, imm=0)
            _assert_parity(_program(*loads, handle, data=data),
                           mgt=_add_pair_mgt())

    @pytest.mark.parametrize("op", sorted(
        name for name, spec in _OPS.items()
        if spec.minigraph_eligible and name not in CONDITIONAL_MOVES))
    def test_ops_inside_a_handle(self, op):
        """Each op a mini-graph may hold, evaluated by a handle."""
        spec = _OPS[op]
        if spec.is_control:
            # A terminal transfer to the halt that follows the handle.
            pairs = [(TemplateInstruction("addqi", src0=external(0), imm=0),
                      TemplateInstruction(op, src0=internal(0),
                                          imm=0x1000 + 4 * 4), 0)]
        else:
            src1 = external(1) if spec.reads_rs2 else None
            pairs = [(TemplateInstruction(op, src0=external(0), src1=src1,
                                          imm=imm),
                      TemplateInstruction("addqi", src0=external(1), imm=1),
                      None if spec.is_store else 0)
                     for imm in (IMMEDIATES if spec.has_imm else (None,))]
        mgts = [_mgt_of(MiniGraphTemplate((first, second), 2, out), mgid=9)
                for first, second, out in pairs]
        handle = Instruction("mg", rd=4, rs1=1, rs2=2, imm=9)
        for a in OPERANDS:
            for b in (0, 2**63, 0x104):
                loads, data = _operand_loads(a, b)
                for mgt in mgts:
                    _assert_parity(_program(*loads, handle, data=data),
                                   mgt=mgt)


def test_every_opcode_has_a_case_in_the_core():
    """The core's opcode enum is OPCODES, OPCODES is every opcode of the
    ISA, and each has a ``case`` in the C source."""
    source = resources.files("repro.sim").joinpath("functional_kernel.c")
    text = source.read_text(encoding="utf-8")
    block = re.search(r"enum \{([^}]*OP_COUNT[^}]*)\}", text).group(1)
    names = [name.lower() for name in re.findall(r"OP_(\w+)", block)]
    assert names == list(functional_kernel.OPCODES) + ["count"]
    assert set(functional_kernel.OPCODES) == set(all_opcodes())
    cases = {name.lower() for name in re.findall(r"case OP_(\w+):", text)}
    assert set(all_opcodes()) - cases == set()
    statuses = re.search(r"enum \{([^}]*FN_NO_MEMORY[^}]*)\}", text).group(1)
    assert re.findall(r"FN_\w+", statuses) == [
        "FN_OK", "FN_LEFT_TEXT", "FN_MISALIGNED", "FN_NO_MGT",
        "FN_UNKNOWN_MGID", "FN_BAD_HANDLE", "FN_NO_MEMORY"]
    assert functional_kernel.FN_NO_MEMORY == 6


def _unvalidated_template(*instructions, out_index):
    """A template built past ``validate``, as a corrupted MGT would hold."""
    template = MiniGraphTemplate.__new__(MiniGraphTemplate)
    object.__setattr__(template, "instructions", instructions)
    object.__setattr__(template, "num_inputs", 2)
    object.__setattr__(template, "out_index", out_index)
    return template


def _mgt_of(template, mgid=0):
    mgt = MiniGraphTable()
    mgt.add(mgid, template)
    return mgt


class TestErrorParity:
    """Each error raises the same type and text through both paths; the core
    reports it and the reference raises it."""

    def _check(self, program, mgt=None, budget=100, error=None):
        expected = _outcome(lambda: FunctionalSimulator(program, mgt=mgt).run(
            max_instructions=budget))
        got = _outcome(lambda: run_program(program, mgt=mgt,
                                           max_instructions=budget))
        assert got == expected
        if error is not None:
            assert expected[0] == error, expected
        # The core never produces these outcomes itself.
        assert functional_kernel.run(program, mgt, budget) is None
        return expected

    def test_leaving_the_text_segment(self):
        self._check(Program("fall", [Instruction("addqi", rd=1, rs1=1,
                                                 imm=1)]),
                    error="SimulationError")
        self._check(_program(Instruction("br", imm=0x10)),
                    error="SimulationError")
        for target in (0x1002, 0x1000 + 4 * 99):
            loads, data = _operand_loads(target, 0)
            self._check(_program(*loads, Instruction("jmp", rs1=1),
                                 data=data), error="SimulationError")

    def test_misaligned_accesses(self):
        loads, data = _operand_loads(0x102, 5)
        self._check(_program(*loads, Instruction("ldl", rd=3, rs1=1, imm=0),
                             data=data), error="MemoryError_")
        self._check(_program(*loads, Instruction("stq", rs1=1, rs2=2, imm=0),
                             data=data), error="MemoryError_")
        template = MiniGraphTemplate((
            TemplateInstruction("ldq", src0=external(0), imm=0),
            TemplateInstruction("addqi", src0=internal(0), imm=1)), 2, 1)
        self._check(_program(*loads, Instruction("mg", rd=4, rs1=1, rs2=2,
                                                 imm=0), data=data),
                    mgt=_mgt_of(template), error="MemoryError_")
        self._check(_program(data={0x103: 1}), error="MemoryError_")

    def test_handle_errors(self):
        program = Program.from_assembly("h", _HANDLE_SOURCE.format(mgid=7))
        self._check(program, error="SimulationError")
        self._check(program, mgt=_add_pair_mgt(), error="MgtError")
        loads, data = _operand_loads(3, 4)
        handle = Instruction("mg", rd=4, rs1=1, rs2=2, imm=0)
        for first in (TemplateInstruction("addt", src0=external(0),
                                          src1=external(1)),
                      TemplateInstruction("cmovne", src0=external(0),
                                          src1=external(1))):
            template = _unvalidated_template(
                first, TemplateInstruction("addqi", src0=internal(0), imm=1),
                out_index=1)
            self._check(_program(*loads, handle, data=data),
                        mgt=_mgt_of(template))

    def test_programs_the_packer_cannot_express(self):
        loads, data = _operand_loads(2**63, 0)
        # Immediates outside int64 and a non-int budget run in the
        # reference, with its results.
        for imm in (2**64, -2**63 - 1):
            program = _program(*loads, Instruction("cmplti", rd=3, rs1=1,
                                                   imm=imm), data=data)
            assert isinstance(self._check(program), dict)
        program = _program(*loads, data=data)
        assert isinstance(self._check(program, budget=50.0), dict)
        # A missing immediate and an out-of-range register never reach
        # either path: the instruction fails at construction.
        with pytest.raises(ValueError, match="missing immediate"):
            Instruction("addqi", rd=1, rs1=1, imm=None)
        with pytest.raises(RegisterError, match="out of range: 70"):
            Instruction("addqi", rd=70, rs1=1, imm=1)

    def test_budgets_at_and_below_zero(self):
        program = Program.from_assembly("loop",
                                        "top:\naddqi r1,1,r1\nbr top\n")
        for budget in (-5, 0, 1, 2, 3):
            _assert_parity(program, budget=budget)


def _matrix_runs():
    """(label, program, mgt) for every registered benchmark as written and
    rewritten under the int and int-mem policies, and the corpus programs."""
    from repro.api import RunSpec, Session
    from repro.fuzz import FuzzContext, SynthSpec
    from repro.fuzz.corpus import load_corpus
    from repro.minigraph.policies import INTEGER_MEMORY_POLICY, INTEGER_POLICY
    from repro.workloads import benchmark_names

    session = Session()
    for name in benchmark_names():
        spec = RunSpec(benchmark=name, budget=2000)
        yield name, session.program(spec), None
        for label, policy in (("int", INTEGER_POLICY),
                              ("int-mem", INTEGER_MEMORY_POLICY)):
            spec = RunSpec(benchmark=name, budget=2000, policy=policy)
            yield (f"{name}/{label}", session.rewritten(spec),
                   session.mgt(spec))
    for entry in load_corpus(Path(__file__).parent / "corpus"):
        ctx = FuzzContext(SynthSpec.from_name(entry.spec),
                          input_name=entry.input, budget=entry.budget)
        yield entry.spec, ctx.program, None
        yield f"{entry.spec}/rewritten", ctx.rewritten, ctx.mgt


@needs_compiler
def test_benchmark_and_corpus_matrix():
    """Byte-identical results for every benchmark and corpus program,
    baseline and rewritten, at budgets around the handle boundary."""
    runs = 0
    for label, program, mgt in _matrix_runs():
        for budget in (1, 2, 3, 777, 2000):
            outcome = _assert_parity(program, mgt=mgt, budget=budget)
            assert isinstance(outcome, dict), (label, budget, outcome)
            runs += 1
    assert runs >= 38 * 3 * 5


@needs_compiler
class TestCompiledCoreIsUsed:
    """With a compiler on PATH the Python loop runs only to raise errors."""

    @pytest.fixture
    def no_reference(self, monkeypatch):
        assert functional_kernel.kernel() is not None

        def forbidden(self, **kwargs):
            raise AssertionError("a functional run took the reference loop")

        monkeypatch.setattr(FunctionalSimulator, "run", forbidden)

    def test_sessions_grids_and_fuzzing(self, no_reference):
        from repro.api import RunSpec, Session
        from repro.fuzz import FuzzContext, SynthSpec
        from repro.grid.catalog import get_grid

        session, spec = Session(), RunSpec(benchmark="crc", budget=2000)
        session.profile(spec)
        session.minigraph_trace(spec)
        grid = get_grid("fig6").build(benchmarks=["fnvmix"], budget=1000)
        assert list(Session().run_grid(grid, workers=0))
        ctx = FuzzContext(SynthSpec.sample(3))
        assert ctx.baseline.halted and ctx.rewritten_run.halted

    def test_errors_still_come_from_the_reference(self, no_reference):
        program = Program.from_assembly("h", _HANDLE_SOURCE.format(mgid=0))
        with pytest.raises(AssertionError, match="reference loop"):
            run_program(program)

    def test_an_early_halt_does_not_allocate_for_the_budget(self,
                                                             no_reference):
        import resource

        program = Program.from_assembly("short", "ldi r1, 3\nhalt\n")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = run_program(program, max_instructions=10**9)
        grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        assert result.halted and result.instructions_executed == 2
        assert grown_kb < 64 * 1024

    def test_concurrent_runs_in_threads(self, monkeypatch):
        # ctypes releases the GIL, so the four runs overlap in the core;
        # each must still equal its reference run.
        from repro.api import RunSpec, Session
        from repro.minigraph.policies import INTEGER_MEMORY_POLICY

        session = Session()
        runs = []
        for name in ("bitcount", "crc", "sha", "listchase"):
            spec = RunSpec(benchmark=name, budget=20_000,
                           policy=INTEGER_MEMORY_POLICY)
            runs.append((session.rewritten(spec), session.mgt(spec)))
        expected = [_outcome(lambda: FunctionalSimulator(
            program, mgt=mgt).run(max_instructions=20_000))
            for program, mgt in runs]
        monkeypatch.setattr(native, "_library", native._UNTRIED)
        got = [None] * len(runs)

        def work(index):
            program, mgt = runs[index]
            for _ in range(5):
                got[index] = _outcome(lambda: run_program(
                    program, mgt=mgt, max_instructions=20_000))

        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(len(runs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected


class TestFallback:
    """No compiler, or one that fails: the same results from the reference."""

    def _outcomes(self):
        programs = [
            (Program.from_assembly("h", _HANDLE_SOURCE.format(mgid=0)),
             _add_pair_mgt()),
            (Program.from_assembly("h", _HANDLE_SOURCE.format(mgid=0)), None),
            (Program.from_assembly("loop", "top:\naddqi r1,1,r1\nbr top\n"),
             None),
        ]
        return [_outcome(lambda: run_program(program, mgt=mgt,
                                             max_instructions=500))
                for program, mgt in programs]

    def test_no_compiler_matches_compiled(self, monkeypatch):
        compiled = self._outcomes()
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        monkeypatch.setattr(native, "_library", native._UNTRIED)
        assert self._outcomes() == compiled
        assert native.library() is None
        assert functional_kernel.kernel() is None

    def test_failing_compiler_falls_back(self, monkeypatch, tmp_path):
        failing = shutil.which("false")
        if failing is None:
            pytest.skip("no `false` command")
        compiled = self._outcomes()
        monkeypatch.setattr(native, "find_compiler", lambda: failing)
        monkeypatch.setattr(native, "CACHE_DIR", tmp_path / "__pycache__")
        monkeypatch.setattr(native, "_library", native._UNTRIED)
        assert self._outcomes() == compiled
        assert native.library() is None
