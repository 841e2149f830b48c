"""Functional (architectural) simulator for MGA programs.

The functional simulator is the golden model: it executes a program's
architectural semantics, producing final register/memory state, a basic-block
frequency profile and a committed-order dynamic trace for the timing model.

It executes both unmodified programs and mini-graph rewritten programs.  For
the latter it evaluates handles from the
:class:`~repro.minigraph.mgt.MiniGraphTable` templates: the first time a run
executes an MGID it compiles that entry's template into flat op tuples, and
the plan loop dispatches the handle as one step.  Interior values live in a
per-handle value list and never touch the architectural register file,
exactly as the mini-graph microarchitecture treats them as transient.

:func:`run_program` is the one entry point for a run: it runs the compiled
core (:mod:`.functional_kernel`) and falls back to
:class:`FunctionalSimulator`, which stays the reference the core is tested
against, without a compiler and whenever the core stops on an error.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..isa.instruction import INSTRUCTION_BYTES
from ..isa.opcodes import OpClass
from ..isa.registers import NUM_ARCH_REGS, is_zero_reg
from ..minigraph.mgt import MiniGraphTable
from ..minigraph.templates import MiniGraphTemplate, OperandRef
from ..program.basic_block import BlockIndex
from ..program.profile import BlockProfile
from ..program.program import Program
from ..program.weakcache import PerProgramCache
from .memory import Memory
from .trace import TF_HAS_EA, TF_LOAD, TF_STORE, Trace, pack_flags

_WORD_MASK = 0xFFFFFFFFFFFFFFFF


class SimulationError(RuntimeError):
    """Raised on execution errors (undefined PCs, bad handles, ...)."""


def _wrap(value: int) -> int:
    return value & _WORD_MASK


def _signed(value: int) -> int:
    value &= _WORD_MASK
    return value - (1 << 64) if value & (1 << 63) else value


def _signed32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & (1 << 31) else value


@dataclass
class FunctionalResult:
    """Outcome of one functional simulation run.

    Attributes:
        program_name: name of the executed program.
        instructions_executed: original-instruction count (handles expand).
        entries_committed: committed trace entries (handles count once).
        halted: True if the program executed ``halt``; False if the
            instruction budget expired first.
        registers: final architectural register values.
        memory: final memory image.
        profile: basic-block frequency profile of the run.
        trace: committed-order dynamic trace.
    """

    program_name: str
    instructions_executed: int
    entries_committed: int
    halted: bool
    registers: List[int]
    memory: Memory
    profile: BlockProfile
    trace: Trace

    def register(self, reg: int) -> int:
        """Final value of architectural register ``reg``."""
        return self.registers[reg]

    def checksum(self) -> int:
        """Combined register/memory checksum used by equivalence tests."""
        reg_sum = 0
        for reg, value in enumerate(self.registers):
            if not is_zero_reg(reg):
                reg_sum = _wrap(reg_sum + (reg * 2654435761 ^ value))
        return _wrap(reg_sum + self.memory.checksum())


# ---------------------------------------------------------------------------
# ALU semantics, shared by singleton execution and handle evaluation.
# Each function maps (a, b, imm) -> 64-bit result, where ``b`` is the second
# register operand for register forms and ``imm`` is used by immediate forms.
# Conditional moves also read their destination, so they are plan steps of
# their own and never appear here (nor inside a mini-graph).
# ---------------------------------------------------------------------------

def _alu_semantics() -> Dict[str, Callable[[int, int, Optional[int]], int]]:
    def shift_amount(value: int) -> int:
        return value & 0x3F

    table: Dict[str, Callable[[int, int, Optional[int]], int]] = {
        "addl": lambda a, b, imm: _wrap(_signed32(_signed32(a) + _signed32(b))),
        "addli": lambda a, b, imm: _wrap(_signed32(_signed32(a) + imm)),
        "addq": lambda a, b, imm: _wrap(a + b),
        "addqi": lambda a, b, imm: _wrap(a + imm),
        "subl": lambda a, b, imm: _wrap(_signed32(_signed32(a) - _signed32(b))),
        "subli": lambda a, b, imm: _wrap(_signed32(_signed32(a) - imm)),
        "subq": lambda a, b, imm: _wrap(a - b),
        "subqi": lambda a, b, imm: _wrap(a - imm),
        "and": lambda a, b, imm: a & b,
        "andi": lambda a, b, imm: a & _wrap(imm),
        "bis": lambda a, b, imm: a | b,
        "bisi": lambda a, b, imm: a | _wrap(imm),
        "xor": lambda a, b, imm: a ^ b,
        "xori": lambda a, b, imm: a ^ _wrap(imm),
        "bic": lambda a, b, imm: a & _wrap(~b),
        "ornot": lambda a, b, imm: a | _wrap(~b),
        "sll": lambda a, b, imm: _wrap(a << shift_amount(b)),
        "slli": lambda a, b, imm: _wrap(a << shift_amount(imm)),
        "srl": lambda a, b, imm: a >> shift_amount(b),
        "srli": lambda a, b, imm: a >> shift_amount(imm),
        "sra": lambda a, b, imm: _wrap(_signed(a) >> shift_amount(b)),
        "srai": lambda a, b, imm: _wrap(_signed(a) >> shift_amount(imm)),
        "cmpeq": lambda a, b, imm: int(a == b),
        "cmpeqi": lambda a, b, imm: int(a == _wrap(imm)),
        "cmplt": lambda a, b, imm: int(_signed(a) < _signed(b)),
        "cmplti": lambda a, b, imm: int(_signed(a) < imm),
        "cmple": lambda a, b, imm: int(_signed(a) <= _signed(b)),
        "cmplei": lambda a, b, imm: int(_signed(a) <= imm),
        "cmpult": lambda a, b, imm: int(a < b),
        "cmpulti": lambda a, b, imm: int(a < _wrap(imm)),
        "s4addl": lambda a, b, imm: _wrap(_signed32((_signed(a) << 2) + _signed(b))),
        "s8addl": lambda a, b, imm: _wrap(_signed32((_signed(a) << 3) + _signed(b))),
        "s4addli": lambda a, b, imm: _wrap(_signed32((_signed(a) << 2) + imm)),
        "s8addli": lambda a, b, imm: _wrap(_signed32((_signed(a) << 3) + imm)),
        "lda": lambda a, b, imm: _wrap(a + imm),
        "ldah": lambda a, b, imm: _wrap(a + (imm << 16)),
        "extbl": lambda a, b, imm: (a >> ((b & 0x7) * 8)) & 0xFF,
        "extbli": lambda a, b, imm: (a >> ((imm & 0x7) * 8)) & 0xFF,
        "insbl": lambda a, b, imm: _wrap((a & 0xFF) << ((b & 0x7) * 8)),
        "mskbl": lambda a, b, imm: a & _wrap(~(0xFF << ((b & 0x7) * 8))),
        "zapnot": lambda a, b, imm: _zapnot(a, imm),
        "sextb": lambda a, b, imm: _wrap(_sign_extend(a, 8)),
        "sextw": lambda a, b, imm: _wrap(_sign_extend(a, 16)),
        "popcount": lambda a, b, imm: bin(a).count("1"),
        "clz": lambda a, b, imm: 64 - a.bit_length(),
        "mull": lambda a, b, imm: _wrap(_signed32(_signed32(a) * _signed32(b))),
        "mulq": lambda a, b, imm: _wrap(a * b),
        "mulli": lambda a, b, imm: _wrap(_signed32(_signed32(a) * imm)),
    }
    return table


def _zapnot(value: int, mask: Optional[int]) -> int:
    result = 0
    mask = mask or 0
    for byte in range(8):
        if mask & (1 << byte):
            result |= value & (0xFF << (byte * 8))
    return result


def _sign_extend(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    return value - (1 << bits) if value & (1 << (bits - 1)) else value


_ALU = _alu_semantics()

#: Memory access sizes by opcode.
_ACCESS_SIZE = {"ldq": 8, "ldl": 4, "ldwu": 2, "ldbu": 1, "ldt": 8,
                "stq": 8, "stl": 4, "stb": 1, "stt": 8}
_UNSIGNED_LOADS = {"ldbu", "ldwu", "ldq", "ldt"}


#: Per-opcode branch predicates, resolved once at plan-build (or handle
#: compile) time instead of per committed branch.
_BRANCH_FNS: Dict[str, Callable[[int], bool]] = {
    "beq": lambda v: v == 0,
    "bne": lambda v: v != 0,
    "blt": lambda v: _signed(v) < 0,
    "bge": lambda v: _signed(v) >= 0,
    "bgt": lambda v: _signed(v) > 0,
    "ble": lambda v: _signed(v) <= 0,
}

#: Per-opcode FP semantics (FP values are carried as 64-bit integers; the
#: workloads use FP only lightly, so fixed-point-style integer arithmetic is
#: sufficient and keeps the register file uniform).
_FP_FNS: Dict[str, Callable[[int, int], int]] = {
    "addt": lambda a, b: _wrap(a + b),
    "subt": lambda a, b: _wrap(a - b),
    "mult": lambda a, b: _wrap(a * b),
    "divt": lambda a, b: _wrap(a // b) if b else 0,
    "sqrtt": lambda a, b: _wrap(int(_signed(a) ** 0.5)) if _signed(a) > 0 else 0,
    "cmptlt": lambda a, b: int(_signed(a) < _signed(b)),
    "cvtqt": lambda a, b: a,
    "cvttq": lambda a, b: a,
}


# ---------------------------------------------------------------------------
# Precompiled execution plans.
#
# The interpreter loop used to re-derive everything per committed instruction
# — opcode spec, operand usage, basic block, trace-entry fields — although all
# of it is static.  A *plan* precompiles each static instruction into a flat
# dispatch tuple (kind code first) and interns the packed trace *rows* whose
# fields are fully static (ALU results, both branch outcomes, direct
# jumps/calls), so the hot loop is a table dispatch plus raw list/dict
# operations.  The emitted rows are column value tuples
# ``(index, next_pc, flags, effective_address)`` that the columnar
# :class:`~repro.sim.trace.Trace` transposes in one pass at the end of the
# run; the basic-block profile is likewise derived from the committed
# index column in one :class:`collections.Counter` pass (using the plan's
# per-index block id / profile increment tables) instead of two dict
# operations per committed instruction.  Plans are cached per program in a
# process-wide id-keyed weak map, mirroring :mod:`repro.uarch.decode`.
#
# A handle is one more step kind, carrying its MGID and normalized registers.
# Its template lives in the MGT, not the program, so the plan cannot hold it:
# each run compiles an MGID's template the first time it executes (see
# :func:`_compile_handle`) into a dict local to the run, and the hot loop
# then walks flat op tuples over the handle's value list.
# ---------------------------------------------------------------------------

_K_NOP = 0
_K_ALU = 1
_K_CMOVNE = 2
_K_CMOVEQ = 3
_K_FP = 4
_K_LOAD = 5
_K_STORE = 6
_K_BRANCH = 7
_K_JUMP = 8
_K_CALL = 9
_K_INDIRECT = 10
_K_HALT = 11
_K_HANDLE = 12


def _norm_reg(reg: Optional[int]) -> Optional[int]:
    """Register number for reads/writes, None if absent or hardwired zero."""
    if reg is None or is_zero_reg(reg):
        return None
    return reg


#: Static row flags, resolved once at plan-build time.
_ROW_PLAIN = 0
_ROW_TAKEN = pack_flags(True, True, False, False, False)
_ROW_FALL = pack_flags(True, False, False, False, False)
_ROW_HALT = pack_flags(True, None, False, False, False)
_ROW_LOAD = TF_LOAD | TF_HAS_EA
_ROW_STORE = TF_STORE | TF_HAS_EA


def _build_plan(program: Program) -> List[Tuple[Any, ...]]:
    """Compile ``program`` into per-index dispatch tuples.

    The returned steps reference instructions and interned packed trace rows
    but never the program itself, so the plan cache cannot keep programs
    alive.
    """
    text_base = program.text_base
    steps: List[Tuple[Any, ...]] = []
    for index, insn in enumerate(program.instructions):
        pc = text_base + index * INSTRUCTION_BYTES
        next_pc = pc + INSTRUCTION_BYTES
        spec = insn.spec
        rd = _norm_reg(insn.rd)
        rs1 = _norm_reg(insn.rs1)
        rs2 = _norm_reg(insn.rs2)

        if spec.op_class is OpClass.NOP:
            steps.append((_K_NOP,))
        elif spec.op_class is OpClass.MG:
            steps.append((_K_HANDLE, insn.imm, rd, rs1, rs2))
        elif spec.op_class in (OpClass.ALU, OpClass.MUL):
            row = (index, next_pc, _ROW_PLAIN, 0)
            if insn.op == "cmovne":
                steps.append((_K_CMOVNE, rd, rs1, rs2, row))
            elif insn.op == "cmoveq":
                steps.append((_K_CMOVEQ, rd, rs1, rs2, row))
            else:
                steps.append((_K_ALU, _ALU[insn.op], rd, rs1, rs2, insn.imm,
                              row))
        elif spec.is_fp:
            row = (index, next_pc, _ROW_PLAIN, 0)
            try:
                fp_fn = _FP_FNS[insn.op]
            except KeyError:
                raise SimulationError(f"unknown FP opcode {insn.op}") from None
            steps.append((_K_FP, fp_fn, rd, rs1, rs2, row))
        elif spec.is_load:
            steps.append((_K_LOAD, _ACCESS_SIZE[insn.op],
                          insn.op not in _UNSIGNED_LOADS, rd, rs1,
                          insn.imm or 0, next_pc))
        elif spec.is_store:
            steps.append((_K_STORE, _ACCESS_SIZE[insn.op], rs1, rs2,
                          insn.imm or 0, next_pc))
        elif spec.op_class is OpClass.BRANCH:
            target = insn.imm
            taken_row = (index, target, _ROW_TAKEN, 0)
            fall_row = (index, next_pc, _ROW_FALL, 0)
            steps.append((_K_BRANCH, _BRANCH_FNS[insn.op], rs1, target,
                          taken_row, fall_row))
        elif spec.op_class is OpClass.JUMP:
            row = (index, insn.imm, _ROW_TAKEN, 0)
            steps.append((_K_JUMP, insn.imm, row))
        elif spec.op_class is OpClass.CALL:
            row = (index, insn.imm, _ROW_TAKEN, 0)
            steps.append((_K_CALL, rd, insn.imm, row))
        elif spec.op_class is OpClass.INDIRECT:
            steps.append((_K_INDIRECT, rs1))
        elif spec.op_class is OpClass.HALT:
            # halt is classified as a control transfer (CONTROL_CLASSES) but
            # has no outcome: is_control=True, taken=None.
            row = (index, next_pc, _ROW_HALT, 0)
            steps.append((_K_HALT, row))
        else:  # pragma: no cover - the opcode table has no other classes
            raise SimulationError(f"cannot compile opcode {insn.op}")
    return steps


_PLANS: PerProgramCache[List[Tuple[Any, ...]]] = PerProgramCache(_build_plan)


def _block_tables(program: Program) -> Tuple[List[int], List[int]]:
    """Per static index: its basic block's id and its profile increment.

    An entry into a block is counted at the block's first instruction, or at
    its first non-nop one when it starts with nops (nops never commit), so
    the increment is 1 at those indices and 0 elsewhere.
    """
    block_index = BlockIndex(program)
    bids: List[int] = []
    incs: List[int] = []
    for index in range(len(program.instructions)):
        block = block_index.block_of_index(index)
        first_useful = block.start_index
        for offset, insn in enumerate(block.instructions):
            if not insn.is_nop:
                first_useful = block.start_index + offset
                break
        bids.append(block.block_id)
        incs.append(1 if index in (block.start_index, first_useful) else 0)
    return bids, incs


#: Only the tables are cached — a BlockIndex holds a strong reference to its
#: program, which would pin every program in the cache forever.
_BLOCK_TABLES: PerProgramCache[Tuple[List[int], List[int]]] = \
    PerProgramCache(_block_tables)


def block_profile(program: Program, touched: Iterable[Tuple[int, int]],
                  executed: int) -> BlockProfile:
    """The block profile of a run from each committed static index and its
    commit count, in first-commit order.

    Accumulating per distinct index reproduces the per-instruction profile's
    insertion order and counts exactly.  Every committed entry contributes
    its original-instruction count to the total, so it is ``executed``.
    """
    bids, incs = _BLOCK_TABLES.get(program)
    profile = BlockProfile(program_name=program.name)
    counts = profile.counts
    counts_get = counts.get
    for index, times in touched:
        bid = bids[index]
        counts[bid] = counts_get(bid, 0) + incs[index] * times
    profile.dynamic_instructions = executed
    return profile


#: Slots of a handle's value list ``[E0, E1, 0, M0, M1, ...]``: the two
#: interface inputs, a constant zero for absent/immediate/zero operands, then
#: one interior value per constituent instruction, appended as it executes.
_ZERO_SLOT = 2
_FIRST_INTERIOR_SLOT = 3


def _operand_slot(ref: Optional[OperandRef]) -> int:
    if ref is None:
        return _ZERO_SLOT
    if ref.is_external:
        return ref.index
    if ref.is_internal:
        return _FIRST_INTERIOR_SLOT + ref.index
    return _ZERO_SLOT


def _compile_handle(template: MiniGraphTemplate) -> Tuple[Any, ...]:
    """Compile ``template`` into ``(ops, size, out, flags...)`` for the run loop.

    ``ops`` holds one flat tuple per constituent instruction with operands
    as value-list slots and everything static resolved: the ALU function,
    access size and signedness, branch predicate and immediates.  ``out`` is
    the output's slot (None without an interface output).  The last three
    fields are the entry's flags byte with no control outcome, taken and
    fall-through.
    """
    ops: List[Tuple[Any, ...]] = []
    for template_insn in template.instructions:
        op = template_insn.op
        spec = template_insn.spec
        a = _operand_slot(template_insn.src0)
        b = _operand_slot(template_insn.src1)
        if spec.op_class in (OpClass.ALU, OpClass.MUL):
            ops.append((_K_ALU, _ALU[op], a, b, template_insn.imm))
        elif spec.is_load:
            ops.append((_K_LOAD, a, template_insn.imm or 0, _ACCESS_SIZE[op],
                        op not in _UNSIGNED_LOADS))
        elif spec.is_store:
            ops.append((_K_STORE, a, b, template_insn.imm or 0,
                        _ACCESS_SIZE[op]))
        elif spec.op_class is OpClass.BRANCH:
            ops.append((_K_BRANCH, _BRANCH_FNS[op], a, template_insn.imm))
        elif spec.op_class is OpClass.JUMP:
            ops.append((_K_JUMP, template_insn.imm))
        else:
            raise SimulationError(f"opcode {op} not allowed inside a mini-graph")
    out = (None if template.out_index is None
           else _FIRST_INTERIOR_SLOT + template.out_index)
    control = template.has_branch
    access = (template.has_load, template.has_store, template.has_memory)
    return (tuple(ops), template.size, out,
            pack_flags(control, None, *access),
            pack_flags(control, True, *access),
            pack_flags(control, False, *access))


class FunctionalSimulator:
    """Architectural simulator for one program (optionally with an MGT)."""

    def __init__(self, program: Program, *, mgt: Optional[MiniGraphTable] = None) -> None:
        self._program = program
        self._mgt = mgt
        self._plan = _PLANS.get(program)

    @property
    def program(self) -> Program:
        return self._program

    # -- execution -------------------------------------------------------------

    def run(self, *, max_instructions: int = 200_000) -> FunctionalResult:
        """Execute the program until ``halt`` or the instruction budget expires.

        ``max_instructions`` counts *original* instructions, so a run of a
        rewritten program covers exactly the same work as a run of the
        original with the same budget.
        """
        program = self._program
        mgt = self._mgt
        registers = [0] * NUM_ARCH_REGS
        memory = Memory.from_image(program.data)
        # Committed rows: column value tuples.  Fully static rows (ALU, both
        # branch outcomes, jumps, calls, halt) are interned in the plan, so
        # committing one is a single list append of a shared tuple; dynamic
        # rows (loads, stores, indirect jumps, handles) are plain tuples.
        rows: List[Tuple[int, int, int, int]] = []
        rows_append = rows.append
        # MGID -> compiled template (see _compile_handle), filled on first use.
        handles: Dict[int, Tuple[Any, ...]] = {}

        steps = self._plan
        plan_size = len(steps)
        text_base = program.text_base
        mem_load = memory.load
        mem_store = memory.store
        mask = _WORD_MASK

        pc = program.entry_pc
        executed = 0
        halted = False

        # One dispatch tuple per static instruction; every committed entry is
        # a table dispatch plus raw list work — no per-instance decoding, no
        # per-instruction profile bookkeeping (derived from the index column
        # below), no trace-record allocation on the static paths.
        while executed < max_instructions:
            offset = pc - text_base
            index = offset >> 2
            if offset < 0 or index >= plan_size or offset & 3:
                raise SimulationError(
                    f"{program.name}: execution left the text segment at {pc:#x}")
            step = steps[index]
            kind = step[0]

            if kind == _K_NOP:
                pc += INSTRUCTION_BYTES
                continue

            if kind == _K_ALU:
                _, fn, rd, rs1, rs2, imm, row = step
                result = fn(registers[rs1] if rs1 is not None else 0,
                            registers[rs2] if rs2 is not None else 0, imm)
                if rd is not None:
                    registers[rd] = result & mask
                next_pc = pc + INSTRUCTION_BYTES
            elif kind == _K_LOAD:
                _, size, signed, rd, rs1, imm, next_pc = step
                address = ((registers[rs1] if rs1 is not None else 0) + imm) & mask
                value = mem_load(address, size, signed=signed)
                if rd is not None:
                    registers[rd] = value & mask
                row = (index, next_pc, _ROW_LOAD, address)
            elif kind == _K_BRANCH:
                _, fn, rs1, target, taken_row, fall_row = step
                if fn(registers[rs1] if rs1 is not None else 0):
                    row = taken_row
                    next_pc = target
                else:
                    row = fall_row
                    next_pc = pc + INSTRUCTION_BYTES
            elif kind == _K_STORE:
                _, size, rs1, rs2, imm, next_pc = step
                address = ((registers[rs1] if rs1 is not None else 0) + imm) & mask
                mem_store(address, registers[rs2] if rs2 is not None else 0, size)
                row = (index, next_pc, _ROW_STORE, address)
            elif kind == _K_HANDLE:
                _, mgid, rd, rs1, rs2 = step
                handle = handles.get(mgid)
                if handle is None:
                    if mgt is None:
                        raise SimulationError(
                            f"{program.name}: handle at {pc:#x} but no MGT "
                            f"was supplied")
                    handle = handles[mgid] = _compile_handle(
                        mgt.lookup(mgid).template)
                ops, size, out, flags, taken_flags, fall_flags = handle
                values = [registers[rs1] if rs1 is not None else 0,
                          registers[rs2] if rs2 is not None else 0, 0]
                push = values.append
                next_pc = pc + INSTRUCTION_BYTES
                address = 0
                # Interior ALU results stay unmasked, as the registers never
                # see them; loaded values and addresses are masked.
                for op in ops:
                    code = op[0]
                    if code == _K_ALU:
                        _, fn, a, b, imm = op
                        push(fn(values[a], values[b], imm))
                    elif code == _K_BRANCH:
                        _, fn, a, target = op
                        if fn(values[a]):
                            flags = taken_flags
                            next_pc = target
                        else:
                            flags = fall_flags
                        push(0)
                    elif code == _K_LOAD:
                        _, a, imm, width, signed = op
                        address = (values[a] + imm) & mask
                        push(mem_load(address, width, signed=signed) & mask)
                    elif code == _K_STORE:
                        _, a, b, imm, width = op
                        address = (values[a] + imm) & mask
                        mem_store(address, values[b], width)
                        push(0)
                    else:  # _K_JUMP
                        flags = taken_flags
                        next_pc = op[1]
                        push(0)
                if out is not None and rd is not None:
                    registers[rd] = values[out] & mask
                executed += size
                rows_append((index, next_pc, flags, address))
                pc = next_pc
                continue
            elif kind == _K_CMOVNE or kind == _K_CMOVEQ:
                _, rd, rs1, rs2, row = step
                a = registers[rs1] if rs1 is not None else 0
                moved = (a != 0) if kind == _K_CMOVNE else (a == 0)
                if moved:
                    result = registers[rs2] if rs2 is not None else 0
                else:
                    result = registers[rd] if rd is not None else 0
                if rd is not None:
                    registers[rd] = result & mask
                next_pc = pc + INSTRUCTION_BYTES
            elif kind == _K_FP:
                _, fn, rd, rs1, rs2, row = step
                result = fn(registers[rs1] if rs1 is not None else 0,
                            registers[rs2] if rs2 is not None else 0)
                if rd is not None:
                    registers[rd] = result & mask
                next_pc = pc + INSTRUCTION_BYTES
            elif kind == _K_JUMP:
                _, next_pc, row = step
            elif kind == _K_CALL:
                _, rd, next_pc, row = step
                if rd is not None:
                    registers[rd] = (pc + INSTRUCTION_BYTES) & mask
            elif kind == _K_INDIRECT:
                _, rs1 = step
                next_pc = registers[rs1] if rs1 is not None else 0
                row = (index, next_pc, _ROW_TAKEN, 0)
            elif kind == _K_HALT:
                _, row = step
                executed += 1
                rows_append(row)
                halted = True
                break
            else:  # pragma: no cover - plans contain no other kinds
                raise SimulationError(f"corrupt execution plan at {pc:#x}")

            executed += 1
            rows_append(row)
            pc = next_pc

        # One C-level transpose turns the committed rows into the packed
        # columns; the block profile falls out of the index column.
        columns = tuple(zip(*rows)) if rows else ((),) * 4
        trace = Trace.from_columns(*columns)
        profile = block_profile(program, Counter(columns[0]).items(),
                                executed)
        return FunctionalResult(
            program_name=program.name,
            instructions_executed=executed,
            entries_committed=len(rows),
            halted=halted,
            registers=registers,
            memory=memory,
            profile=profile,
            trace=trace,
        )


def run_program(program: Program, *, mgt: Optional[MiniGraphTable] = None,
                max_instructions: int = 200_000) -> FunctionalResult:
    """Run ``program`` once, until ``halt`` or the instruction budget.

    The run goes through the compiled core (:mod:`.functional_kernel`)
    whenever there is one.  Without a compiler, for a program the core
    cannot express, and whenever the core stops on an error, the whole run
    is repeated in the reference :class:`FunctionalSimulator`, so every
    result and every error (with its type and text) is the reference's.
    """
    from . import functional_kernel  # ctypes: loaded on the first run

    result = functional_kernel.run(program, mgt, max_instructions)
    if result is None:
        result = FunctionalSimulator(program, mgt=mgt).run(
            max_instructions=max_instructions)
    return result
