"""Pack programs for, and call, the compiled functional core.

``functional_kernel.c`` is :class:`~repro.sim.functional.FunctionalSimulator`'s
run loop in C; :func:`repro.sim.functional.run_program` runs every
functional simulation through :func:`run` and falls back to the reference
whenever it returns None:

* a program is packed once (cached per program, like the reference's plans)
  into per-instruction opcode, register and immediate arrays plus its
  initial memory image; a program the packer cannot express — an immediate
  outside int64, a negative branch target, a register number outside the
  file, a misaligned image word — is never run here;
* each run packs the handle table from the MGT: one row per distinct MGID
  of the program, holding its template's ops as value-list slots, or the
  status the core ends the run with when that handle executes (no MGT, an
  MGID missing from it, an op no mini-graph may hold);
* any status other than OK (those, a pc outside the text segment, a
  misaligned access, an allocation failure) returns None, so the whole run
  is repeated in the reference and every error keeps its type and text
  from one source;
* without a compiled library (see :mod:`repro.native`) it returns None too.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Any, List, Optional, Tuple

from .. import native
from ..isa.opcodes import CONDITIONAL_MOVES, OpClass, all_opcodes
from ..isa.registers import NUM_ARCH_REGS, is_zero_reg
from ..minigraph.mgt import MiniGraphTable
from ..minigraph.templates import MiniGraphTemplate
from ..program.program import Program
from ..program.weakcache import PerProgramCache
from .functional import (
    _FIRST_INTERIOR_SLOT,
    FunctionalResult,
    _operand_slot,
    block_profile,
)
from .memory import Memory
from .trace import Trace, pack_flags

#: Every opcode, in ``OP_*`` order of the C source.
OPCODES = (
    "addl", "addli", "addq", "addqi", "subl", "subli", "subq", "subqi",
    "and", "andi", "bis", "bisi", "xor", "xori", "bic", "ornot",
    "sll", "slli", "srl", "srli", "sra", "srai",
    "cmpeq", "cmpeqi", "cmplt", "cmplti", "cmple", "cmplei", "cmpult",
    "cmpulti", "cmovne", "cmoveq", "s4addl", "s8addl", "s4addli", "s8addli",
    "lda", "ldah", "extbl", "extbli", "insbl", "mskbl", "zapnot",
    "sextb", "sextw", "popcount", "clz",
    "mull", "mulq", "mulli",
    "addt", "subt", "cmptlt", "cvtqt", "cvttq", "mult", "divt", "sqrtt",
    "ldq", "ldl", "ldbu", "ldwu", "ldt", "stq", "stl", "stb", "stt",
    "beq", "bne", "blt", "bge", "bgt", "ble", "br", "jsr", "jmp", "ret",
    "nop", "halt", "mg",
)
_CODES = {name: code for code, name in enumerate(OPCODES)}

#: Result codes of ``repro_functional_run`` and per-handle statuses
#: (``FN_*`` in the C source).
FN_OK, FN_LEFT_TEXT, FN_MISALIGNED, FN_NO_MGT, FN_UNKNOWN_MGID, \
    FN_BAD_HANDLE, FN_NO_MEMORY = range(7)

#: Register slots past the architectural file: reads as zero, and absorbs
#: discarded writes.
READ_ZERO = NUM_ARCH_REGS
WRITE_SINK = NUM_ARCH_REGS + 1

_INT64 = (-(1 << 63), 1 << 63)
_INT32 = (-(1 << 31), 1 << 31)
_MASK = (1 << 64) - 1

#: Op classes a handle's template may hold, and those with a direct target.
_TEMPLATE_CLASSES = frozenset({OpClass.ALU, OpClass.MUL, OpClass.LOAD,
                               OpClass.STORE, OpClass.BRANCH, OpClass.JUMP})
_DIRECT_CLASSES = frozenset({OpClass.BRANCH, OpClass.JUMP, OpClass.CALL})
#: Ops for which an absent immediate means 0: those that read none, memory
#: ops (``imm or 0``) and ``zapnot`` (an absent mask).  Any other op with an
#: absent immediate fails in the reference.
_ABSENT_IMM_IS_ZERO = frozenset(
    name for name, spec in all_opcodes().items()
    if not spec.has_imm or spec.is_memory or name == "zapnot")


class _Packed(ctypes.Structure):
    """``fn_program`` of the C source, field for field."""

    _fields_ = [
        ("count", ctypes.c_int64), ("text_base", ctypes.c_uint64),
        ("entry_pc", ctypes.c_uint64),
        ("op", ctypes.c_void_p), ("rd", ctypes.c_void_p),
        ("rs1", ctypes.c_void_p), ("rs2", ctypes.c_void_p),
        ("imm", ctypes.c_void_p),
        ("image_words", ctypes.c_int64), ("image_addr", ctypes.c_void_p),
        ("image_value", ctypes.c_void_p),
        ("handles", ctypes.c_int64), ("handle_status", ctypes.c_void_p),
        ("handle_start", ctypes.c_void_p), ("handle_count", ctypes.c_void_p),
        ("handle_out", ctypes.c_void_p), ("handle_flags", ctypes.c_void_p),
        ("t_op", ctypes.c_void_p), ("t_a", ctypes.c_void_p),
        ("t_b", ctypes.c_void_p), ("t_imm", ctypes.c_void_p),
    ]


class _Result(ctypes.Structure):
    """``fn_result`` of the C source, field for field."""

    _fields_ = [
        ("entries", ctypes.c_int64), ("executed", ctypes.c_int64),
        ("halted", ctypes.c_int64),
        ("registers", ctypes.c_uint64 * NUM_ARCH_REGS),
        ("index", ctypes.c_void_p), ("next_pc", ctypes.c_void_p),
        ("flags", ctypes.c_void_p), ("ea", ctypes.c_void_p),
        ("words", ctypes.c_int64), ("word_addr", ctypes.c_void_p),
        ("word_value", ctypes.c_void_p),
        ("touched", ctypes.c_int64), ("touched_index", ctypes.c_void_p),
        ("touched_count", ctypes.c_void_p),
    ]


#: The trace columns in ``Trace.from_columns`` order: result field and
#: array typecode.
_TRACE_FIELDS = (("index", "I"), ("next_pc", "Q"), ("flags", "B"),
                 ("ea", "Q"))


class _ProgramPack:
    """A program's packed arrays and the MGIDs its handles name."""

    __slots__ = ("count", "text_base", "entry_pc", "arrays", "image",
                 "mgids")

    def __init__(self, program: Program) -> None:
        count = len(program.instructions)
        text_base = program.text_base
        entry_pc = program.entry_pc
        if not (0 <= text_base and text_base + 4 * count < 1 << 63
                and 0 <= entry_pc < 1 << 64):
            raise ValueError("text segment outside the core's address range")
        codes, rds, rs1s, rs2s, imms = (array(typecode) for typecode in
                                        ("B", "B", "B", "B", "q"))
        mgids: List[int] = []
        for insn in program.instructions:
            spec = insn.spec
            imm = insn.imm
            if spec.op_class is OpClass.MG:
                if not _in(imm, _INT32):
                    raise ValueError(f"MGID {imm!r} outside int32")
                if imm not in mgids:
                    mgids.append(imm)
                imm = mgids.index(imm)
            else:
                imm = _immediate(insn.op, spec.op_class, imm)
            codes.append(_CODES[insn.op])
            rds.append(_register(insn.rd, WRITE_SINK))
            rs1s.append(_register(insn.rs1, READ_ZERO))
            rs2s.append(_register(insn.rs2, READ_ZERO))
            imms.append(imm)
        image = program.data
        for address in image:
            if not 0 <= address < 1 << 64 or address % 8:
                raise ValueError(f"image word at {address:#x} misaligned")
        self.count = count
        self.text_base = text_base
        self.entry_pc = entry_pc
        self.arrays = (codes, rds, rs1s, rs2s, imms)
        self.image = (array("Q", image),
                      array("Q", [value & _MASK for value in image.values()]))
        self.mgids = tuple(mgids)


def _in(value: Any, bounds: Tuple[int, int]) -> bool:
    return isinstance(value, int) and bounds[0] <= value < bounds[1]


def _register(reg: Any, absent: int) -> int:
    if reg is None or is_zero_reg(reg):
        return absent
    if not _in(reg, (0, NUM_ARCH_REGS)):
        raise ValueError(f"register {reg!r} outside the register file")
    return reg


def _immediate(op: str, op_class: OpClass, imm: Any) -> int:
    """The packed immediate of one instruction or template op.

    Raises ValueError for one the core cannot express.
    """
    if imm is None and op in _ABSENT_IMM_IS_ZERO:
        return 0
    if not _in(imm, _INT64) or (op_class in _DIRECT_CLASSES and imm < 0):
        raise ValueError(f"{op}: immediate {imm!r} outside the core's range")
    return imm


def _pack_program(program: Program) -> Optional[_ProgramPack]:
    try:
        return _ProgramPack(program)
    except (ValueError, TypeError, KeyError, OverflowError):
        return None


_PACKS: PerProgramCache[Optional[_ProgramPack]] = PerProgramCache(
    _pack_program)


def _pack_template(template: MiniGraphTemplate) -> Optional[Tuple[Any, ...]]:
    """``(ops, a, b, imms, out, flags)`` of one template, or None when a
    handle running it must be left to the reference."""
    ops, slots_a, slots_b, imms = [], [], [], []
    control = load = store = False
    for position, template_insn in enumerate(template.instructions):
        op = template_insn.op
        spec = template_insn.spec
        op_class = spec.op_class
        if op_class not in _TEMPLATE_CLASSES or op in CONDITIONAL_MOVES:
            return None
        a = _operand_slot(template_insn.src0)
        b = _operand_slot(template_insn.src1)
        if not (0 <= a < _FIRST_INTERIOR_SLOT + position
                and 0 <= b < _FIRST_INTERIOR_SLOT + position):
            return None
        try:
            imms.append(_immediate(op, op_class, template_insn.imm))
        except ValueError:
            return None
        ops.append(_CODES[op])
        slots_a.append(a)
        slots_b.append(b)
        control = control or spec.is_control
        load = load or op_class is OpClass.LOAD
        store = store or op_class is OpClass.STORE
    size = len(ops)
    out = template.out_index
    if out is None:
        out_slot = -1
    elif isinstance(out, int) and 0 <= out < size:
        out_slot = _FIRST_INTERIOR_SLOT + out
    else:
        return None
    if not 0 < size < 1 << 16:
        return None
    access = (load, store, load or store)
    flags = (pack_flags(control, None, *access),
             pack_flags(control, True, *access),
             pack_flags(control, False, *access))
    return ops, slots_a, slots_b, imms, out_slot, flags


def _pack_handles(mgids: Tuple[int, ...],
                  mgt: Optional[MiniGraphTable]) -> Tuple[array, ...]:
    """The handle table of one run: one row per MGID, in ``mgids`` order."""
    status, start, count, out = (array(typecode)
                                 for typecode in ("B", "i", "i", "i"))
    flags, t_op = array("B"), array("B")
    t_a, t_b, t_imm = array("i"), array("i"), array("q")
    for mgid in mgids:
        packed = None
        if mgt is None:
            code = FN_NO_MGT
        else:
            try:
                template = mgt.lookup(mgid).template
            except Exception:   # noqa: BLE001 - the reference raises it
                code = FN_UNKNOWN_MGID
            else:
                packed = _pack_template(template)
                code = FN_OK if packed is not None else FN_BAD_HANDLE
        status.append(code)
        start.append(len(t_op))
        if packed is None:
            count.append(0)
            out.append(-1)
            flags.extend((0, 0, 0))
            continue
        ops, slots_a, slots_b, imms, out_slot, outcome = packed
        count.append(len(ops))
        out.append(out_slot)
        flags.extend(outcome)
        t_op.extend(ops)
        t_a.extend(slots_a)
        t_b.extend(slots_b)
        t_imm.extend(imms)
    return status, start, count, out, flags, t_op, t_a, t_b, t_imm


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


def _column(typecode: str, pointer: int, count: int) -> bytes:
    if not count:
        return b""
    return ctypes.string_at(pointer, count * array(typecode).itemsize)


def kernel() -> Optional[Any]:
    """The ``repro_functional_run`` entry point, or None without a library."""
    library = native.library()
    return None if library is None else library.repro_functional_run


def run(program: Program, mgt: Optional[MiniGraphTable],
        max_instructions: Any) -> Optional[FunctionalResult]:
    """One run of ``program`` in the compiled core, or None.

    None means the reference must run it: there is no compiled library, the
    program or budget cannot be packed, or the core ended with a status
    other than OK.
    """
    library = native.library()
    if library is None or type(max_instructions) is not int:
        return None
    pack = _PACKS.get(program)
    if pack is None:
        return None
    handles = _pack_handles(pack.mgids, mgt)
    codes, rds, rs1s, rs2s, imms = pack.arrays
    image_addr, image_value = pack.image
    packed = _Packed(
        pack.count, pack.text_base, pack.entry_pc,
        *(_address(buffer) for buffer in (codes, rds, rs1s, rs2s, imms)),
        len(image_addr), _address(image_addr), _address(image_value),
        len(pack.mgids), *(_address(buffer) for buffer in handles))
    result = _Result()
    budget = max(-1, min(max_instructions, 1 << 62))
    code = library.repro_functional_run(ctypes.byref(packed), budget,
                                        ctypes.byref(result))
    try:
        if code != FN_OK:
            return None
        entries = result.entries
        trace = Trace.from_columns(*(
            _column(typecode, getattr(result, name), entries)
            for name, typecode in _TRACE_FIELDS))
        words = result.words
        addresses = array("Q", _column("Q", result.word_addr, words))
        values = array("Q", _column("Q", result.word_value, words))
        touched = result.touched
        indices = array("I", _column("I", result.touched_index, touched))
        counts = array("q", _column("q", result.touched_count, touched))
        return FunctionalResult(
            program_name=program.name,
            instructions_executed=result.executed,
            entries_committed=entries,
            halted=bool(result.halted),
            registers=list(result.registers),
            memory=Memory(dict(zip(addresses, values))),
            profile=block_profile(program, zip(indices, counts),
                                  result.executed),
            trace=trace)
    finally:
        library.repro_functional_free(ctypes.byref(result))
