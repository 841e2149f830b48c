"""Opcode definitions for the MGA (mini-graph architecture) ISA.

The ISA is a small Alpha-inspired RISC instruction set that is rich enough to
express the workload kernels and the mini-graph idioms shown in the paper
(``addl``, ``cmplt``, ``bne``, ``ldq``, ``srl``, ``and``, ``s8addl``, ...).

Each opcode is described by an :class:`OpSpec` containing its functional
class, nominal execution latency, operand usage and semantics.  The timing
model and the functional simulator both consult this table so the two can
never disagree about what an instruction reads or writes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional


class OpClass(enum.Enum):
    """Functional class of an opcode (what kind of unit executes it)."""

    ALU = "alu"            # single-cycle integer
    MUL = "mul"            # multi-cycle integer multiply
    FP = "fp"              # pipelined floating point add/compare/convert
    FPMUL = "fpmul"        # floating point multiply
    FPDIV = "fpdiv"        # unpipelined floating point divide
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"      # conditional direct branch
    JUMP = "jump"          # unconditional direct branch
    CALL = "call"          # direct call (writes return address)
    INDIRECT = "indirect"  # indirect jump / return
    MG = "mg"              # mini-graph handle (quasi-instruction)
    NOP = "nop"
    HALT = "halt"


#: Opcode classes that transfer control.
CONTROL_CLASSES = frozenset(
    {OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.INDIRECT, OpClass.HALT}
)

#: Opcode classes that reference memory.
MEMORY_CLASSES = frozenset({OpClass.LOAD, OpClass.STORE})

#: Opcode classes eligible for inclusion in mini-graphs (single-cycle integer
#: operations plus at most one memory operation and one terminal branch).
MINIGRAPH_ELIGIBLE_CLASSES = frozenset(
    {OpClass.ALU, OpClass.LOAD, OpClass.STORE, OpClass.BRANCH, OpClass.JUMP}
)

#: Conditional moves.  They read their destination register implicitly (the
#: not-moved case keeps the old value), so liveness must count ``rd`` as a
#: source, and a mini-graph template, which cannot name that register, may
#: not contain them.
CONDITIONAL_MOVES = frozenset({"cmovne", "cmoveq"})


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode.

    Attributes:
        name: assembly mnemonic.
        op_class: functional class (selects the functional unit).
        latency: nominal execution latency in cycles (loads use the cache
            model instead; this is the minimum/L1-hit latency).
        reads_rs1: whether the first source register is read.
        reads_rs2: whether the second source register is read (register form).
        writes_rd: whether a destination register is written.
        has_imm: whether the opcode carries an immediate operand.
        commutative: whether ``a OP b == b OP a`` (used by the optimizer and
            by property tests).
        description: one-line human description.
    """

    name: str
    op_class: OpClass
    latency: int = 1
    reads_rs1: bool = True
    reads_rs2: bool = True
    writes_rd: bool = True
    has_imm: bool = False
    commutative: bool = False
    description: str = ""

    @property
    def is_control(self) -> bool:
        """True if the opcode transfers control."""
        return self.op_class in CONTROL_CLASSES

    @property
    def is_memory(self) -> bool:
        """True if the opcode references memory."""
        return self.op_class in MEMORY_CLASSES

    @property
    def is_load(self) -> bool:
        return self.op_class is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.op_class is OpClass.STORE

    @property
    def is_branch(self) -> bool:
        """True for conditional branches only."""
        return self.op_class is OpClass.BRANCH

    @property
    def is_single_cycle_int(self) -> bool:
        """True for single-cycle integer ALU operations."""
        return self.op_class is OpClass.ALU

    @property
    def is_fp(self) -> bool:
        return self.op_class in (OpClass.FP, OpClass.FPMUL, OpClass.FPDIV)

    @property
    def minigraph_eligible(self) -> bool:
        """True if instructions of this opcode may appear inside mini-graphs."""
        return self.op_class in MINIGRAPH_ELIGIBLE_CLASSES


_OPCODES: Dict[str, OpSpec] = {}


def _define(spec: OpSpec) -> OpSpec:
    if spec.name in _OPCODES:
        raise ValueError(f"duplicate opcode definition: {spec.name}")
    _OPCODES[spec.name] = spec
    return spec


def _alu(name: str, *, has_imm: bool = False, commutative: bool = False,
         reads_rs2: bool = True, description: str = "") -> OpSpec:
    return _define(
        OpSpec(
            name=name,
            op_class=OpClass.ALU,
            latency=1,
            reads_rs1=True,
            reads_rs2=reads_rs2 and not has_imm,
            writes_rd=True,
            has_imm=has_imm,
            commutative=commutative,
            description=description,
        )
    )


# ---------------------------------------------------------------------------
# Integer ALU operations (register and immediate forms).
# ---------------------------------------------------------------------------
_alu("addl", commutative=True, description="32-bit add (sign extended)")
_alu("addli", has_imm=True, description="32-bit add immediate")
_alu("addq", commutative=True, description="64-bit add")
_alu("addqi", has_imm=True, description="64-bit add immediate")
_alu("subl", description="32-bit subtract")
_alu("subli", has_imm=True, description="32-bit subtract immediate")
_alu("subq", description="64-bit subtract")
_alu("subqi", has_imm=True, description="64-bit subtract immediate")
_alu("and", commutative=True, description="bitwise and")
_alu("andi", has_imm=True, description="bitwise and immediate")
_alu("bis", commutative=True, description="bitwise or (Alpha 'bis')")
_alu("bisi", has_imm=True, description="bitwise or immediate")
_alu("xor", commutative=True, description="bitwise exclusive or")
_alu("xori", has_imm=True, description="bitwise exclusive or immediate")
_alu("bic", description="bit clear: rs1 & ~rs2")
_alu("ornot", description="or with complement: rs1 | ~rs2")
_alu("sll", description="shift left logical")
_alu("slli", has_imm=True, description="shift left logical immediate")
_alu("srl", description="shift right logical")
_alu("srli", has_imm=True, description="shift right logical immediate")
_alu("sra", description="shift right arithmetic")
_alu("srai", has_imm=True, description="shift right arithmetic immediate")
_alu("cmpeq", commutative=True, description="compare equal (result 0/1)")
_alu("cmpeqi", has_imm=True, description="compare equal immediate")
_alu("cmplt", description="compare signed less-than")
_alu("cmplti", has_imm=True, description="compare signed less-than immediate")
_alu("cmple", description="compare signed less-or-equal")
_alu("cmplei", has_imm=True, description="compare signed less-or-equal immediate")
_alu("cmpult", description="compare unsigned less-than")
_alu("cmpulti", has_imm=True, description="compare unsigned less-than immediate")
_alu("cmovne", description="conditional move if rs1 != 0 (rd = rs2)")
_alu("cmoveq", description="conditional move if rs1 == 0 (rd = rs2)")
_alu("s4addl", description="scaled add: (rs1 << 2) + rs2")
_alu("s8addl", description="scaled add: (rs1 << 3) + rs2")
_alu("s4addli", has_imm=True, description="scaled add immediate: (rs1 << 2) + imm")
_alu("s8addli", has_imm=True, description="scaled add immediate: (rs1 << 3) + imm")
_alu("lda", has_imm=True, description="load address: rd = rs1 + imm")
_alu("ldah", has_imm=True, description="load address high: rd = rs1 + (imm << 16)")
_alu("extbl", description="extract byte low: (rs1 >> (8 * rs2)) & 0xff")
_alu("extbli", has_imm=True, description="extract byte low immediate")
_alu("insbl", description="insert byte low: (rs1 & 0xff) << (8 * rs2)")
_alu("mskbl", description="mask byte low: rs1 & ~(0xff << (8 * rs2))")
_alu("zapnot", has_imm=True, description="zero bytes not selected by the imm mask")
_alu("sextb", reads_rs2=False, description="sign extend byte")
_alu("sextw", reads_rs2=False, description="sign extend 16-bit word")
_alu("popcount", reads_rs2=False, description="population count of rs1")
_alu("clz", reads_rs2=False, description="count leading zeros of rs1 (64-bit)")

# ---------------------------------------------------------------------------
# Multi-cycle integer operations.
# ---------------------------------------------------------------------------
_define(OpSpec("mull", OpClass.MUL, latency=7, commutative=True,
               description="32-bit multiply"))
_define(OpSpec("mulq", OpClass.MUL, latency=7, commutative=True,
               description="64-bit multiply"))
_define(OpSpec("mulli", OpClass.MUL, latency=7, has_imm=True, reads_rs2=False,
               description="32-bit multiply immediate"))

# ---------------------------------------------------------------------------
# Floating point operations.
# ---------------------------------------------------------------------------
_define(OpSpec("addt", OpClass.FP, latency=4, commutative=True,
               description="FP add"))
_define(OpSpec("subt", OpClass.FP, latency=4, description="FP subtract"))
_define(OpSpec("cmptlt", OpClass.FP, latency=4, description="FP compare less-than"))
_define(OpSpec("cvtqt", OpClass.FP, latency=4, reads_rs2=False,
               description="convert integer to FP"))
_define(OpSpec("cvttq", OpClass.FP, latency=4, reads_rs2=False,
               description="convert FP to integer (truncate)"))
_define(OpSpec("mult", OpClass.FPMUL, latency=4, commutative=True,
               description="FP multiply"))
_define(OpSpec("divt", OpClass.FPDIV, latency=12, description="FP divide"))
_define(OpSpec("sqrtt", OpClass.FPDIV, latency=18, reads_rs2=False,
               description="FP square root"))

# ---------------------------------------------------------------------------
# Memory operations.  Address is always rs1 + imm; stores read the stored
# value from rs2.
# ---------------------------------------------------------------------------
_define(OpSpec("ldq", OpClass.LOAD, latency=2, reads_rs2=False, has_imm=True,
               description="load 64-bit quadword"))
_define(OpSpec("ldl", OpClass.LOAD, latency=2, reads_rs2=False, has_imm=True,
               description="load 32-bit longword (sign extended)"))
_define(OpSpec("ldbu", OpClass.LOAD, latency=2, reads_rs2=False, has_imm=True,
               description="load byte unsigned"))
_define(OpSpec("ldwu", OpClass.LOAD, latency=2, reads_rs2=False, has_imm=True,
               description="load 16-bit word unsigned"))
_define(OpSpec("ldt", OpClass.LOAD, latency=2, reads_rs2=False, has_imm=True,
               description="load FP quadword"))
_define(OpSpec("stq", OpClass.STORE, latency=1, reads_rs2=True, writes_rd=False,
               has_imm=True, description="store 64-bit quadword"))
_define(OpSpec("stl", OpClass.STORE, latency=1, reads_rs2=True, writes_rd=False,
               has_imm=True, description="store 32-bit longword"))
_define(OpSpec("stb", OpClass.STORE, latency=1, reads_rs2=True, writes_rd=False,
               has_imm=True, description="store byte"))
_define(OpSpec("stt", OpClass.STORE, latency=1, reads_rs2=True, writes_rd=False,
               has_imm=True, description="store FP quadword"))

# ---------------------------------------------------------------------------
# Control transfers.  Conditional branches test rs1 against zero (Alpha
# style); the compare-then-branch idiom of the paper (cmplt + bne) falls out
# naturally.
# ---------------------------------------------------------------------------
_define(OpSpec("beq", OpClass.BRANCH, latency=1, reads_rs2=False, writes_rd=False,
               has_imm=True, description="branch if rs1 == 0"))
_define(OpSpec("bne", OpClass.BRANCH, latency=1, reads_rs2=False, writes_rd=False,
               has_imm=True, description="branch if rs1 != 0"))
_define(OpSpec("blt", OpClass.BRANCH, latency=1, reads_rs2=False, writes_rd=False,
               has_imm=True, description="branch if rs1 < 0"))
_define(OpSpec("bge", OpClass.BRANCH, latency=1, reads_rs2=False, writes_rd=False,
               has_imm=True, description="branch if rs1 >= 0"))
_define(OpSpec("bgt", OpClass.BRANCH, latency=1, reads_rs2=False, writes_rd=False,
               has_imm=True, description="branch if rs1 > 0"))
_define(OpSpec("ble", OpClass.BRANCH, latency=1, reads_rs2=False, writes_rd=False,
               has_imm=True, description="branch if rs1 <= 0"))
_define(OpSpec("br", OpClass.JUMP, latency=1, reads_rs1=False, reads_rs2=False,
               writes_rd=False, has_imm=True, description="unconditional branch"))
_define(OpSpec("jsr", OpClass.CALL, latency=1, reads_rs1=False, reads_rs2=False,
               writes_rd=True, has_imm=True,
               description="jump to subroutine (writes return address)"))
_define(OpSpec("jmp", OpClass.INDIRECT, latency=1, reads_rs1=True, reads_rs2=False,
               writes_rd=False, description="indirect jump through rs1"))
_define(OpSpec("ret", OpClass.INDIRECT, latency=1, reads_rs1=True, reads_rs2=False,
               writes_rd=False, description="return through rs1"))

# ---------------------------------------------------------------------------
# Miscellaneous.
# ---------------------------------------------------------------------------
_define(OpSpec("nop", OpClass.NOP, latency=1, reads_rs1=False, reads_rs2=False,
               writes_rd=False, description="no operation"))
_define(OpSpec("halt", OpClass.HALT, latency=1, reads_rs1=False, reads_rs2=False,
               writes_rd=False, description="stop simulation"))
_define(OpSpec("mg", OpClass.MG, latency=1, reads_rs1=True, reads_rs2=True,
               writes_rd=True, has_imm=True,
               description="mini-graph handle (imm is the MGID)"))


class UnknownOpcodeError(KeyError):
    """Raised when an unknown mnemonic is looked up."""


def opcode(name: str) -> OpSpec:
    """Look up the :class:`OpSpec` for a mnemonic.

    Raises:
        UnknownOpcodeError: if the mnemonic is not defined.
    """
    try:
        return _OPCODES[name]
    except KeyError as exc:
        raise UnknownOpcodeError(f"unknown opcode: {name!r}") from exc


def has_opcode(name: str) -> bool:
    """Return True if ``name`` is a defined mnemonic."""
    return name in _OPCODES


def all_opcodes() -> Dict[str, OpSpec]:
    """Return a copy of the full opcode table keyed by mnemonic."""
    return dict(_OPCODES)
