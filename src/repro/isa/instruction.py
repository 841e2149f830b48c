"""Instruction representation for the MGA ISA.

An :class:`Instruction` is a static instruction: an opcode plus register and
immediate operands and, for control transfers, a symbolic target label.  The
assembler produces a list of instructions with resolved targets; the program
model assigns each one a PC.

Instructions are deliberately plain data.  Semantics live in
:mod:`repro.sim.functional` and timing behaviour lives in :mod:`repro.uarch`;
both consult :mod:`repro.isa.opcodes` for operand usage so the pieces cannot
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .opcodes import CONDITIONAL_MOVES, OpClass, OpSpec, opcode
from .registers import NUM_ARCH_REGS, ZERO_REG, RegisterError, is_zero_reg, reg_name

#: Instruction size in bytes (fixed-width encoding).
INSTRUCTION_BYTES = 4


@dataclass(frozen=True)
class Instruction:
    """A static MGA instruction.

    Attributes:
        op: mnemonic (must exist in the opcode table).
        rd: destination register number, or None if the opcode writes nothing.
        rs1: first source register number, or None.
        rs2: second source register number, or None.
        imm: immediate operand (ALU immediate, memory displacement, branch
            displacement once resolved, or the MGID of a handle).
        target: symbolic label for control transfers; resolved by the
            assembler into ``imm`` (an absolute target PC) but kept for
            readability and so the program model can resolve it against its
            label table.
    """

    op: str
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[str] = None

    def __post_init__(self) -> None:
        # Validate against the opcode table eagerly so malformed instructions
        # fail at construction time rather than deep inside a simulator loop.
        spec = opcode(self.op)
        if spec.writes_rd and self.rd is None:
            raise ValueError(f"{self.op}: missing destination register")
        if spec.reads_rs1 and self.rs1 is None:
            raise ValueError(f"{self.op}: missing first source register")
        if spec.reads_rs2 and self.rs2 is None:
            raise ValueError(f"{self.op}: missing second source register")
        # A memory op's absent displacement means 0; a control transfer may
        # carry its label alone until the assembler resolves it.
        if (spec.has_imm and self.imm is None and self.target is None
                and not spec.is_memory):
            raise ValueError(f"{self.op}: missing immediate")
        for reg in (self.rd, self.rs1, self.rs2):
            if reg is not None and not 0 <= reg < NUM_ARCH_REGS:
                raise RegisterError(
                    f"{self.op}: register number out of range: {reg}")

    # -- static properties ---------------------------------------------------

    @property
    def spec(self) -> OpSpec:
        """The :class:`OpSpec` describing this instruction's opcode."""
        return opcode(self.op)

    @property
    def is_control(self) -> bool:
        return self.spec.is_control

    @property
    def is_branch(self) -> bool:
        """True for conditional branches."""
        return self.spec.is_branch

    @property
    def is_direct_control(self) -> bool:
        """True for control transfers whose target is encoded statically."""
        return self.spec.op_class in (OpClass.BRANCH, OpClass.JUMP, OpClass.CALL)

    @property
    def is_load(self) -> bool:
        return self.spec.is_load

    @property
    def is_store(self) -> bool:
        return self.spec.is_store

    @property
    def is_memory(self) -> bool:
        return self.spec.is_memory

    @property
    def is_nop(self) -> bool:
        return self.spec.op_class is OpClass.NOP

    @property
    def is_halt(self) -> bool:
        return self.spec.op_class is OpClass.HALT

    @property
    def is_handle(self) -> bool:
        """True if this is a mini-graph handle (``mg``)."""
        return self.spec.op_class is OpClass.MG

    @property
    def mgid(self) -> int:
        """MGID of a handle instruction."""
        if not self.is_handle:
            raise ValueError("mgid is only defined for mg handles")
        if self.imm is None:
            raise ValueError("mg handle has no MGID immediate")
        return self.imm

    # -- dataflow ------------------------------------------------------------

    def source_registers(self) -> tuple[int, ...]:
        """Registers read by this instruction (zero registers excluded).

        The hardwired zero register is excluded because it never creates a
        dependence; this matches how renaming treats it.  Conditional moves
        additionally read their destination register (the not-moved case keeps
        the old value), which matters to liveness and mini-graph interface
        analysis.
        """
        spec = self.spec
        sources = []
        if spec.reads_rs1 and self.rs1 is not None and not is_zero_reg(self.rs1):
            sources.append(self.rs1)
        if spec.reads_rs2 and self.rs2 is not None and not is_zero_reg(self.rs2):
            sources.append(self.rs2)
        if self.op in CONDITIONAL_MOVES and self.rd is not None \
                and not is_zero_reg(self.rd) and self.rd not in sources:
            sources.append(self.rd)
        return tuple(sources)

    def destination_register(self) -> Optional[int]:
        """Register written by this instruction, or None.

        Writes to the hardwired zero register are discarded and reported as
        no destination.
        """
        spec = self.spec
        if not spec.writes_rd or self.rd is None or is_zero_reg(self.rd):
            return None
        return self.rd

    # -- rewriting helpers ---------------------------------------------------

    def with_target(self, target: str, imm: Optional[int] = None) -> "Instruction":
        """Return a copy with a new control-transfer target."""
        return replace(self, target=target, imm=imm)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return format_instruction(self)


def format_instruction(insn: Instruction) -> str:
    """Render an instruction in assembly syntax.

    The format mirrors the paper's examples, e.g. ``addl r18,2,r18``,
    ``ldq r2,16(r4)``, ``bne r7,loop`` and ``mg r18,r5,r18,12``.
    """
    spec = insn.spec
    if spec.op_class is OpClass.NOP:
        return "nop"
    if spec.op_class is OpClass.HALT:
        return "halt"
    if spec.op_class is OpClass.MG:
        rs1 = reg_name(insn.rs1) if insn.rs1 is not None else "-"
        rs2 = reg_name(insn.rs2) if insn.rs2 is not None else "-"
        rd = reg_name(insn.rd) if insn.rd is not None else "-"
        return f"mg {rs1},{rs2},{rd},{insn.imm}"
    if spec.is_load:
        return f"{insn.op} {reg_name(insn.rd)},{insn.imm or 0}({reg_name(insn.rs1)})"
    if spec.is_store:
        return f"{insn.op} {reg_name(insn.rs2)},{insn.imm or 0}({reg_name(insn.rs1)})"
    if spec.op_class is OpClass.BRANCH:
        target = insn.target if insn.target is not None else hex(insn.imm or 0)
        return f"{insn.op} {reg_name(insn.rs1)},{target}"
    if spec.op_class is OpClass.JUMP:
        target = insn.target if insn.target is not None else hex(insn.imm or 0)
        return f"{insn.op} {target}"
    if spec.op_class is OpClass.CALL:
        target = insn.target if insn.target is not None else hex(insn.imm or 0)
        return f"{insn.op} {reg_name(insn.rd)},{target}"
    if spec.op_class is OpClass.INDIRECT:
        return f"{insn.op} {reg_name(insn.rs1)}"
    # ALU / MUL / FP forms.
    parts = []
    if spec.reads_rs1:
        parts.append(reg_name(insn.rs1))
    if spec.reads_rs2:
        parts.append(reg_name(insn.rs2))
    if spec.has_imm:
        parts.append(str(insn.imm))
    if spec.writes_rd:
        parts.append(reg_name(insn.rd))
    return f"{insn.op} " + ",".join(parts)


# -- construction helpers used throughout the code base ----------------------

def make_nop() -> Instruction:
    """Return a canonical nop."""
    return Instruction("nop")


def make_handle(rs1: Optional[int], rs2: Optional[int], rd: Optional[int],
                mgid: int) -> Instruction:
    """Build a mini-graph handle.

    Handles always carry three register fields; unused ones are encoded as the
    zero register so that renaming machinery can treat every handle uniformly.
    """
    return Instruction(
        "mg",
        rd=rd if rd is not None else ZERO_REG,
        rs1=rs1 if rs1 is not None else ZERO_REG,
        rs2=rs2 if rs2 is not None else ZERO_REG,
        imm=mgid,
    )
