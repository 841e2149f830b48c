"""Mini-graph templates and operand references.

A *template* is the dataflow definition of a mini-graph independent of the
register names at any particular static instance: the per-instruction opcodes
and immediates, plus for every operand a reference that says whether it comes
from the handle's interface (E0/E1), from an earlier instruction inside the
graph (M0, M1, ...) or from an immediate.  Static instances with identical
templates are coalesced into a single MGT entry, exactly as the paper does
("we consider static mini-graphs with identical dataflows and immediate
operands as equivalent").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

from ..isa.opcodes import CONDITIONAL_MOVES, opcode

#: Maximum number of interface (external) register inputs.
MAX_EXTERNAL_INPUTS = 2
#: Maximum number of interface (external) register outputs.
MAX_EXTERNAL_OUTPUTS = 1
#: Maximum number of memory operations inside one mini-graph.
MAX_MEMORY_OPS = 1


class OperandKind(enum.Enum):
    """Where an operand of a template instruction comes from."""

    EXTERNAL = "E"   # interface input register (E0 or E1 of the handle)
    INTERNAL = "M"   # result of an earlier instruction in the same graph
    IMMEDIATE = "IM"  # literal encoded in the MGST
    ZERO = "Z"       # hardwired zero register


@dataclass(frozen=True)
class OperandRef:
    """Reference to the source of one operand.

    Attributes:
        kind: operand source kind.
        index: E index (0/1) for EXTERNAL, producing-instruction position for
            INTERNAL, unused otherwise.
    """

    kind: OperandKind
    index: int = 0

    def __str__(self) -> str:
        if self.kind is OperandKind.EXTERNAL:
            return f"E{self.index}"
        if self.kind is OperandKind.INTERNAL:
            return f"M{self.index}"
        if self.kind is OperandKind.IMMEDIATE:
            return "IM"
        return "zero"

    @property
    def is_external(self) -> bool:
        return self.kind is OperandKind.EXTERNAL

    @property
    def is_internal(self) -> bool:
        return self.kind is OperandKind.INTERNAL


def external(index: int) -> OperandRef:
    """Shorthand for an external operand reference (E0/E1)."""
    return OperandRef(OperandKind.EXTERNAL, index)


def internal(index: int) -> OperandRef:
    """Shorthand for an internal operand reference (M<index>)."""
    return OperandRef(OperandKind.INTERNAL, index)


def immediate() -> OperandRef:
    """Shorthand for an immediate operand reference."""
    return OperandRef(OperandKind.IMMEDIATE)


def zero() -> OperandRef:
    """Shorthand for a hardwired-zero operand reference."""
    return OperandRef(OperandKind.ZERO)


@dataclass(frozen=True)
class TemplateInstruction:
    """One constituent instruction of a mini-graph template.

    Attributes:
        op: mnemonic.
        src0: reference for the first source operand (None if unused).
        src1: reference for the second source operand (None if unused).
        imm: immediate value (ALU immediate, memory displacement, or branch
            target PC), or None.
    """

    op: str
    src0: Optional[OperandRef] = None
    src1: Optional[OperandRef] = None
    imm: Optional[int] = None

    @property
    def spec(self):
        return opcode(self.op)

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
    def is_control(self) -> bool:
        return self.spec.is_control

    def operand_refs(self) -> Tuple[OperandRef, ...]:
        """All non-None operand references."""
        refs = []
        if self.src0 is not None:
            refs.append(self.src0)
        if self.src1 is not None:
            refs.append(self.src1)
        return tuple(refs)

    def __str__(self) -> str:
        parts = [str(ref) for ref in self.operand_refs()]
        if self.imm is not None:
            parts.append(str(self.imm))
        return f"{self.op} " + ",".join(parts) if parts else self.op


class TemplateError(ValueError):
    """Raised for malformed mini-graph templates."""


@dataclass(frozen=True)
class MiniGraphTemplate:
    """The register-name-independent definition of a mini-graph.

    Attributes:
        instructions: constituent instructions in execution order.
        num_inputs: number of interface inputs actually used (0..2).
        out_index: position of the instruction whose result is the interface
            output, or None if the graph produces no register output (e.g. a
            store or a compare-and-branch whose values are all dead).
    """

    instructions: Tuple[TemplateInstruction, ...]
    num_inputs: int
    out_index: Optional[int]

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check the template against the paper's structural constraints."""
        if len(self.instructions) < 2:
            raise TemplateError("a mini-graph needs at least two instructions")
        if not 0 <= self.num_inputs <= MAX_EXTERNAL_INPUTS:
            raise TemplateError(
                f"mini-graphs allow at most {MAX_EXTERNAL_INPUTS} external inputs")
        if self.out_index is not None and not 0 <= self.out_index < len(self.instructions):
            raise TemplateError("out_index outside the template")
        memory_ops = sum(1 for t in self.instructions if t.is_memory)
        if memory_ops > MAX_MEMORY_OPS:
            raise TemplateError(
                f"mini-graphs allow at most {MAX_MEMORY_OPS} memory operation")
        for position, template_insn in enumerate(self.instructions):
            if template_insn.is_control and position != len(self.instructions) - 1:
                raise TemplateError("control transfers must be terminal")
            if not template_insn.spec.minigraph_eligible:
                raise TemplateError(
                    f"{template_insn.op} is not eligible for mini-graph inclusion")
            if template_insn.op in CONDITIONAL_MOVES:
                raise TemplateError(
                    f"{template_insn.op} reads its destination register, which "
                    f"a template cannot name")
            for ref in template_insn.operand_refs():
                if ref.is_internal and ref.index >= position:
                    raise TemplateError(
                        "internal operand must reference an earlier instruction")
                if ref.is_external and ref.index >= max(self.num_inputs, 1):
                    if ref.index >= MAX_EXTERNAL_INPUTS:
                        raise TemplateError("external operand index out of range")
        if self.out_index is not None and not self.instructions[self.out_index].spec.writes_rd:
            raise TemplateError("output-producing instruction writes no register")

    # -- structural properties -----------------------------------------------

    @property
    def size(self) -> int:
        """Number of constituent instructions."""
        return len(self.instructions)

    @property
    def has_load(self) -> bool:
        return any(t.is_load for t in self.instructions)

    @property
    def has_store(self) -> bool:
        return any(t.is_store for t in self.instructions)

    @property
    def has_memory(self) -> bool:
        return self.has_load or self.has_store

    @property
    def has_branch(self) -> bool:
        return any(t.is_control for t in self.instructions)

    @property
    def is_integer_only(self) -> bool:
        """True for graphs containing no memory operation (paper: "integer")."""
        return not self.has_memory

    @property
    def is_integer_memory(self) -> bool:
        """True for graphs containing a load or a store."""
        return self.has_memory

    @property
    def load_position(self) -> Optional[int]:
        """Position of the load, if any."""
        for position, template_insn in enumerate(self.instructions):
            if template_insn.is_load:
                return position
        return None

    @property
    def has_interior_load(self) -> bool:
        """True if a load appears at any position other than the last.

        Interior-load graphs must be replayed wholesale on a cache miss
        (Section 4.3), which is the effect the Figure 7 "replay" policy
        removes.
        """
        position = self.load_position
        return position is not None and position != self.size - 1

    @property
    def is_externally_serial(self) -> bool:
        """True if any instruction other than the first has an external input.

        Such graphs may suffer *external serialization*: the first instruction
        is spuriously forced to wait for inputs only needed later.
        """
        for position, template_insn in enumerate(self.instructions[1:], start=1):
            if any(ref.is_external for ref in template_insn.operand_refs()):
                return True
        return False

    @property
    def is_internally_parallel(self) -> bool:
        """True if the graph is not a pure serial dependence chain.

        Internally parallel graphs suffer *internal serialization* because the
        MGST drives one instruction per cycle.
        """
        for position, template_insn in enumerate(self.instructions[1:], start=1):
            consumes_previous = any(
                ref.is_internal and ref.index == position - 1
                for ref in template_insn.operand_refs()
            )
            if not consumes_previous:
                return True
        return False

    @property
    def is_serial_chain(self) -> bool:
        """True if every instruction consumes its predecessor's result."""
        return not self.is_internally_parallel

    # -- identity ------------------------------------------------------------

    def key(self) -> Tuple:
        """Hashable identity used to coalesce equivalent static instances."""
        return (
            tuple((t.op, t.src0, t.src1, t.imm) for t in self.instructions),
            self.num_inputs,
            self.out_index,
        )

    def describe(self) -> str:
        """One-line description, e.g. ``addl E0,2 ; cmplt M0,E1 ; bne M1``."""
        body = " ; ".join(str(t) for t in self.instructions)
        out = f" -> out@{self.out_index}" if self.out_index is not None else " -> no out"
        return body + out

    def __str__(self) -> str:
        return self.describe()
