"""Static program image for the MGA ISA.

A :class:`Program` is an ordered list of instructions with assigned PCs, a
label table, an initial data segment and an entry point.  It is the unit that
the functional simulator executes, that the profiler annotates, that the
mini-graph extractor analyses and that the binary rewriter transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..isa.assembler import AssembledUnit, assemble
from ..isa.instruction import INSTRUCTION_BYTES, Instruction, format_instruction


class ProgramError(ValueError):
    """Raised for malformed programs (bad entry points, dangling targets...)."""


@dataclass
class Program:
    """An executable program image.

    Attributes:
        name: human-readable program name (benchmark name).
        instructions: the text segment in layout order.
        text_base: PC of the first instruction.
        labels: code label -> PC.
        data: initial data segment, address -> 64-bit integer value.
        data_labels: data label -> base address.
        entry_label: label of the entry point (defaults to the first
            instruction).
        metadata: free-form annotations (suite name, kernel parameters, ...).
    """

    name: str
    instructions: List[Instruction]
    text_base: int = 0x1000
    labels: Dict[str, int] = field(default_factory=dict)
    data: Dict[int, int] = field(default_factory=dict)
    data_labels: Dict[str, int] = field(default_factory=dict)
    entry_label: Optional[str] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._resolve_targets()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_assembly(cls, name: str, source: str, *,
                      entry_label: Optional[str] = None,
                      metadata: Optional[Dict[str, object]] = None) -> "Program":
        """Assemble ``source`` and wrap it in a Program."""
        unit = assemble(source)
        return cls.from_unit(name, unit, entry_label=entry_label, metadata=metadata)

    @classmethod
    def from_unit(cls, name: str, unit: AssembledUnit, *,
                  entry_label: Optional[str] = None,
                  metadata: Optional[Dict[str, object]] = None) -> "Program":
        """Wrap an :class:`AssembledUnit` in a Program."""
        labels = {label: unit.text_base + index * INSTRUCTION_BYTES
                  for label, index in unit.labels.items()}
        return cls(
            name=name,
            instructions=list(unit.instructions),
            text_base=unit.text_base,
            labels=labels,
            data=dict(unit.data),
            data_labels=dict(unit.data_labels),
            entry_label=entry_label,
            metadata=dict(metadata or {}),
        )

    def _resolve_targets(self) -> None:
        """Fill in the ``imm`` field of direct control transfers from labels."""
        if not self.instructions:
            raise ProgramError(f"program {self.name!r} has no instructions")
        resolved: List[Instruction] = []
        for index, insn in enumerate(self.instructions):
            if insn.is_direct_control and insn.target is not None:
                if insn.target not in self.labels:
                    raise ProgramError(
                        f"{self.name}: undefined target {insn.target!r} at index {index}")
                resolved.append(insn.with_target(insn.target, self.labels[insn.target]))
            else:
                resolved.append(insn)
        self.instructions = resolved
        if self.entry_label is not None and self.entry_label not in self.labels:
            raise ProgramError(f"{self.name}: undefined entry label {self.entry_label!r}")

    # -- addressing ----------------------------------------------------------

    @property
    def entry_pc(self) -> int:
        """PC where execution starts."""
        if self.entry_label is not None:
            return self.labels[self.entry_label]
        return self.text_base

    @property
    def end_pc(self) -> int:
        """PC one past the last instruction."""
        return self.text_base + len(self.instructions) * INSTRUCTION_BYTES

    def pc_of(self, index: int) -> int:
        """PC of the instruction at layout index ``index``."""
        return self.text_base + index * INSTRUCTION_BYTES

    def index_of(self, pc: int) -> int:
        """Layout index of the instruction at ``pc``.

        Raises:
            ProgramError: if ``pc`` is outside the text segment or unaligned.
        """
        offset = pc - self.text_base
        if offset < 0 or offset % INSTRUCTION_BYTES:
            raise ProgramError(f"{self.name}: bad PC {pc:#x}")
        index = offset // INSTRUCTION_BYTES
        if index >= len(self.instructions):
            raise ProgramError(f"{self.name}: PC {pc:#x} past end of text")
        return index

    def contains_pc(self, pc: int) -> bool:
        """True if ``pc`` addresses an instruction of this program."""
        offset = pc - self.text_base
        return (offset >= 0 and offset % INSTRUCTION_BYTES == 0
                and offset // INSTRUCTION_BYTES < len(self.instructions))

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def iter_with_pc(self) -> Iterator[tuple[int, Instruction]]:
        """Yield ``(pc, instruction)`` pairs in layout order."""
        for index, insn in enumerate(self.instructions):
            yield self.pc_of(index), insn

    # -- transformation ------------------------------------------------------

    def with_instructions(self, instructions: List[Instruction], *,
                          name: Optional[str] = None,
                          metadata: Optional[Dict[str, object]] = None) -> "Program":
        """Return a copy with a replaced text segment (used by the rewriter)."""
        return Program(
            name=name or self.name,
            instructions=list(instructions),
            text_base=self.text_base,
            labels=dict(self.labels),
            data=dict(self.data),
            data_labels=dict(self.data_labels),
            entry_label=self.entry_label,
            metadata=dict(metadata if metadata is not None else self.metadata),
        )

    # -- formatting ----------------------------------------------------------

    def disassemble(self) -> str:
        """Render the program as annotated assembly text."""
        pc_to_label = {pc: label for label, pc in self.labels.items()}
        lines = []
        for pc, insn in self.iter_with_pc():
            if pc in pc_to_label:
                lines.append(f"{pc_to_label[pc]}:")
            lines.append(f"  {pc:#08x}: {format_instruction(insn)}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (f"Program(name={self.name!r}, instructions={len(self.instructions)}, "
                f"entry={self.entry_pc:#x})")
