"""Binary rewriter: replace selected mini-graph instances with handles.

The rewriter implements the paper's binary-rewriting tool.  For each selected
static mini-graph instance it:

* replaces the *anchor* instruction with a ``mg`` handle carrying the
  interface registers and the MGID, and
* replaces the other member instructions with nops.

Padding with nops keeps the static layout, PCs and branch targets unchanged,
which isolates mini-graph amplification from instruction-cache compression
effects, as the paper does for all of its figures.  The compressed layout of
Section 6.2, where absorbed members take no space, is modelled at fetch by
:class:`~repro.uarch.pipeline.FetchLayout`.

The rewriter is deliberately independent of the selection machinery: it
consumes :class:`RewriteSite` items that name layout indices, so it can also
plant hand-written handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.instruction import Instruction, make_handle, make_nop
from .program import Program


class RewriteError(ValueError):
    """Raised when a rewrite plan is inconsistent with the program."""


@dataclass(frozen=True)
class RewriteSite:
    """One static mini-graph instance to collapse.

    Attributes:
        anchor_index: layout index where the handle is placed.
        member_indices: layout indices of all member instructions, including
            the anchor, in program order.
        mgid: MGT index encoded in the handle.
        input_regs: external input registers (at most two), in interface
            order E0, E1.
        output_reg: external output register or None.
    """

    anchor_index: int
    member_indices: Tuple[int, ...]
    mgid: int
    input_regs: Tuple[int, ...]
    output_reg: Optional[int]

    def __post_init__(self) -> None:
        if self.anchor_index not in self.member_indices:
            raise RewriteError("anchor must be one of the member instructions")
        if len(self.input_regs) > 2:
            raise RewriteError("mini-graph interface allows at most two inputs")
        if len(set(self.member_indices)) != len(self.member_indices):
            raise RewriteError("duplicate member indices in rewrite site")

    def handle(self) -> Instruction:
        """Build the handle instruction for this site."""
        rs1 = self.input_regs[0] if len(self.input_regs) >= 1 else None
        rs2 = self.input_regs[1] if len(self.input_regs) >= 2 else None
        return make_handle(rs1, rs2, self.output_reg, self.mgid)


@dataclass
class RewriteResult:
    """Output of :func:`rewrite_program`.

    Attributes:
        program: the rewritten program.
        handle_pcs: PC of each planted handle -> MGID.
        removed_instructions: number of member instructions turned into
            nops, not counting the anchors.
    """

    program: Program
    handle_pcs: Dict[int, int] = field(default_factory=dict)
    removed_instructions: int = 0


def _validate_sites(program: Program, sites: Sequence[RewriteSite]) -> None:
    used: Dict[int, int] = {}
    for site_number, site in enumerate(sites):
        for index in site.member_indices:
            if not 0 <= index < len(program.instructions):
                raise RewriteError(f"member index {index} out of range")
            if program.instructions[index].is_nop:
                raise RewriteError(f"member index {index} is a nop")
            if program.instructions[index].is_handle:
                raise RewriteError(f"member index {index} is already a handle")
            if index in used:
                raise RewriteError(
                    f"instruction {index} appears in two rewrite sites "
                    f"({used[index]} and {site_number}); a static instruction may "
                    f"belong to at most one mini-graph")
            used[index] = site_number


def rewrite_program(program: Program, sites: Sequence[RewriteSite]) -> RewriteResult:
    """Collapse every site in ``sites`` and return the rewritten program.

    The rewritten program is named ``<name>.mg`` and keeps the original
    layout: each site's anchor becomes its handle and the other members
    become nops.

    Args:
        program: the original program.
        sites: static instances to collapse; instructions may appear in at
            most one site.
    """
    _validate_sites(program, sites)

    replacement: Dict[int, Instruction] = {}
    removed: set[int] = set()
    for site in sites:
        replacement[site.anchor_index] = site.handle()
        for index in site.member_indices:
            if index != site.anchor_index:
                removed.add(index)

    new_instructions: List[Instruction] = []
    for index, insn in enumerate(program.instructions):
        if index in replacement:
            new_instructions.append(replacement[index])
        elif index in removed:
            new_instructions.append(make_nop())
        else:
            new_instructions.append(insn)
    rewritten = program.with_instructions(
        new_instructions,
        name=program.name + ".mg",
        metadata={**program.metadata, "rewritten": True, "compressed": False},
    )
    result = RewriteResult(program=rewritten, removed_instructions=len(removed))
    for index, handle in replacement.items():
        result.handle_pcs[rewritten.pc_of(index)] = handle.mgid
    return result
