"""Mini-graph candidate instances.

A *candidate* binds a :class:`~repro.minigraph.templates.MiniGraphTemplate`
to one static location: the basic block, the layout indices of the member
instructions, the chosen anchor, and the concrete interface register names.
Only the enumerator (:mod:`repro.minigraph.enumeration`) creates candidates,
and it gives each one its template's interned id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..program.rewriter import RewriteSite
from .templates import MiniGraphTemplate


@dataclass(frozen=True)
class MiniGraphCandidate:
    """One static instance of a mini-graph.

    Attributes:
        block_id: basic block containing the instance.
        member_indices: program layout indices of the members, in program
            order (which is also the template's execution order).
        anchor_index: layout index where the handle will be planted.
        template: the register-name-independent definition.
        input_regs: architectural registers bound to E0/E1 (in order).
        output_reg: architectural register bound to the output, or None.
        template_id: process-local interned id of ``template`` (see
            :mod:`repro.minigraph.registry`), set by the enumerator.  Not
            part of the candidate's identity: excluded from equality/hash
            and stripped on pickling because ids never transfer across
            processes, so an unpickled candidate cannot be selected.
    """

    block_id: int
    member_indices: Tuple[int, ...]
    anchor_index: int
    template: MiniGraphTemplate
    input_regs: Tuple[int, ...]
    output_reg: Optional[int]
    template_id: Optional[int] = field(default=None, compare=False, repr=False)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["template_id"] = None
        return state

    @property
    def size(self) -> int:
        """Number of member instructions."""
        return len(self.member_indices)

    @property
    def instructions_removed(self) -> int:
        """Pipeline slots saved per dynamic execution: ``n - 1``."""
        return self.size - 1

    def conflicts_with(self, used_indices: set[int]) -> bool:
        """True if any member instruction is already claimed by another graph."""
        return any(index in used_indices for index in self.member_indices)

    def rewrite_site(self, mgid: int) -> RewriteSite:
        """Convert this candidate into a :class:`RewriteSite` with ``mgid``."""
        return RewriteSite(
            anchor_index=self.anchor_index,
            member_indices=self.member_indices,
            mgid=mgid,
            input_regs=self.input_regs,
            output_reg=self.output_reg,
        )

    def describe(self) -> str:
        """Readable one-line description for reports and debugging."""
        members = ",".join(str(index) for index in self.member_indices)
        return (f"block {self.block_id} [{members}] anchor {self.anchor_index}: "
                f"{self.template.describe()}")
