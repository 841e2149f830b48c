"""Selection policies: which candidate mini-graphs are admissible.

Section 6.2 of the paper studies three selection sub-policies that trade
coverage against serialization and replay costs:

* disallowing *externally serial* mini-graphs (external inputs to any
  instruction other than the first),
* disallowing *internally parallel* mini-graphs (graphs that are not serial
  dependence chains and therefore suffer internal serialization), and
* disallowing *replay-vulnerable* mini-graphs (loads in any position other
  than the last, which force a whole-graph replay on a cache miss).

A :class:`SelectionPolicy` bundles these switches together with the basic
size and composition limits so that the Figure 5 and Figure 7 sweeps are just
different policy values.  Admission tests the structural flags the template
registry computed when the candidate's shape was interned
(:class:`repro.minigraph.registry.TemplateFlags`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List

from .candidates import MiniGraphCandidate
from .registry import TEMPLATE_REGISTRY, TemplateFlags


@dataclass(frozen=True)
class SelectionPolicy:
    """Filters applied to candidates before greedy selection.

    Attributes:
        max_size: maximum mini-graph size in instructions.
        allow_memory: admit integer-memory mini-graphs (loads/stores).
        allow_branches: admit graphs terminating in a control transfer.
        allow_externally_serial: admit graphs with external inputs to
            instructions other than the first.
        allow_internally_parallel: admit graphs that are not serial chains.
        allow_interior_loads: admit graphs whose load is not the terminal
            instruction (replay-vulnerable).
        max_templates: MGT capacity (number of distinct templates).
    """

    max_size: int = 4
    allow_memory: bool = True
    allow_branches: bool = True
    allow_externally_serial: bool = True
    allow_internally_parallel: bool = True
    allow_interior_loads: bool = True
    max_templates: int = 512

    def admits_structure(self, flags: TemplateFlags) -> bool:
        """Admission on a template's interned structural flags."""
        if flags.size > self.max_size:
            return False
        if flags.has_memory and not self.allow_memory:
            return False
        if flags.has_branch and not self.allow_branches:
            return False
        if flags.externally_serial and not self.allow_externally_serial:
            return False
        if flags.internally_parallel and not self.allow_internally_parallel:
            return False
        if flags.interior_load and not self.allow_interior_loads:
            return False
        return True

    def filter_candidates(self, candidates: Iterable[MiniGraphCandidate]
                          ) -> List[MiniGraphCandidate]:
        """Return the candidates admitted by this policy.

        Every selection path calls this first.  Each candidate must carry
        the template id the enumerator interned for it: ids are stripped on
        pickling and never re-established, so a candidate from another
        process (or the artifact store) raises ``ValueError``.
        """
        flags_of = TEMPLATE_REGISTRY.flags
        admitted: List[MiniGraphCandidate] = []
        for candidate in candidates:
            template_id = candidate.template_id
            if template_id is None:
                raise ValueError(
                    f"candidate {candidate.describe()} has no template_id: "
                    "ids are process-local and stripped on pickling, so only "
                    "candidates enumerated in this process can be selected")
            if self.admits_structure(flags_of(template_id)):
                admitted.append(candidate)
        return admitted

    # -- named variants used by the experiment harnesses ----------------------

    def integer_only(self) -> "SelectionPolicy":
        """Variant admitting only integer (no-memory) mini-graphs."""
        return replace(self, allow_memory=False)

    def without_external_serialization(self) -> "SelectionPolicy":
        """Variant rejecting externally serial mini-graphs (Figure 7)."""
        return replace(self, allow_externally_serial=False)

    def without_internal_serialization(self) -> "SelectionPolicy":
        """Variant rejecting internally parallel mini-graphs (Figure 7)."""
        return replace(self, allow_internally_parallel=False)

    def without_replay_vulnerable(self) -> "SelectionPolicy":
        """Variant rejecting interior-load mini-graphs (Figure 7)."""
        return replace(self, allow_interior_loads=False)

    def with_mgt_entries(self, entries: int) -> "SelectionPolicy":
        """Variant with a different MGT capacity (Figure 5 sweep)."""
        return replace(self, max_templates=entries)

    def with_max_size(self, size: int) -> "SelectionPolicy":
        """Variant with a different maximum mini-graph size (Figure 5 sweep)."""
        return replace(self, max_size=size)


#: Policy used for all headline experiments: 512 application-specific
#: mini-graphs of at most four instructions each (Section 6.1).
DEFAULT_POLICY = SelectionPolicy()

#: Integer-only variant (the paper's "int" configurations).
INTEGER_POLICY = DEFAULT_POLICY.integer_only()

#: Integer-memory variant (identical to the default, named for clarity).
INTEGER_MEMORY_POLICY = DEFAULT_POLICY

#: The fully restricted policy from Figure 7 (no serialization, no replay).
NON_SERIAL_NON_REPLAY_POLICY = (
    DEFAULT_POLICY
    .without_external_serialization()
    .without_internal_serialization()
    .without_replay_vulnerable()
)
