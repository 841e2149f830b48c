"""Greedy, coverage-driven mini-graph selection.

Implements the paper's Section 3.2 selection algorithm:

1. enumerate all legal candidates (done by :mod:`repro.minigraph.enumeration`);
2. coalesce static instances with identical dataflow/immediates into
   templates and rank templates by estimated coverage ``sum (n-1)*f`` over
   their instances, where ``f`` comes from a basic-block frequency profile;
3. iterate over the ranked list, selecting templates until the MGT is full or
   the list is exhausted; a static instruction may belong to at most one
   selected mini-graph, so the benefit of the remaining templates is adjusted
   after every pick.

The module also implements *domain-specific* selection (one MGT shared by a
whole benchmark suite, Figure 5 bottom).

The greedy core is **heap-driven** (see ``docs/architecture.md``,
"Compilation front-end"): groups are keyed by interned template id, a
lazy-revalidation max-heap orders them by current benefit (dense
canonical-key ranks break ties — the exact total order of the seed's
``repr(key)`` comparison), and an inverted index from static instruction
index to overlapping instances propagates each pick only to the groups it
actually conflicts with.  Benefits only ever decrease, so a popped entry
whose stored benefit is stale is simply re-pushed with the current value.
The result is bit-identical to the quadratic reference loop, which is kept
as :func:`select_minigraphs_reference` and cross-checked by the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..program.profile import BlockProfile
from ..program.program import Program
from ..program.rewriter import RewriteSite
from .candidates import MiniGraphCandidate
from .enumeration import EnumerationLimits, EnumerationResult, enumerate_minigraphs
from .policies import DEFAULT_POLICY, SelectionPolicy
from .registry import FRONTEND_STATS, TEMPLATE_REGISTRY
from .templates import MiniGraphTemplate


@dataclass
class SelectedMiniGraph:
    """One selected template with its MGID and committed static instances."""

    mgid: int
    template: MiniGraphTemplate
    instances: List[MiniGraphCandidate] = field(default_factory=list)
    dynamic_benefit: int = 0


@dataclass
class SelectionResult:
    """Output of :func:`select_minigraphs` for one program.

    Attributes:
        program_name: the analysed program.
        selected: selected templates in MGID order.
        policy: the policy that produced this selection.
        dynamic_instructions: denominator for coverage (from the profile).
        covered_dynamic_instructions: dynamic instructions removed from the
            pipeline (``sum (n-1) * f`` over committed instances).
        candidate_count: number of admissible candidates considered.
        truncated: True if an enumeration safety valve
            (``max_candidates_per_block`` or the connected-subset cap)
            silently dropped candidates before selection ever saw them.
        dropped_candidates: number of enumerated-but-untried connected
            subsets (a lower bound on what truncation discarded).
    """

    program_name: str
    selected: List[SelectedMiniGraph]
    policy: SelectionPolicy
    dynamic_instructions: int
    covered_dynamic_instructions: int
    candidate_count: int
    truncated: bool = False
    dropped_candidates: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of dynamic instructions removed from the pipeline."""
        if self.dynamic_instructions <= 0:
            return 0.0
        return self.covered_dynamic_instructions / self.dynamic_instructions

    @property
    def template_count(self) -> int:
        return len(self.selected)

    def rewrite_sites(self) -> List[RewriteSite]:
        """All static instances as rewrite sites for the binary rewriter."""
        sites: List[RewriteSite] = []
        for selected in self.selected:
            for instance in selected.instances:
                sites.append(instance.rewrite_site(selected.mgid))
        return sites

    def coverage_by_size(self) -> Dict[int, float]:
        """Coverage contribution broken down by mini-graph size (Figure 5 stacks)."""
        if self.dynamic_instructions <= 0:
            return {}
        by_size: Dict[int, int] = {}
        for selected in self.selected:
            size = selected.template.size
            by_size[size] = by_size.get(size, 0) + selected.dynamic_benefit
        return {size: benefit / self.dynamic_instructions
                for size, benefit in sorted(by_size.items())}


@dataclass
class _TemplateGroup:
    """All admissible instances of one template, with bookkeeping.

    Retained for :func:`select_minigraphs_reference`; the heap-driven core
    uses :class:`_Group` with incrementally maintained benefits instead.
    """

    template: MiniGraphTemplate
    instances: List[MiniGraphCandidate] = field(default_factory=list)

    def benefit(self, profile: BlockProfile, used: Set[int]) -> int:
        """Current benefit: sum of (n-1)*f over still-available instances."""
        total = 0
        for instance in self.instances:
            if instance.conflicts_with(used):
                continue
            total += instance.instructions_removed * profile.frequency(instance.block_id)
        return total

    def available_instances(self, used: Set[int]) -> List[MiniGraphCandidate]:
        return [instance for instance in self.instances if not instance.conflicts_with(used)]


def group_candidates(candidates: Iterable[MiniGraphCandidate]
                     ) -> Dict[Tuple, _TemplateGroup]:
    """Coalesce candidates by template identity (reference implementation)."""
    groups: Dict[Tuple, _TemplateGroup] = {}
    for candidate in candidates:
        key = candidate.template.key()
        group = groups.get(key)
        if group is None:
            group = _TemplateGroup(template=candidate.template)
            groups[key] = group
        group.instances.append(candidate)
    return groups


# -- heap-driven greedy core ---------------------------------------------------


class _Instance:
    """One admissible candidate inside the incremental selector."""

    __slots__ = ("candidate", "weight", "group", "alive")

    def __init__(self, candidate: MiniGraphCandidate, weight: int,
                 group: "_Group") -> None:
        self.candidate = candidate
        self.weight = weight
        self.group = group
        self.alive = True


class _Group:
    """All instances of one interned template, with an exact running benefit."""

    __slots__ = ("tid", "template", "instances", "benefit", "picked")

    def __init__(self, tid: int, template: MiniGraphTemplate) -> None:
        self.tid = tid
        self.template = template
        self.instances: List[_Instance] = []
        self.benefit = 0
        self.picked = False


def _greedy_select(admissible: Sequence[MiniGraphCandidate],
                   profile: BlockProfile,
                   max_templates: int) -> Tuple[List[SelectedMiniGraph], int]:
    """Heap-driven greedy selection over interned template groups.

    Invariants (the reasons this is bit-identical to the reference loop):

    * ``group.benefit`` always equals the reference's recomputed
      ``sum (n-1)*f`` over instances not conflicting with the committed set —
      an instance's weight is subtracted exactly once, when the first of its
      members is claimed;
    * benefits only decrease, so a popped heap entry is either *fresh*
      (stored == current: it is the true maximum) or *stale* (stored >
      current: re-push with the current value and keep going);
    * ties break on dense ranks in canonical-key sort order, the same total
      order as the reference's ``repr(key)`` comparison;
    * a pick commits the instances alive *at pick time* (mutually overlapping
      instances of the same template are all committed, as in the reference,
      whose availability snapshot predates its member claims); its member
      claims then propagate through the inverted index only to the instances
      that actually overlap them — never a rescan of the remaining groups.
    """
    registry = TEMPLATE_REGISTRY
    groups: Dict[int, _Group] = {}
    inverted: Dict[int, List[_Instance]] = {}
    for candidate in admissible:
        tid = candidate.template_id
        group = groups.get(tid)
        if group is None:
            group = groups[tid] = _Group(tid, candidate.template)
        weight = candidate.instructions_removed * profile.frequency(candidate.block_id)
        instance = _Instance(candidate, weight, group)
        group.instances.append(instance)
        group.benefit += weight
        for index in candidate.member_indices:
            bucket = inverted.get(index)
            if bucket is None:
                bucket = inverted[index] = []
            bucket.append(instance)

    ranks = registry.ranks(list(groups))
    heap = [(-group.benefit, ranks[tid], tid)
            for tid, group in groups.items() if group.benefit > 0]
    heapify(heap)

    selected: List[SelectedMiniGraph] = []
    covered = 0
    used: Set[int] = set()
    while heap and len(selected) < max_templates:
        neg_benefit, rank, tid = heappop(heap)
        group = groups[tid]
        if group.picked:
            continue
        if -neg_benefit != group.benefit:
            if group.benefit > 0:
                heappush(heap, (-group.benefit, rank, tid))
            continue
        if group.benefit <= 0:
            break
        alive = [instance for instance in group.instances if instance.alive]
        benefit = group.benefit
        group.picked = True

        for instance in alive:
            for index in instance.candidate.member_indices:
                if index in used:
                    continue
                used.add(index)
                for other in inverted.get(index, ()):
                    if other.alive and not other.group.picked:
                        other.alive = False
                        other.group.benefit -= other.weight

        selected.append(SelectedMiniGraph(
            mgid=len(selected),
            template=group.template,
            instances=[instance.candidate for instance in alive],
            dynamic_benefit=benefit,
        ))
        covered += benefit
    return selected, covered


def select_minigraphs(program: Program, profile: BlockProfile, *,
                      policy: SelectionPolicy = DEFAULT_POLICY,
                      candidates: Optional[Sequence[MiniGraphCandidate]] = None
                      ) -> SelectionResult:
    """Run greedy coverage-driven selection for one program.

    Args:
        program: the program to analyse.
        profile: basic-block frequency profile used as the benefit weight.
        policy: admissibility filters and MGT capacity.
        candidates: pre-enumerated candidates; when omitted, candidates are
            enumerated with limits derived from the policy.  Passing a shared
            candidate list lets the Figure 5 sweeps avoid re-enumerating for
            every MGT size.
    """
    stats = FRONTEND_STATS
    enum_seconds_before = stats.enumeration_seconds
    start = time.perf_counter()
    if candidates is None:
        limits = EnumerationLimits(max_size=policy.max_size,
                                   allow_memory=policy.allow_memory,
                                   allow_branches=policy.allow_branches)
        candidates = enumerate_minigraphs(program, limits)
    truncated_blocks = getattr(candidates, "truncated_blocks", 0)
    dropped_subsets = getattr(candidates, "dropped_subsets", 0)
    admissible = policy.filter_candidates(candidates)
    selected, covered = _greedy_select(admissible, profile, policy.max_templates)

    stats.selection_seconds += ((time.perf_counter() - start)
                                - (stats.enumeration_seconds - enum_seconds_before))
    return SelectionResult(
        program_name=program.name,
        selected=selected,
        policy=policy,
        dynamic_instructions=profile.dynamic_instructions,
        covered_dynamic_instructions=covered,
        candidate_count=len(admissible),
        truncated=truncated_blocks > 0,
        dropped_candidates=dropped_subsets,
    )


def select_minigraphs_reference(program: Program, profile: BlockProfile, *,
                                policy: SelectionPolicy = DEFAULT_POLICY,
                                candidates: Optional[Sequence[MiniGraphCandidate]] = None
                                ) -> SelectionResult:
    """The seed's quadratic greedy loop, kept as the behavioural reference.

    Every pick rescans every remaining group's full instance list and breaks
    ties on ``repr`` of the template's structural key.  The heap-driven
    :func:`select_minigraphs` must produce bit-identical output; the property
    tests cross-check the two on random programs.
    """
    if candidates is None:
        limits = EnumerationLimits(max_size=policy.max_size,
                                   allow_memory=policy.allow_memory,
                                   allow_branches=policy.allow_branches)
        candidates = enumerate_minigraphs(program, limits)
    truncated_blocks = getattr(candidates, "truncated_blocks", 0)
    dropped_subsets = getattr(candidates, "dropped_subsets", 0)
    admissible = policy.filter_candidates(candidates)
    groups = group_candidates(admissible)

    used: Set[int] = set()
    selected: List[SelectedMiniGraph] = []
    covered = 0
    remaining = dict(groups)

    while remaining and len(selected) < policy.max_templates:
        best_key = None
        best_benefit = 0
        # Ties are broken on the template's textual key so selection order is
        # deterministic across runs and Python versions.
        for key, group in remaining.items():
            benefit = group.benefit(profile, used)
            if benefit > best_benefit or (benefit == best_benefit and benefit > 0
                                          and (best_key is None or repr(key) < repr(best_key))):
                best_key = key
                best_benefit = benefit
        if best_key is None or best_benefit <= 0:
            break
        group = remaining.pop(best_key)
        instances = []
        benefit = 0
        for instance in group.available_instances(used):
            instances.append(instance)
            benefit += instance.instructions_removed * profile.frequency(instance.block_id)
            used.update(instance.member_indices)
        if not instances:
            continue
        selected.append(SelectedMiniGraph(
            mgid=len(selected),
            template=group.template,
            instances=instances,
            dynamic_benefit=benefit,
        ))
        covered += benefit

    return SelectionResult(
        program_name=program.name,
        selected=selected,
        policy=policy,
        dynamic_instructions=profile.dynamic_instructions,
        covered_dynamic_instructions=covered,
        candidate_count=len(admissible),
        truncated=truncated_blocks > 0,
        dropped_candidates=dropped_subsets,
    )


@dataclass
class DomainSelectionResult:
    """Result of domain-specific selection across a suite of programs."""

    suite_name: str
    templates: List[MiniGraphTemplate]
    per_program: Dict[str, SelectionResult]

    @property
    def template_count(self) -> int:
        return len(self.templates)


def select_domain_minigraphs(programs: Mapping[str, Tuple[Program, BlockProfile]], *,
                             suite_name: str,
                             policy: SelectionPolicy = DEFAULT_POLICY
                             ) -> DomainSelectionResult:
    """Select one shared MGT for a whole benchmark suite (Figure 5, bottom).

    The shared MGT holds the ``policy.max_templates`` templates with the
    highest total benefit summed across every program in the suite.  Each
    program is then re-selected restricted to that shared template set, so the
    reported coverage reflects what the shared MGT actually achieves per
    program.

    The fold is **streaming**: each program's candidates are enumerated,
    folded into per-template-id benefit totals in the registry's id space,
    and dropped before the next program is touched — memory stays
    O(program), not O(corpus).  The re-selection pass re-enumerates through
    the block memo (repeated blocks are a dict hit) and goes through the
    same heap-driven core as application-specific selection.
    """
    total_benefit: Dict[int, int] = {}

    limits = EnumerationLimits(max_size=policy.max_size,
                               allow_memory=policy.allow_memory,
                               allow_branches=policy.allow_branches)
    for name, (program, profile) in programs.items():
        # Per-program greedy commitment is how instances would actually be
        # claimed; the cross-suite ranking uses the uncontended benefit, which
        # is the standard (and the paper's implied) approximation.
        for candidate in policy.filter_candidates(enumerate_minigraphs(program, limits)):
            tid = candidate.template_id
            total_benefit[tid] = (total_benefit.get(tid, 0)
                                  + candidate.instructions_removed
                                  * profile.frequency(candidate.block_id))

    registry = TEMPLATE_REGISTRY
    ranked = sorted(total_benefit.items(),
                    key=lambda item: (-item[1], registry.sort_key(item[0])))
    shared_ids = {tid for tid, benefit in ranked[:policy.max_templates] if benefit > 0}
    shared_templates = [registry.template(tid) for tid, _ in ranked[:policy.max_templates]
                        if tid in shared_ids]

    per_program_results: Dict[str, SelectionResult] = {}
    for name, (program, profile) in programs.items():
        enumerated = enumerate_minigraphs(program, limits)
        restricted = EnumerationResult(
            candidate for candidate in policy.filter_candidates(enumerated)
            if candidate.template_id in shared_ids)
        restricted.truncated_blocks = enumerated.truncated_blocks
        restricted.dropped_subsets = enumerated.dropped_subsets
        per_program_results[name] = select_minigraphs(
            program, profile, policy=policy, candidates=restricted)

    return DomainSelectionResult(
        suite_name=suite_name,
        templates=shared_templates,
        per_program=per_program_results,
    )
