"""Coverage accounting for mini-graph selections.

*Coverage* is the paper's benefit metric: the fraction of dynamic
instructions a selection removes from the pipeline (a mini-graph of size
``n`` executed ``f`` times removes ``(n-1)*f`` instructions).  This module
computes coverage reports for single selections, for MGT-size / graph-size
sweeps (Figure 5) and for robustness comparisons across input sets
(Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..program.profile import BlockProfile
from ..program.program import Program
from .candidates import MiniGraphCandidate
from .enumeration import EnumerationLimits, enumerate_minigraphs
from .policies import SelectionPolicy
from .selection import SelectionResult, select_minigraphs

#: MGT sizes swept in Figure 5.
FIGURE5_MGT_SIZES: Tuple[int, ...] = (32, 128, 512, 2048)
#: Maximum mini-graph sizes swept in Figure 5.
FIGURE5_GRAPH_SIZES: Tuple[int, ...] = (2, 3, 4, 8)


@dataclass
class CoverageCell:
    """One cell of the Figure 5 sweep: coverage for (MGT size, graph size)."""

    mgt_entries: int
    max_graph_size: int
    coverage: float
    coverage_by_size: Dict[int, float] = field(default_factory=dict)
    templates_used: int = 0


@dataclass
class CoverageSweep:
    """Full Figure 5 sweep for one program and one policy family.

    ``truncated_blocks``/``dropped_subsets`` surface what the shared
    enumeration's safety valves dropped — every cell of a truncated sweep
    under-reports coverage, so the figure harness flags it.
    """

    program_name: str
    memory_allowed: bool
    cells: List[CoverageCell] = field(default_factory=list)
    truncated_blocks: int = 0
    dropped_subsets: int = 0

    @property
    def truncated(self) -> bool:
        return self.truncated_blocks > 0

    def cell(self, mgt_entries: int, max_graph_size: int) -> CoverageCell:
        for cell in self.cells:
            if cell.mgt_entries == mgt_entries and cell.max_graph_size == max_graph_size:
                return cell
        raise KeyError((mgt_entries, max_graph_size))

    def coverage_at(self, mgt_entries: int, max_graph_size: int) -> float:
        return self.cell(mgt_entries, max_graph_size).coverage


def sweep_coverage(program: Program, profile: BlockProfile, *,
                   base_policy: SelectionPolicy,
                   mgt_sizes: Sequence[int] = FIGURE5_MGT_SIZES,
                   graph_sizes: Sequence[int] = FIGURE5_GRAPH_SIZES) -> CoverageSweep:
    """Run the Figure 5 sweep for one program.

    Candidates are enumerated once at the largest graph size and reused for
    every cell; smaller cells simply filter by the policy's ``max_size`` and
    ``max_templates``.
    """
    largest = max(graph_sizes)
    limits = EnumerationLimits(max_size=largest,
                               allow_memory=base_policy.allow_memory,
                               allow_branches=base_policy.allow_branches)
    candidates = enumerate_minigraphs(program, limits)

    sweep = CoverageSweep(program_name=program.name,
                          memory_allowed=base_policy.allow_memory,
                          truncated_blocks=candidates.truncated_blocks,
                          dropped_subsets=candidates.dropped_subsets)
    for mgt_entries in mgt_sizes:
        for graph_size in graph_sizes:
            policy = base_policy.with_mgt_entries(mgt_entries).with_max_size(graph_size)
            selection = select_minigraphs(program, profile, policy=policy,
                                          candidates=candidates)
            sweep.cells.append(CoverageCell(
                mgt_entries=mgt_entries,
                max_graph_size=graph_size,
                coverage=selection.coverage,
                coverage_by_size=selection.coverage_by_size(),
                templates_used=selection.template_count,
            ))
    return sweep


@dataclass
class RobustnessReport:
    """Coverage obtained when selecting on one input and measuring on another."""

    program_name: str
    reference_coverage: float
    cross_input_coverage: float

    @property
    def relative_loss(self) -> float:
        """Relative coverage reduction, e.g. 0.15 for a drop from 20% to 17%."""
        if self.reference_coverage <= 0.0:
            return 0.0
        return 1.0 - (self.cross_input_coverage / self.reference_coverage)


def measure_selection_on_profile(selection: SelectionResult,
                                 profile: BlockProfile) -> float:
    """Coverage that ``selection`` achieves under a *different* profile.

    Used by the robustness study: mini-graphs selected with a training-input
    profile are evaluated against the reference-input profile.
    """
    if profile.dynamic_instructions <= 0:
        return 0.0
    covered = 0
    for selected in selection.selected:
        for instance in selected.instances:
            covered += instance.instructions_removed * profile.frequency(instance.block_id)
    return covered / profile.dynamic_instructions


def robustness_report(program: Program, reference_profile: BlockProfile,
                      alternate_profile: BlockProfile, *,
                      policy: SelectionPolicy) -> RobustnessReport:
    """Compare same-input selection against cross-input selection coverage."""
    reference_selection = select_minigraphs(program, reference_profile, policy=policy)
    alternate_selection = select_minigraphs(program, alternate_profile, policy=policy)
    return RobustnessReport(
        program_name=program.name,
        reference_coverage=reference_selection.coverage,
        cross_input_coverage=measure_selection_on_profile(alternate_selection,
                                                          reference_profile),
    )
