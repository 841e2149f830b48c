"""Experiment E1-E3: mini-graph coverage (Figure 5).

The figure has three panels: application-specific integer mini-graphs,
application-specific integer-memory mini-graphs, and domain-specific
integer-memory mini-graphs, each swept over MGT capacity (32, 128, 512, 2K
entries) and maximum mini-graph size (2, 3, 4, 8 instructions).

Figure 5 times nothing: every cell is a selection over one baseline profile
per benchmark, so it is a plain function over a :class:`~repro.api.Session`
rather than a catalog grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..api.session import Session
from ..api.spec import RunSpec
from ..minigraph.coverage import sweep_coverage
from ..minigraph.policies import DEFAULT_POLICY, INTEGER_POLICY
from ..minigraph.selection import select_domain_minigraphs
from ..workloads import REGISTRY, SUITE_NAMES
from .reporting import ResultTable

#: MGT capacities of the domain-specific (bottom) panel.
DOMAIN_MGT_SIZES = (512, 2048)

#: Maximum mini-graph size of the domain-specific panel.
DOMAIN_MAX_GRAPH_SIZE = 4


def _suite_of(benchmark: str) -> str:
    return REGISTRY.get(benchmark).suite


def _baseline_spec(benchmark: str, budget: int, input_name: str) -> RunSpec:
    return RunSpec(benchmark=benchmark, input_name=input_name, budget=budget,
                   policy=None)


def run_coverage_panel(session: Session, *, benchmarks: Sequence[str],
                       budget: int, input_name: str = "reference",
                       integer_only: bool) -> ResultTable:
    """Application-specific coverage sweep (Figure 5 top or middle panel)."""
    panel = "integer" if integer_only else "integer-memory"
    base_policy = INTEGER_POLICY if integer_only else DEFAULT_POLICY
    table = ResultTable(
        title=f"Figure 5 ({panel}): coverage vs MGT entries / max graph size",
        columns=[])
    truncated: List[str] = []
    for name in benchmarks:
        spec = _baseline_spec(name, budget, input_name)
        sweep = sweep_coverage(session.program(spec), session.profile(spec),
                               base_policy=base_policy)
        for cell in sweep.cells:
            column = f"{cell.mgt_entries}e/{cell.max_graph_size}i"
            table.add(name, column, cell.coverage, suite=_suite_of(name))
        if sweep.truncated:
            truncated.append(name)
    table.notes.append(
        "columns are <MGT entries>e/<max mini-graph size>i; values are the fraction "
        "of dynamic instructions removed from the pipeline")
    if truncated:
        table.notes.append(
            "enumeration truncated (coverage under-reported) for: "
            + ", ".join(truncated))
    return table


def run_domain_panel(session: Session, *, benchmarks: Sequence[str],
                     budget: int, input_name: str = "reference") -> ResultTable:
    """Domain-specific coverage (Figure 5 bottom): one MGT per suite."""
    table = ResultTable(
        title="Figure 5 (domain-specific integer-memory): coverage with a per-suite MGT",
        columns=[])
    for suite in SUITE_NAMES:
        suite_names = [name for name in benchmarks if _suite_of(name) == suite]
        if not suite_names:
            continue
        programs = {}
        for name in suite_names:
            spec = _baseline_spec(name, budget, input_name)
            programs[name] = (session.program(spec), session.profile(spec))
        for entries in DOMAIN_MGT_SIZES:
            policy = DEFAULT_POLICY.with_mgt_entries(entries) \
                .with_max_size(DOMAIN_MAX_GRAPH_SIZE)
            domain = select_domain_minigraphs(programs, suite_name=suite, policy=policy)
            truncated = sorted(name for name, result in domain.per_program.items()
                               if result.truncated)
            if truncated:
                table.notes.append(
                    f"{suite}/domain-{entries}e: enumeration truncated for "
                    + ", ".join(truncated))
            for name, result in domain.per_program.items():
                table.add(name, f"domain-{entries}e", result.coverage, suite=suite)
    table.notes.append("the MGT is shared by every benchmark in the suite")
    return table


@dataclass
class Figure5Result:
    """All three panels of Figure 5."""

    integer: ResultTable
    integer_memory: ResultTable
    domain: ResultTable

    @property
    def tables(self) -> List[ResultTable]:
        return [self.integer, self.integer_memory, self.domain]

    def render(self) -> str:
        return "\n\n".join(table.render(float_format="{:7.3f}")
                           for table in self.tables)


def run_figure5(session: Session, *, benchmarks: Sequence[str], budget: int,
                input_name: str = "reference") -> Figure5Result:
    """Run all three Figure 5 panels."""
    return Figure5Result(
        integer=run_coverage_panel(session, benchmarks=benchmarks, budget=budget,
                                   input_name=input_name, integer_only=True),
        integer_memory=run_coverage_panel(session, benchmarks=benchmarks,
                                          budget=budget, input_name=input_name,
                                          integer_only=False),
        domain=run_domain_panel(session, benchmarks=benchmarks, budget=budget,
                                input_name=input_name),
    )
