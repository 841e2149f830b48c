"""Experiments E4 and E9: profile robustness and the instruction-cache effect.

*Robustness* (Section 6.1): mini-graphs are selected using a profile gathered
on a different input set ("train") and their coverage is measured against the
reference profile; the paper reports an average relative coverage loss of
about 15%.  It times nothing, so it is a plain function over a
:class:`~repro.api.Session`.

*Instruction-cache effect* (Section 6.2): by default interior instructions
are replaced with nops so the static layout is unchanged; removing them
compresses the code and amplifies instruction-cache capacity, which mostly
benefits the larger-footprint SPEC programs.  It is the catalog grid
``icache`` (benchmark × layout, see :func:`icache_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..api.session import Session
from ..api.spec import RunSpec
from ..grid.catalog import GridDefinition, register_grid
from ..grid.engine import GridRow
from ..grid.spec import Axis, GridSpec
from ..minigraph.coverage import RobustnessReport, robustness_report
from ..minigraph.policies import DEFAULT_POLICY
from ..uarch.config import baseline_config, integer_memory_minigraph_config
from ..workloads import REGISTRY
from .reporting import ResultTable, arithmetic_mean


@dataclass
class RobustnessResult:
    """Per-benchmark coverage robustness across input sets."""

    reports: Dict[str, RobustnessReport] = field(default_factory=dict)

    @property
    def mean_relative_loss(self) -> float:
        losses = [report.relative_loss for report in self.reports.values()]
        return arithmetic_mean(losses)

    def render(self) -> str:
        lines = ["Profile robustness across input sets (Section 6.1)"]
        for name, report in sorted(self.reports.items()):
            lines.append(f"  {name:20s} reference={report.reference_coverage:.3f} "
                         f"cross-input={report.cross_input_coverage:.3f} "
                         f"loss={report.relative_loss * 100.0:+.1f}%")
        lines.append(f"mean relative coverage loss: {self.mean_relative_loss * 100.0:.1f}%")
        return "\n".join(lines)


def run_robustness(session: Session, *, benchmarks: Sequence[str], budget: int,
                   input_name: str = "reference") -> RobustnessResult:
    """Select on the train input, measure on ``input_name``."""
    result = RobustnessResult()
    for name in benchmarks:
        reference = RunSpec(benchmark=name, input_name=input_name,
                            budget=budget, policy=None)
        train_profile = session.profile(reference.with_input("train"))
        # Both programs share the same static shape (only the data segment and
        # trip counts differ), so block ids line up and the train profile can
        # be used directly against the reference program.
        result.reports[name] = robustness_report(
            session.program(reference), session.profile(reference),
            train_profile, policy=DEFAULT_POLICY)
    return result


def icache_grid(*, benchmarks: Sequence[str], budget: int,
                input_name: str = "reference") -> GridSpec:
    """E9 as a grid: benchmark × {padded, compressed} code layout.

    Every cell runs the integer-memory mini-graph machine against the
    shared 6-wide baseline; only the layout of the rewritten code differs.
    """
    axes = (Axis("benchmark", tuple(benchmarks)),
            Axis("layout", ("padded", "compressed")))

    def build(point) -> RunSpec:
        return RunSpec(
            benchmark=point["benchmark"],
            input_name=input_name,
            budget=budget,
            policy=DEFAULT_POLICY,
            machine=integer_memory_minigraph_config(),
            baseline_machine=baseline_config(),
            compressed_layout=point["layout"] == "compressed",
        )

    return GridSpec(name="icache", axes=axes, build=build,
                    title="Instruction-cache effect: padded vs compressed layout")


def _icache_report(rows: List[GridRow]):
    """Fold streamed grid rows into the i-cache table (cell order in)."""
    table = ResultTable(
        title="Instruction-cache effect: nop-padded vs compressed layout "
              "(relative to baseline)",
        columns=["padded", "compressed"])
    for row in rows:
        table.add(row.benchmark, row.labels["layout"], row.speedup,
                  suite=REGISTRY.get(row.benchmark).suite)
    table.notes.append("compression only changes instruction-cache addressing; "
                       "the executed work is identical")
    return table.render(), [table]


register_grid(GridDefinition(
    name="icache",
    description="Section 6.2: SPEC benchmark × {padded, compressed} layout",
    factory=icache_grid,
    report=_icache_report,
    default_benchmarks=tuple(REGISTRY.names("spec")),
))
