"""Experiment E5: mini-graph performance relative to the baseline (Figure 6).

Four mini-graph machine configurations are compared against the 6-wide
baseline for every benchmark:

* ``int``           — integer mini-graphs executing on 4-stage ALU pipelines;
* ``int+collapse``  — the same with pair-wise collapsing ALU pipelines;
* ``int-mem``           — integer-memory mini-graphs with a sliding-window scheduler;
* ``int-mem+collapse``  — the same with pair-wise collapsing ALU pipelines.

Baseline IPCs are recorded alongside, as the figure prints them under each
benchmark.

The figure is a declarative grid (benchmark × config, see
:func:`figure6_grid`) registered in the grid catalog as ``fig6``, so it is
reproducible as ``repro grid --name fig6`` (sharded, resumable, streaming)
or ``repro figure 6``, which runs the same grid serially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..grid.catalog import GridDefinition, register_grid
from ..grid.engine import GridRow
from ..grid.spec import Axis, GridSpec
from ..api.spec import RunSpec
from ..minigraph.mgt import MgtBuildOptions
from ..minigraph.policies import DEFAULT_POLICY, INTEGER_POLICY
from ..uarch.catalog import machine_config
from ..uarch.config import baseline_config
from ..workloads import REGISTRY
from .reporting import ResultTable

#: Column labels, in the order the paper's figure stacks them.
FIGURE6_CONFIGS = ("int", "int+collapse", "int-mem", "int-mem+collapse")


@dataclass
class Figure6Result:
    """Relative-performance table plus the baseline IPCs."""

    table: ResultTable
    baseline_ipc: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = [self.table.render()]
        lines.append("")
        lines.append("baseline IPCs:")
        for name in sorted(self.baseline_ipc):
            lines.append(f"  {name:20s} {self.baseline_ipc[name]:5.2f}")
        return "\n".join(lines)


def figure6_grid(*, benchmarks: Sequence[str], budget: int,
                 input_name: str = "reference") -> GridSpec:
    """The Figure 6 sweep as a declarative grid: benchmark × config.

    Each config name is a machine catalog name; the ``int-mem`` machines
    run the integer-memory policy and the ``int`` ones the integer policy,
    and every cell measures its machine against the shared 6-wide baseline.
    """
    axes = (Axis("benchmark", tuple(benchmarks)),
            Axis("config", FIGURE6_CONFIGS))

    def build(point) -> RunSpec:
        config_name = point["config"]
        collapsing = config_name.endswith("+collapse")
        policy = DEFAULT_POLICY if config_name.startswith("int-mem") \
            else INTEGER_POLICY
        return RunSpec(
            benchmark=point["benchmark"],
            input_name=input_name,
            budget=budget,
            policy=policy,
            machine=machine_config(config_name),
            baseline_machine=baseline_config(),
            mgt_options=MgtBuildOptions(collapsing=collapsing),
        )

    return GridSpec(name="fig6", axes=axes, build=build,
                    title="Figure 6: mini-graph machines vs the 6-wide baseline")


def figure6_result(rows: Iterable[GridRow]) -> Figure6Result:
    """Fold streamed grid rows into the Figure 6 table (cell order in)."""
    table = ResultTable(
        title="Figure 6: performance relative to the 6-wide baseline",
        columns=[])
    result = Figure6Result(table=table)
    for row in rows:
        name = row.benchmark
        result.baseline_ipc.setdefault(name, row.baseline_ipc)
        table.add(name, row.labels["config"], row.speedup,
                  suite=REGISTRY.get(name).suite)
    table.notes.append("values are IPC relative to the baseline (1.0 = no change)")
    return result


def _figure6_report(rows: List[GridRow]):
    result = figure6_result(rows)
    return result.render(), [result.table]


register_grid(GridDefinition(
    name="fig6",
    description="Figure 6: benchmark × mini-graph machine config vs baseline",
    factory=figure6_grid,
    report=_figure6_report,
))
