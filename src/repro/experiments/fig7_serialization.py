"""Experiments E6 and E10: serialization effects (Figure 7) and best-policy gains.

Figure 7 isolates the cost of the two serialization effects and of
load-induced replays by re-running mini-graph selection with progressively
more restrictive policies:

* integer mini-graphs: unrestricted, minus externally serial graphs, minus
  internally serial (i.e. internally parallel) graphs, minus both;
* integer-memory mini-graphs: unrestricted, minus both serialization forms,
  and additionally minus replay-vulnerable (interior-load) graphs.

The best-policy experiment (Section 6.2's closing paragraph) picks, per
benchmark, whichever policy gives the highest speedup and reports the
resulting per-suite averages.

Both come from one declarative grid (benchmark × policy variant, see
:func:`figure7_grid`) registered in the grid catalog as ``fig7``: its
report prints the Figure 7 table and then the best-policy block derived
from the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..api.spec import RunSpec
from ..grid.catalog import GridDefinition, register_grid
from ..grid.engine import GridRow
from ..grid.spec import Axis, GridSpec
from ..minigraph.policies import DEFAULT_POLICY, INTEGER_POLICY, SelectionPolicy
from ..uarch.config import (
    baseline_config,
    integer_memory_minigraph_config,
    integer_minigraph_config,
)
from ..workloads import REGISTRY
from .reporting import ResultTable, geometric_mean

#: The benchmarks Figure 7 highlights (our closest stand-ins).
FIGURE7_BENCHMARKS = ("gsm.untoast", "mpeg2.decode", "reed.encode", "mcf", "sha",
                      "adpcm.encode")

#: Column label -> selection policy for each Figure 7 bar, in the figure's
#: order.  ``int-mem*`` variants run on the sliding-window machine, the rest
#: on the integer mini-graph machine.
_VARIANTS: Dict[str, SelectionPolicy] = {
    "int": INTEGER_POLICY,
    "int-noext": INTEGER_POLICY.without_external_serialization(),
    "int-noint": INTEGER_POLICY.without_internal_serialization(),
    "int-noserial": INTEGER_POLICY.without_external_serialization()
                                  .without_internal_serialization(),
    "int-mem": DEFAULT_POLICY,
    "int-mem-noserial": DEFAULT_POLICY.without_external_serialization()
                                      .without_internal_serialization(),
    "int-mem-noserial-noreplay": DEFAULT_POLICY.without_external_serialization()
                                               .without_internal_serialization()
                                               .without_replay_vulnerable(),
}


def figure7_grid(*, benchmarks: Sequence[str], budget: int,
                 input_name: str = "reference") -> GridSpec:
    """The Figure 7 sweep as a declarative grid: benchmark × policy variant.

    Every cell measures its variant's machine against the shared 6-wide
    baseline.
    """
    axes = (Axis("benchmark", tuple(benchmarks)),
            Axis("policy", tuple(_VARIANTS)))

    def build(point) -> RunSpec:
        label = point["policy"]
        machine = integer_memory_minigraph_config() if label.startswith("int-mem") \
            else integer_minigraph_config()
        return RunSpec(
            benchmark=point["benchmark"],
            input_name=input_name,
            budget=budget,
            policy=_VARIANTS[label],
            machine=machine,
            baseline_machine=baseline_config(),
        )

    return GridSpec(name="fig7", axes=axes, build=build,
                    title="Figure 7: serialization and replay policies vs "
                          "the 6-wide baseline")


@dataclass
class BestPolicyResult:
    """Per-benchmark best policy and the resulting per-suite average gains."""

    best_policy: Dict[str, str]
    best_speedup: Dict[str, float]
    suite_gmean: Dict[str, float]

    def render(self) -> str:
        lines = ["Best selection policy per benchmark (Section 6.2)"]
        for name in sorted(self.best_policy):
            lines.append(f"  {name:20s} {self.best_policy[name]:28s} "
                         f"{(self.best_speedup[name] - 1.0) * 100.0:+.1f}%")
        lines.append("per-suite gmean with the best policy per benchmark:")
        for suite, value in self.suite_gmean.items():
            lines.append(f"  {suite:10s} {(value - 1.0) * 100.0:+.1f}%")
        return "\n".join(lines)


def best_policy(table: ResultTable) -> BestPolicyResult:
    """Pick the best serialization/replay policy per benchmark (E10).

    Reads the Figure 7 table: each benchmark's best column wins (the first
    in figure order on ties), and suites average in benchmark order.
    """
    result = BestPolicyResult(best_policy={}, best_speedup={}, suite_gmean={})
    per_suite: Dict[str, List[float]] = {}
    for name, cells in table.rows.items():
        label = max(table.columns, key=cells.__getitem__)
        result.best_policy[name] = label
        result.best_speedup[name] = cells[label]
        per_suite.setdefault(table.row_suites[name], []).append(cells[label])
    result.suite_gmean = {suite: geometric_mean(values)
                          for suite, values in per_suite.items()}
    return result


def _figure7_report(rows: List[GridRow]):
    """Fold streamed grid rows into the Figure 7 table (cell order in), then
    render it followed by the best-policy block derived from it."""
    table = ResultTable(
        title="Figure 7: serialization and replay effects (relative performance)",
        columns=list(_VARIANTS))
    for row in rows:
        table.add(row.benchmark, row.labels["policy"], row.speedup,
                  suite=REGISTRY.get(row.benchmark).suite)
    table.notes.append("restrictive policies trade coverage for fewer serialization/replay losses")
    return table.render() + "\n\n" + best_policy(table).render(), [table]


register_grid(GridDefinition(
    name="fig7",
    description="Figure 7: benchmark × serialization/replay policy vs baseline",
    factory=figure7_grid,
    report=_figure7_report,
    default_benchmarks=FIGURE7_BENCHMARKS,
))
