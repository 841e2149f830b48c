"""Experiments E7 and E8: resource amplification as simplification (Figure 8).

The top panel shrinks the physical register file (164 -> 144 -> 124 -> 104
registers) and shows that mini-graphs compensate for much of the loss.  The
bottom panel reduces pipeline bandwidth (4-wide, 4-wide with 6 execution
units) and pipelines the scheduler (2-cycle wake-up/select), again measuring
how much of the loss mini-graphs recover.  All values are reported relative
to the full 6-wide baseline with 164 registers and a single-cycle scheduler.

Both panels are one declarative grid (benchmark × variant × mode, see
:func:`figure8_grid`) registered in the grid catalog as ``fig8`` — register
variants are labelled ``prf164`` … ``prf104``, bandwidth variants keep their
names — so the whole figure is reproducible as ``repro grid --name fig8``;
its report splits the rows back into the two panel tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..grid.catalog import GridDefinition, register_grid
from ..grid.engine import GridRow
from ..grid.spec import Axis, GridSpec
from ..api.spec import RunSpec
from ..minigraph.policies import DEFAULT_POLICY, INTEGER_POLICY, SelectionPolicy
from ..uarch.catalog import machine_config
from ..uarch.config import MachineConfig, baseline_config
from ..workloads import REGISTRY
from .reporting import ResultTable

#: Register-file sizes swept by the top panel.
FIGURE8_REGISTER_SIZES = (164, 144, 124, 104)

#: Bandwidth/scheduler variants of the bottom panel.
FIGURE8_BANDWIDTH_VARIANTS = ("6-wide", "4-wide", "4-wide+6-exec", "2-cycle-sched")

#: Machine flavours compared in every Figure 8 group.
FIGURE8_MODES = ("baseline", "int", "int-mem")


def _mode_machines(base: MachineConfig) -> Dict[str, Tuple[Optional[SelectionPolicy], MachineConfig]]:
    """Map each Figure 8 mode to (policy, machine) derived from ``base``."""
    integer_machine = base.with_minigraph_alu_pipelines(2)
    memory_machine = integer_machine.with_sliding_window()
    return {
        "baseline": (None, base),
        "int": (INTEGER_POLICY, integer_machine),
        "int-mem": (DEFAULT_POLICY, memory_machine),
    }


@dataclass
class Figure8Result:
    """Both panels of Figure 8."""

    register_table: ResultTable
    bandwidth_table: ResultTable

    def render(self) -> str:
        return self.register_table.render() + "\n\n" + self.bandwidth_table.render()


def figure8_grid(*, benchmarks: Sequence[str], budget: int,
                 input_name: str = "reference") -> GridSpec:
    """Both Figure 8 panels as one grid: benchmark × variant × mode.

    The register sizes become ``prf<N>`` variant labels ahead of the
    bandwidth variants; each label names its base machine in the machine
    catalog, and every cell is measured against the shared full 6-wide
    reference machine.
    """
    variant_labels = tuple(f"prf{size}" for size in FIGURE8_REGISTER_SIZES) \
        + FIGURE8_BANDWIDTH_VARIANTS
    axes = (Axis("benchmark", tuple(benchmarks)),
            Axis("variant", variant_labels),
            Axis("mode", FIGURE8_MODES))

    def build(point) -> RunSpec:
        policy, machine = _mode_machines(
            machine_config(point["variant"]))[point["mode"]]
        return RunSpec(
            benchmark=point["benchmark"],
            input_name=input_name,
            budget=budget,
            policy=policy,
            machine=machine,
            baseline_machine=baseline_config(),
        )

    return GridSpec(name="fig8", axes=axes, build=build,
                    title="Figure 8: reduced-resource machines vs the full baseline")


def _relative(row: GridRow) -> float:
    """Relative performance with the panel's historical zero-baseline
    convention (1.0, not NaN, when the reference retired nothing)."""
    if row.baseline_ipc == 0.0:
        return 1.0
    return row.ipc / row.baseline_ipc


def figure8_result(rows: Iterable[GridRow]) -> Figure8Result:
    """Split streamed grid rows into the two panel tables (cell order in)."""
    register_table = ResultTable(
        title="Figure 8 (top): performance vs physical register file size "
              "(relative to the 164-register baseline)",
        columns=[])
    bandwidth_table = ResultTable(
        title="Figure 8 (bottom): reduced bandwidth and pipelined scheduler "
              "(relative to the 6-wide, 1-cycle-scheduler baseline)",
        columns=[])
    for row in rows:
        variant, mode = row.labels["variant"], row.labels["mode"]
        suite = REGISTRY.get(row.benchmark).suite
        if variant.startswith("prf"):
            register_table.add(row.benchmark, f"{mode}@{variant[3:]}",
                               _relative(row), suite=suite)
        else:
            bandwidth_table.add(row.benchmark, f"{mode}@{variant}",
                                _relative(row), suite=suite)
    register_table.notes.append(
        "164 registers = 64 architected + 100 in-flight (the baseline)")
    bandwidth_table.notes.append(
        "the 4-wide machine fetches/renames/retires 4 per cycle; "
        "4-wide+6-exec keeps six execution units and two load ports")
    return Figure8Result(register_table=register_table,
                         bandwidth_table=bandwidth_table)


def _figure8_report(rows: List[GridRow]):
    result = figure8_result(rows)
    return result.render(), [result.register_table, result.bandwidth_table]


register_grid(GridDefinition(
    name="fig8",
    description="Figure 8: benchmark × resource variant × mode vs full baseline",
    factory=figure8_grid,
    report=_figure8_report,
))
