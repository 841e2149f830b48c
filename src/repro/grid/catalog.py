"""Named grids: the catalog behind ``repro grid --name``.

A :class:`GridDefinition` bundles a grid factory (benchmarks/budget/input in,
:class:`~repro.grid.spec.GridSpec` out) with an optional report hook that
derives the figure's result tables from the streamed rows.  The paper's
figure grids (``fig6``, ``fig7``, ``fig8`` and the §6.2 i-cache study
``icache``) register themselves from :mod:`repro.experiments` — imported
lazily on first lookup so the grid package stays import-light — and
``mini``, the 2-axis smoke grid used by CI and quick sanity checks, is
registered here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api.spec import RunSpec
from .engine import GridRow
from .spec import Axis, GridError, GridSpec

#: Report hook: streamed rows in, (rendered text, result tables) out.
#: Tables are ``repro.experiments.reporting.ResultTable`` instances; typed
#: loosely here to keep this module free of an experiments import.
GridReport = Callable[[List[GridRow]], Tuple[str, List[object]]]


@dataclass(frozen=True)
class GridDefinition:
    """One named grid in the catalog."""

    name: str
    description: str
    factory: Callable[..., GridSpec]   # (benchmarks=, budget=, input_name=)
    report: Optional[GridReport] = None
    default_budget: int = 8_000
    default_benchmarks: Optional[Tuple[str, ...]] = None

    def build(self, *, benchmarks: Sequence[str], budget: int,
              input_name: str = "reference") -> GridSpec:
        return self.factory(benchmarks=tuple(benchmarks), budget=budget,
                            input_name=input_name)


GRID_CATALOG: Dict[str, GridDefinition] = {}


def register_grid(definition: GridDefinition) -> GridDefinition:
    """Register a named grid; duplicate names are an error."""
    if definition.name in GRID_CATALOG:
        raise GridError(f"grid {definition.name!r} is already registered")
    GRID_CATALOG[definition.name] = definition
    return definition


def _ensure_builtin() -> None:
    """Load the modules that register the built-in figure grids."""
    from .. import experiments  # noqa: F401


def grid_names() -> List[str]:
    _ensure_builtin()
    return list(GRID_CATALOG)


def grid_definitions() -> List[GridDefinition]:
    _ensure_builtin()
    return list(GRID_CATALOG.values())


def get_grid(name: str) -> GridDefinition:
    _ensure_builtin()
    try:
        return GRID_CATALOG[name]
    except KeyError:
        known = ", ".join(GRID_CATALOG)
        raise GridError(f"unknown grid {name!r}; catalog has: {known}") \
            from None


# -- the mini smoke grid ------------------------------------------------------------


def _mini_grid(*, benchmarks: Sequence[str], budget: int,
               input_name: str = "reference") -> GridSpec:
    """A deliberately tiny 2-axis grid: benchmark × {int-mem, baseline}.

    Small enough for CI to run a shard in seconds, yet it exercises the
    whole engine: planning groups the policy cells with their baseline,
    sharding splits by benchmark, and a resumed second pass must be 100%
    row-artifact hits.
    """
    from ..minigraph.policies import DEFAULT_POLICY

    axes = (Axis("benchmark", tuple(benchmarks)),
            Axis("policy", ("int-mem", "baseline")))

    def build(point):
        policy = DEFAULT_POLICY if point["policy"] == "int-mem" else None
        return RunSpec(benchmark=point["benchmark"], input_name=input_name,
                       budget=budget, policy=policy)

    return GridSpec(name="mini", axes=axes, build=build,
                    title="mini smoke grid: benchmark × {int-mem, baseline}")


def _mini_report(rows: List[GridRow]) -> Tuple[str, List[object]]:
    from ..experiments.reporting import ResultTable
    from ..workloads import REGISTRY

    table = ResultTable(title="mini grid: IPC by policy",
                        columns=["int-mem", "baseline", "speedup"])
    for row in rows:
        suite = REGISTRY.get(row.benchmark).suite
        column = row.labels["policy"]
        table.add(row.benchmark, column, row.ipc, suite=suite)
        if column == "int-mem":
            table.add(row.benchmark, "speedup", row.speedup, suite=suite)
    return table.render(), [table]


register_grid(GridDefinition(
    name="mini",
    description="2-axis smoke grid (benchmark × policy) for CI and quick checks",
    factory=_mini_grid,
    report=_mini_report,
    default_budget=3_000,
    default_benchmarks=("bitcount", "crc"),
))
