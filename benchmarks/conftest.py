"""Shared fixtures for the benchmark (experiment regeneration) harness.

Every benchmark regenerates one of the paper's evaluation artifacts (a panel
of Figure 5-8 or one of the textual results of Section 6).  By default the
harness runs each benchmark on a reduced dynamic-instruction budget and on a
representative subset of kernels per suite; set ``REPRO_BENCH_FULL=1`` to
sweep every kernel with a larger budget (slower, closer to the paper).

The rendered result tables are written to ``benchmarks/results/`` so they can
be inspected after a run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.api import RunSpec, Session
from repro.grid import get_grid
from repro.workloads import QUICK_BENCHMARKS as _QUICK_BENCHMARKS
from repro.workloads import REGISTRY

#: Representative kernels per suite used by the quick (default) configuration
#: (shared with the ``repro figure`` CLI default).
QUICK_BENCHMARKS = list(_QUICK_BENCHMARKS)

RESULTS_DIR = Path(__file__).parent / "results"


def full_sweep() -> bool:
    """True when the caller asked for the full benchmark sweep."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def bench_budget() -> int:
    """Dynamic-instruction budget per benchmark run."""
    return 25_000 if full_sweep() else 8_000


def bench_benchmarks() -> list[str]:
    """Benchmarks included in the sweep."""
    if full_sweep():
        return REGISTRY.names()
    return list(QUICK_BENCHMARKS)


@pytest.fixture(scope="session")
def session() -> Session:
    """One shared session so artifacts (profiles, selections, traces) are reused."""
    return Session()


@pytest.fixture(scope="session")
def benchmarks() -> list[str]:
    return bench_benchmarks()


def baseline(session: Session, name: str):
    """The benchmark's program and baseline profile at the sweep budget."""
    spec = RunSpec(benchmark=name, budget=bench_budget(), policy=None)
    return session.program(spec), session.profile(spec)


def grid_report(session: Session, name: str, benchmarks):
    """Run catalog grid ``name`` serially; returns its (text, tables) report."""
    definition = get_grid(name)
    grid = definition.build(benchmarks=benchmarks, budget=bench_budget())
    return definition.report(list(session.run_grid(grid, workers=0)))


def write_result(name: str, text: str) -> Path:
    """Persist a rendered result table under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path
