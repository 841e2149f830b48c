"""repro: a reproduction of "Dataflow Mini-Graphs: Amplifying Superscalar
Capacity and Bandwidth" (Bracy, Prahlad, Roth — MICRO-37, 2004).

The package is organised bottom-up:

* :mod:`repro.isa` — the Alpha-inspired MGA instruction set and assembler;
* :mod:`repro.program` — static program model, basic blocks and their
  successors, liveness, profiles and the binary rewriter that plants
  mini-graph handles;
* :mod:`repro.minigraph` — the paper's contribution: candidate enumeration,
  greedy coverage-driven selection, selection policies and the MGT
  (MGHT/MGST);
* :mod:`repro.sim` — the functional (architectural) golden-model simulator;
* :mod:`repro.uarch` — the cycle-level out-of-order timing model with ALU
  pipelines and the sliding-window scheduler;
* :mod:`repro.workloads` — synthetic stand-ins for SPECint, MediaBench,
  CommBench and MiBench;
* :mod:`repro.api` — the unified pipeline front door: declarative
  :class:`~repro.api.RunSpec`, the stage-graph caching
  :class:`~repro.api.Session`, the content-addressed
  :class:`~repro.api.ArtifactStore` and the ``python -m repro`` CLI;
* :mod:`repro.grid` — declarative experiment grids: planning, sharded and
  resumable execution, and the named-grid catalog;
* :mod:`repro.experiments` — the figures of the paper's evaluation: catalog
  grids for the timed sweeps (Figures 6-8, the i-cache study) and plain
  functions over a :class:`~repro.api.Session` for Figure 5 and the
  robustness study.

One end-to-end run is a :class:`~repro.api.RunSpec` handed to
:meth:`Session.run <repro.api.Session.run>`; a batch of runs is a grid run
through :meth:`Session.run_grid <repro.api.Session.run_grid>`.
"""

from __future__ import annotations

from .minigraph import (
    DEFAULT_POLICY,
    MiniGraphTable,
    MgtBuildOptions,
    SelectionPolicy,
    select_minigraphs,
)
from .program import rewrite_program
from .sim import run_program
from .uarch import (
    MachineConfig,
    PipelineStats,
    baseline_config,
    integer_memory_minigraph_config,
    integer_minigraph_config,
    simulate_program,
)
from .workloads import load_benchmark

# 1.4.0: machine-shape (name-free machine key) cache keying + the grid
# engine's row artifacts invalidate every pre-grid persisted cache entry.
__version__ = "1.4.0"

from .api import ArtifactStore, RunArtifacts, RunSpec, Session  # noqa: E402


__all__ = [
    "__version__",
    "ArtifactStore",
    "RunArtifacts",
    "RunSpec",
    "Session",
    "load_benchmark",
    "run_program",
    "select_minigraphs",
    "rewrite_program",
    "simulate_program",
    "baseline_config",
    "integer_minigraph_config",
    "integer_memory_minigraph_config",
    "DEFAULT_POLICY",
    "MiniGraphTable",
    "MgtBuildOptions",
    "SelectionPolicy",
    "MachineConfig",
    "PipelineStats",
]
