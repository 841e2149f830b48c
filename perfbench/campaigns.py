"""The benchmark's campaigns, row checks and row-derived metrics.

A campaign is one figure grid over a fixed set of programs.  The workload
seed only draws the ``synth:`` programs that ride along; every paper
kernel is fixed, so the headline figures (:func:`headline`) do not depend
on the seed and can be compared exactly across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Sequence

#: The seed whose rows ``digests.json`` pins in full.
DEFAULT_SEED = 1

#: Pinned row digests; rewrite with ``python3 perfbench/measure.py --pin``.
DIGESTS = Path(__file__).resolve().parent / "digests.json"

FIG8_KERNELS = ("bitcount", "listchase")
SERVE_KERNELS = ("bitcount", "crc")
SYNTH_PER_SUITE = 4

#: Budgets in dynamic instructions: (full, smoke).
BUDGETS = {"fig8": (20_000, 1_500), "suite": (8_000, 600), "serve": (4_000, 600)}


def synth_names(seed: int, count: int) -> List[str]:
    from repro.workloads import synth
    return [synth(seed=seed * count + offset) for offset in range(count)]


def campaign_grid(name: str, seed: int, smoke: bool = False):
    """The :class:`~repro.grid.spec.GridSpec` of one campaign."""
    from repro.grid.catalog import get_grid
    from repro.workloads import QUICK_BENCHMARKS

    budget = BUDGETS[name][1 if smoke else 0]
    if name == "fig8":
        return get_grid("fig8").build(benchmarks=FIG8_KERNELS, budget=budget)
    if name == "suite":
        names = list(QUICK_BENCHMARKS) + synth_names(seed, SYNTH_PER_SUITE)
    else:
        names = list(SERVE_KERNELS) + synth_names(seed, 1)
    return get_grid("fig6").build(benchmarks=names, budget=budget)


# -- rows -------------------------------------------------------------------------


def row_dict(row: Any) -> Dict[str, Any]:
    """A row as a JSON dict without ``resumed`` (a GridRow or a wire dict)."""
    data = dict(row) if isinstance(row, dict) else row.as_dict()
    data.pop("resumed", None)
    return data


def row_digest(row: Any) -> str:
    blob = json.dumps(row_dict(row), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def is_synth(row: Dict[str, Any]) -> bool:
    return row["benchmark"].startswith("synth:")


def pinned_failures(campaign: str, rows: Sequence[Dict[str, Any]],
                    seed: int, smoke: bool = False) -> List[int]:
    """Indices of rows that differ from the pinned digests.

    At the default seed every row is pinned.  At any other seed the synth
    rows are new programs, so only the paper-kernel rows are checked.
    """
    if smoke:
        return []
    pins = json.loads(DIGESTS.read_text(encoding="utf-8"))["campaigns"][campaign]
    if seed == DEFAULT_SEED and len(rows) != len(pins):
        return list(range(len(rows)))
    return [row["index"] for row in rows
            if (seed == DEFAULT_SEED or not is_synth(row))
            and (row["index"] >= len(pins)
                 or pins[row["index"]] != row_digest(row))]


def mismatches(rows: Sequence[Dict[str, Any]],
               reference: Sequence[Dict[str, Any]]) -> List[int]:
    """Indices where ``rows`` differ from ``reference`` (``resumed`` aside)."""
    by_index = {row["index"]: row_dict(row) for row in reference}
    seen = {row["index"] for row in rows}
    wrong = [row["index"] for row in rows
             if row_dict(row) != by_index.get(row["index"])]
    return wrong + sorted(set(by_index) - seen)


def headline(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """The paper's headline outputs over the paper-kernel rows.

    Geometric-mean speedup over every such row, and mean dynamic coverage
    over the rows that ran a mini-graph policy.
    """
    kernel_rows = [row for row in rows if not is_synth(row)]
    speedups = [row["speedup"] for row in kernel_rows
                if row["speedup"] is not None]
    coverages = [row["coverage"] for row in kernel_rows
                 if row["templates"] is not None]
    return {
        "speedup_gmean": math.exp(sum(map(math.log, speedups)) / len(speedups)),
        "coverage_mean": sum(coverages) / len(coverages),
    }


def committed_instructions(rows: Sequence[Dict[str, Any]]) -> int:
    """Simulated committed instructions behind the paper-kernel rows' own
    timing results (seed-independent, like :func:`headline`)."""
    return sum(round(row["ipc"] * row["cycles"]) for row in rows
               if not is_synth(row))
