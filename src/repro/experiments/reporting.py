"""Result tables, means and text rendering shared by the experiment harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..workloads import SUITE_NAMES, SUITE_TITLES


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the paper reports gmeans of relative performance)."""
    filtered = [value for value in values if value > 0.0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(value) for value in filtered) / len(filtered))


def arithmetic_mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)


@dataclass
class ResultTable:
    """A rectangular result table: rows are benchmarks, columns are configurations."""

    title: str
    columns: List[str]
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    row_suites: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, row: str, column: str, value: float, *, suite: Optional[str] = None) -> None:
        """Record one cell; unknown columns are appended in encounter order."""
        if column not in self.columns:
            self.columns.append(column)
        self.rows.setdefault(row, {})[column] = value
        if suite is not None:
            self.row_suites[row] = suite

    def value(self, row: str, column: str) -> float:
        return self.rows[row][column]

    def column_values(self, column: str, *, suite: Optional[str] = None) -> List[float]:
        values = []
        for row, cells in self.rows.items():
            if suite is not None and self.row_suites.get(row) != suite:
                continue
            if column in cells:
                values.append(cells[column])
        return values

    def suite_means(self, column: str, *, geometric: bool = True) -> Dict[str, float]:
        """Per-suite mean of one column (gmean by default, as the paper does)."""
        means: Dict[str, float] = {}
        for suite in SUITE_NAMES:
            values = self.column_values(column, suite=suite)
            if not values:
                continue
            means[suite] = geometric_mean(values) if geometric else arithmetic_mean(values)
        return means

    def overall_mean(self, column: str, *, geometric: bool = True) -> float:
        values = self.column_values(column)
        return geometric_mean(values) if geometric else arithmetic_mean(values)

    # -- rendering ----------------------------------------------------------------

    def render(self, *, float_format: str = "{:7.3f}", include_suite_means: bool = True) -> str:
        """Render the table as aligned text (one row per benchmark, then means)."""
        name_width = max([len(row) for row in self.rows] + [len("benchmark")] + [12])
        header = "benchmark".ljust(name_width) + "  " + "  ".join(
            column.rjust(max(len(column), 7)) for column in self.columns)
        lines = [self.title, "=" * len(self.title), header, "-" * len(header)]
        ordered_rows = sorted(self.rows, key=lambda row: (self.row_suites.get(row, ""), row))
        current_suite = None
        for row in ordered_rows:
            suite = self.row_suites.get(row)
            if include_suite_means and suite != current_suite and suite is not None:
                lines.append(f"[{SUITE_TITLES.get(suite, suite)}]")
                current_suite = suite
            cells = []
            for column in self.columns:
                value = self.rows[row].get(column)
                width = max(len(column), 7)
                cells.append((float_format.format(value) if value is not None else "-").rjust(width))
            lines.append(row.ljust(name_width) + "  " + "  ".join(cells))
        if include_suite_means:
            lines.append("-" * len(header))
            for suite in SUITE_NAMES:
                means = {column: self.suite_means(column).get(suite) for column in self.columns}
                if all(value is None for value in means.values()):
                    continue
                cells = []
                for column in self.columns:
                    value = means[column]
                    width = max(len(column), 7)
                    cells.append((float_format.format(value) if value is not None else "-").rjust(width))
                label = f"gmean {SUITE_TITLES.get(suite, suite)}"
                lines.append(label.ljust(name_width) + "  " + "  ".join(cells))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

