"""Declarative experiment grids: axes in, lazily expanded :class:`RunSpec`\\ s out.

A :class:`GridSpec` declares a configuration-space sweep — the cross-product
of named :class:`Axis` values (machine × selection policy × workload × trace
length × anything else) — together with a ``build`` function mapping each
grid *point* (one value per axis) to the :class:`~repro.api.spec.RunSpec`
that realizes it, or to ``None`` to drop the point.  Expansion is lazy:
points stream out of :func:`itertools.product` in axis order and are built
one at a time, so a million-cell grid costs nothing to declare.

Every built point becomes a :class:`GridCell` carrying a dense
``index`` (its position in the deterministic expansion order); the planner
(:mod:`repro.grid.planner`) groups cells into shared-artifact stages and the
engine (:mod:`repro.grid.engine`) executes them — sharded, resumable,
streaming.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..api.spec import RunSpec


class GridError(ValueError):
    """Raised for malformed grid declarations or invocations."""


@dataclass(frozen=True)
class Axis:
    """One named dimension of a grid: a label and its ordered values."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise GridError("an Axis needs a non-empty name")
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise GridError(f"axis {self.name!r} has no values")
        if len(set(values)) != len(values):
            raise GridError(f"axis {self.name!r} has duplicate values")


#: A grid point: one value per axis, keyed by axis name.
GridPoint = Dict[str, Any]

#: Maps a point to its RunSpec; ``None`` excludes the point from the grid.
SpecBuilder = Callable[[GridPoint], Optional[RunSpec]]


@dataclass(frozen=True)
class GridCell:
    """One included point of an expanded grid."""

    index: int                              # position in expansion order
    point: Tuple[Tuple[str, Any], ...]      # ordered (axis name, value) pairs
    spec: RunSpec

    @property
    def labels(self) -> GridPoint:
        """The point as an axis-name → value mapping."""
        return dict(self.point)


@dataclass(frozen=True)
class GridSpec:
    """A declarative machine/policy/workload cross-product.

    Attributes:
        name: stable identifier (catalog key, CLI ``--name``).
        axes: the grid's dimensions, outermost first; expansion order is
            the row-major product of the axis values.
        build: maps each point to its ``RunSpec`` (``None`` drops the
            point).
        title: human-readable description for listings and reports.
    """

    name: str
    axes: Tuple[Axis, ...]
    build: SpecBuilder = field(compare=False, repr=False, default=None)  # type: ignore[assignment]
    title: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise GridError("a GridSpec needs a non-empty name")
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if not axes:
            raise GridError(f"grid {self.name!r} declares no axes")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise GridError(f"grid {self.name!r} has duplicate axis names")
        if self.build is None:
            raise GridError(f"grid {self.name!r} needs a build function")

    def cells(self) -> Iterator[GridCell]:
        """Lazily expand to :class:`GridCell`\\ s (points with built specs).

        Cell indices are dense over the built cells, in row-major product
        order — the deterministic ordering sharding and result streaming
        key on.
        """
        names = [axis.name for axis in self.axes]
        index = 0
        for combo in product(*(axis.values for axis in self.axes)):
            point = dict(zip(names, combo))
            spec = self.build(point)
            if spec is None:
                continue
            yield GridCell(index=index, point=tuple(point.items()), spec=spec)
            index += 1
