"""Workload infrastructure: benchmark definitions, inputs and the registry.

The paper evaluates SPEC2000 integer, MediaBench, CommBench and MiBench
binaries compiled for Alpha.  Those binaries and their inputs are not
available here, so each suite is represented by a family of synthetic kernels
written in MGA assembly whose *structural* properties (basic block size, ALU
chain length, load/store density, branchiness, footprint) mimic the
corresponding suite; docs/architecture.md records the substitution rationale.

Every benchmark provides at least two deterministic input sets:

* ``reference`` — used for all headline experiments;
* ``train`` — a differently-sized/shaped input used to build the profiles of
  the robustness study (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..program.program import Program

#: Canonical suite names, in the order the paper reports them.
SUITE_NAMES: Tuple[str, ...] = ("spec", "media", "comm", "embedded")

#: Human-readable suite titles (the paper's names).
SUITE_TITLES: Dict[str, str] = {
    "spec": "SPECint",
    "media": "MediaBench",
    "comm": "CommBench",
    "embedded": "MiBench",
}


class WorkloadError(ValueError):
    """Raised for unknown benchmarks, suites or inputs."""


@dataclass(frozen=True)
class Benchmark:
    """One benchmark kernel.

    Attributes:
        name: benchmark name (e.g. ``gsm.toast``).
        suite: suite key (one of :data:`SUITE_NAMES`).
        builder: callable mapping an input name to assembly source text.
        inputs: input names the builder accepts.
        description: what the kernel computes and which real benchmark it
            stands in for.
        default_budget: default dynamic-instruction budget for simulation.
    """

    name: str
    suite: str
    builder: Callable[[str], str]
    inputs: Tuple[str, ...] = ("reference", "train")
    description: str = ""
    default_budget: int = 30_000

    def source(self, input_name: str = "reference") -> str:
        """Assembly source for the given input set."""
        if input_name not in self.inputs:
            raise WorkloadError(
                f"benchmark {self.name!r} has no input {input_name!r}; "
                f"available: {', '.join(self.inputs)}")
        return self.builder(input_name)

    def build(self, input_name: str = "reference") -> Program:
        """Assemble the kernel into a :class:`Program`."""
        program = Program.from_assembly(
            self.name, self.source(input_name),
            metadata={"suite": self.suite, "input": input_name,
                      "description": self.description},
        )
        return program


class LinearCongruentialGenerator:
    """Tiny deterministic PRNG used to synthesise input data.

    Using our own generator (rather than :mod:`random`) guarantees the data
    segments are bit-identical across Python versions, which keeps the
    regression tests and recorded experiment results stable.
    """

    def __init__(self, seed: int) -> None:
        self._state = (seed * 2654435761 + 12345) & 0xFFFFFFFFFFFFFFFF

    def next(self) -> int:
        self._state = (self._state * 6364136223846793005 + 1442695040888963407) \
            & 0xFFFFFFFFFFFFFFFF
        return self._state

    def below(self, bound: int) -> int:
        """Uniform-ish integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.next() >> 16) % bound

    def sequence(self, count: int, bound: int) -> List[int]:
        """A list of ``count`` values below ``bound``."""
        return [self.below(bound) for _ in range(count)]


def data_directive(name: str, values: Sequence[int]) -> str:
    """Format a ``.data`` directive for a list of values."""
    rendered = " ".join(str(value) for value in values)
    return f".data {name} {rendered}"


class BenchmarkRegistry:
    """Registry of all benchmarks, grouped by suite."""

    def __init__(self) -> None:
        self._benchmarks: Dict[str, Benchmark] = {}

    def register(self, benchmark: Benchmark) -> Benchmark:
        """Register a benchmark; names must be unique."""
        if benchmark.suite not in SUITE_NAMES:
            raise WorkloadError(f"unknown suite {benchmark.suite!r}")
        if benchmark.name in self._benchmarks:
            raise WorkloadError(f"duplicate benchmark {benchmark.name!r}")
        self._benchmarks[benchmark.name] = benchmark
        return benchmark

    def get(self, name: str) -> Benchmark:
        """Look up one benchmark by name.

        Names with the ``synth:`` prefix resolve through the generative
        workload family (:mod:`repro.workloads.synth`): the name encodes the
        full generator spec, so resolution needs no prior registration and
        works identically in pool workers and serve daemons.
        """
        try:
            return self._benchmarks[name]
        except KeyError as exc:
            if name.startswith("synth:"):
                # Imported from the module, not the package: the package
                # re-exports a `synth` *function* that shadows the
                # submodule attribute of the same name.
                from .synth import synth_benchmark
                try:
                    return synth_benchmark(name)
                except ValueError as synth_exc:
                    raise WorkloadError(str(synth_exc)) from synth_exc
            raise WorkloadError(f"unknown benchmark {name!r}") from exc

    def names(self, suite: Optional[str] = None) -> List[str]:
        """Benchmark names, optionally restricted to one suite."""
        if suite is None:
            return sorted(self._benchmarks)
        if suite not in SUITE_NAMES:
            raise WorkloadError(f"unknown suite {suite!r}")
        return sorted(name for name, bench in self._benchmarks.items()
                      if bench.suite == suite)

    def suite(self, suite: str) -> List[Benchmark]:
        """All benchmarks of one suite, sorted by name."""
        return [self.get(name) for name in self.names(suite)]

    def all(self) -> List[Benchmark]:
        """All registered benchmarks, sorted by name."""
        return [self._benchmarks[name] for name in sorted(self._benchmarks)]

    def __len__(self) -> int:
        return len(self._benchmarks)


#: The global registry; suite modules populate it at import time.
REGISTRY = BenchmarkRegistry()


def register_benchmark(name: str, suite: str, builder: Callable[[str], str], *,
                       description: str = "",
                       inputs: Tuple[str, ...] = ("reference", "train"),
                       default_budget: int = 30_000) -> Benchmark:
    """Convenience wrapper used by the suite modules."""
    return REGISTRY.register(Benchmark(
        name=name, suite=suite, builder=builder, inputs=inputs,
        description=description, default_budget=default_budget,
    ))
