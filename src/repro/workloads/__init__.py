"""Synthetic benchmark suites standing in for the paper's four workload suites.

Importing this package populates the global :data:`REGISTRY` with every
kernel from the four suites.  The usual entry points are:

* :func:`load_benchmark` — assemble one benchmark into a
  :class:`~repro.program.program.Program`.
* :func:`suite_benchmarks` — names of the kernels in a suite.
* :data:`REGISTRY` — the full :class:`BenchmarkRegistry`.
"""

from __future__ import annotations

from typing import List, Optional

from ..program.program import Program
from .base import (
    Benchmark,
    BenchmarkRegistry,
    LinearCongruentialGenerator,
    REGISTRY,
    SUITE_NAMES,
    SUITE_TITLES,
    WorkloadError,
    data_directive,
    register_benchmark,
)
from . import comm, embedded, media, spec
from .synth import SYNTH_SUITE, synth, synth_benchmark

# Populate the registry exactly once at import time.
if len(REGISTRY) == 0:  # pragma: no branch - guarded for re-import safety
    spec.register()
    media.register()
    comm.register()
    embedded.register()


#: Representative kernels per suite — the quick default used by the CLI and
#: the benchmark harness when no explicit benchmark list is given.
QUICK_BENCHMARKS = (
    "gcc", "mcf", "crafty", "gzip",                                # SPECint-like
    "adpcm.encode", "gsm.toast", "mpeg2.decode", "jpeg.compress",  # MediaBench-like
    "frag", "rtr", "reed.encode", "cast.encrypt",                  # CommBench-like
    "bitcount", "sha", "crc", "susan.smoothing",                   # MiBench-like
)


def benchmark_names(suite: Optional[str] = None) -> List[str]:
    """Names of all registered benchmarks, optionally filtered by suite."""
    return REGISTRY.names(suite)


def suite_benchmarks(suite: str) -> List[Benchmark]:
    """All benchmarks of one suite."""
    return REGISTRY.suite(suite)


def get_benchmark(name: str) -> Benchmark:
    """Look up one benchmark definition."""
    return REGISTRY.get(name)


def load_benchmark(name: str, input_name: str = "reference") -> Program:
    """Assemble one benchmark into a runnable :class:`Program`."""
    return REGISTRY.get(name).build(input_name)


__all__ = [
    "Benchmark",
    "BenchmarkRegistry",
    "LinearCongruentialGenerator",
    "QUICK_BENCHMARKS",
    "REGISTRY",
    "SUITE_NAMES",
    "SUITE_TITLES",
    "SYNTH_SUITE",
    "WorkloadError",
    "synth",
    "synth_benchmark",
    "data_directive",
    "register_benchmark",
    "benchmark_names",
    "suite_benchmarks",
    "get_benchmark",
    "load_benchmark",
]
