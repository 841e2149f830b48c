"""The ``synth:`` workload family: seeded generative benchmarks.

Unlike the four hand-written suites, synth benchmarks are not enumerated
into the registry at import time — the family is infinite.  Instead the
benchmark *name* encodes the full generator spec
(``synth:v1-s42-b6-l12-...``; see :mod:`repro.fuzz.generator`) and
:meth:`~repro.workloads.base.BenchmarkRegistry.get` falls back to
:func:`synth_benchmark` for any ``synth:`` name, so every consumer of
registered benchmarks — :class:`~repro.api.spec.RunSpec`, pool workers, the
serve daemon, grid axes — resolves synth programs by name with no extra
plumbing.  Resolution is a pure function of the name, which is exactly the
property the content-addressed artifact store needs.
"""

from __future__ import annotations

from ..fuzz.generator import (
    SYNTH_BUDGET,
    SynthSpec,
    SynthSpecError,
    generate_source,
    synth,
)
from .base import Benchmark

#: Suite key reported by synth benchmarks.  Deliberately *not* added to
#: ``SUITE_NAMES``: the family never enters the registry, so suite sweeps
#: ("run every registered benchmark of suite X") are unaffected.
SYNTH_SUITE = "synth"


def synth_benchmark(name: str) -> Benchmark:
    """Resolve a ``synth:`` benchmark name into a :class:`Benchmark`.

    Raises :class:`~repro.fuzz.generator.SynthSpecError` for malformed
    names (the registry's fallback translates that into its usual
    ``WorkloadError``).
    """
    spec = SynthSpec.from_name(name)

    def builder(input_name: str) -> str:
        return generate_source(spec, input_name)

    return Benchmark(
        name=name,
        suite=SYNTH_SUITE,
        builder=builder,
        inputs=("reference", "train"),
        description=f"seeded synthetic program (seed {spec.seed})",
        default_budget=SYNTH_BUDGET,
    )


__all__ = ["SYNTH_SUITE", "SynthSpec", "SynthSpecError", "synth",
           "synth_benchmark"]
