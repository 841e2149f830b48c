"""Seeded program synthesis and differential fuzzing.

Three layers:

* :mod:`repro.fuzz.generator` — the deterministic program generator
  (:class:`SynthSpec` dials, ``synth:`` benchmark names, SplitMix64 streams);
* :mod:`repro.fuzz.oracles` — the seven differential oracles run against
  each generated program (rewrite equivalence, heap-vs-reference selection,
  timing-vs-functional commit stream, trace codec round-trip, machine
  geometry fuzzing, and the compiled timing kernel and functional core
  against their reference simulators);
* :mod:`repro.fuzz.harness` — the campaign driver behind ``repro fuzz``
  (seed fan-out, dial-reduction shrinking, corpus repro files), with
  :mod:`repro.fuzz.corpus` handling the committed ``tests/corpus/`` replays.
"""

from .generator import (
    DYNAMIC_CAP,
    GENERATOR_VERSION,
    SYNTH_BUDGET,
    SYNTH_PREFIX,
    SplitMix64,
    SynthSpec,
    SynthSpecError,
    generate_program,
    generate_source,
    synth,
)
from .oracles import ORACLE_NAMES, FuzzContext, OracleResult, run_oracles
from .harness import FuzzFailure, FuzzReport, run_fuzz, shrink_failure
from .corpus import CorpusEntry, load_corpus, replay_entry, write_repro

__all__ = [
    "DYNAMIC_CAP",
    "GENERATOR_VERSION",
    "SYNTH_BUDGET",
    "SYNTH_PREFIX",
    "SplitMix64",
    "SynthSpec",
    "SynthSpecError",
    "generate_program",
    "generate_source",
    "synth",
    "ORACLE_NAMES",
    "FuzzContext",
    "OracleResult",
    "run_oracles",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz",
    "shrink_failure",
    "CorpusEntry",
    "load_corpus",
    "replay_entry",
    "write_repro",
]
