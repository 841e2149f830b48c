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
