"""Seeded program synthesis + the differential fuzzing stack.

Four families of guarantees:

* **determinism** — a spec's name round-trips through parsing, regeneration
  is bit-identical across generator instantiations, and generation never
  touches Python's global ``random`` state;
* **the corpus stands** — every committed ``tests/corpus/*.json`` entry
  replays clean under every oracle it names (starter seeds span the dial
  space; repro entries pin fixed bugs);
* **the oracles have teeth** — a deliberately injected selection-ordering
  bug is caught within the CI smoke budget of 64 seeds, and the failing
  seed shrinks to smaller dials that still fail;
* **quarantined geometries** — machine shapes the geometry oracle found
  crashing (plain ``ValueError`` escaping from predictor/BTB constructors,
  FP programs livelocking on ``fp_units=0``) now raise ``ConfigError``.
"""

import dataclasses
import json
import multiprocessing
import os
import random
import signal
from pathlib import Path

import pytest

from repro.fuzz import harness
from repro.fuzz import oracles as oracles_module
from repro.fuzz.corpus import CorpusEntry, load_corpus, replay_entry, write_repro
from repro.fuzz.generator import (
    _DIALS,
    SynthSpec,
    SynthSpecError,
    generate_program,
    generate_source,
    synth,
)
from repro.fuzz.harness import run_fuzz, shrink_failure
from repro.fuzz.oracles import run_oracles
from repro.sim import run_program
from repro.uarch.config import ConfigError, MachineConfig, baseline_config
from repro.uarch.pipeline import TimingSimulator
from repro.workloads import REGISTRY, WorkloadError, load_benchmark

CORPUS_DIR = Path(__file__).parent / "corpus"


# -- determinism --------------------------------------------------------------------


class TestDeterminism:
    def test_name_round_trips(self):
        for seed in range(50):
            spec = SynthSpec.sample(seed)
            assert SynthSpec.from_name(spec.name) == spec

    def test_regeneration_is_bit_identical(self):
        """Same seed, fresh generator state: byte-for-byte the same program."""
        for seed in (0, 7, 23):
            spec = SynthSpec.sample(seed)
            source_a = generate_source(spec, "reference")
            source_b = generate_source(SynthSpec.from_name(spec.name),
                                       "reference")
            assert source_a == source_b
            program_a = generate_program(spec, "reference")
            program_b = generate_program(spec, "reference")
            assert [str(insn) for insn in program_a.instructions] == \
                   [str(insn) for insn in program_b.instructions]

    def test_inputs_differ_but_structure_is_shared(self):
        spec = SynthSpec.sample(11)
        reference = generate_source(spec, "reference")
        train = generate_source(spec, "train")
        assert reference != train
        # Only the data segment differs: the instruction stream is identical.
        ref_text = [line for line in reference.splitlines()
                    if not line.lstrip().startswith(".data")]
        train_text = [line for line in train.splitlines()
                      if not line.lstrip().startswith(".data")]
        assert ref_text == train_text

    def test_generation_never_touches_global_random(self):
        """Everything is seeded explicitly; ``random`` stays untouched."""
        random.seed(1234)
        before = random.getstate()
        spec = SynthSpec.sample(42)
        generate_program(spec, "reference")
        run_oracles(spec, oracles=("rewrite",))
        assert random.getstate() == before

    def test_generated_programs_terminate(self):
        for seed in range(25):
            spec = SynthSpec.sample(seed)
            result = run_program(generate_program(spec, "reference"),
                                 max_instructions=60_000)
            assert result.halted, spec.name

    def test_bad_names_rejected(self):
        for name in ("synth:", "synth:v1-s1", "synth:v9-s1-b1-l2-d0-t1-c0-"
                     "m0-a1-w8-r2-f0-u0", "synth:v1-s1-b0-l2-d0-t1-c0-m0-"
                     "a1-w8-r2-f0-u0"):
            with pytest.raises(SynthSpecError):
                SynthSpec.from_name(name)

    def test_dial_bounds_enforced(self):
        with pytest.raises(SynthSpecError):
            SynthSpec.sample(0).with_dials(blocks=0)
        with pytest.raises(SynthSpecError):
            SynthSpec.sample(0).with_dials(branch_density=101)


# -- registry / grid integration ----------------------------------------------------


class TestWorkloadFamily:
    def test_registry_resolves_synth_names(self):
        name = synth(seed=5)
        benchmark = REGISTRY.get(name)
        assert benchmark.suite == "synth"
        program = load_benchmark(name)
        assert program.name == name

    def test_registry_rejects_malformed_synth_names(self):
        with pytest.raises(WorkloadError):
            REGISTRY.get("synth:not-a-spec")

    def test_synth_names_work_as_grid_axis(self):
        from repro.api import RunSpec, Session
        from repro.grid import Axis, GridSpec
        from repro.grid.engine import run_grid
        from repro.minigraph.policies import DEFAULT_POLICY

        grid = GridSpec(
            name="synth-axis",
            axes=(Axis("workload", tuple(synth(seed=s) for s in range(2))),
                  Axis("config", ("baseline", "minigraph"))),
            build=lambda point: RunSpec(
                benchmark=point["workload"], budget=2_000,
                policy=None if point["config"] == "baseline"
                else DEFAULT_POLICY),
        )
        rows = list(run_grid(Session(), grid))
        assert len(rows) == 4
        assert all(row.benchmark.startswith("synth:") for row in rows)


# -- corpus replay ------------------------------------------------------------------


class TestCorpus:
    def test_corpus_is_committed_and_spans_dials(self):
        entries = load_corpus(CORPUS_DIR)
        assert len(entries) >= 20
        # The starter corpus must not collapse to one corner of dial space.
        loop_depths = {SynthSpec.from_name(e.spec).loop_depth for e in entries}
        fp = {SynthSpec.from_name(e.spec).fp_density > 0 for e in entries}
        mem = {SynthSpec.from_name(e.spec).mem_density > 0 for e in entries}
        assert loop_depths == {0, 1, 2}
        assert fp == {True, False}
        assert mem == {True, False}
        # Replay covers every oracle, the compiled cores' included.
        assert all(e.oracles == oracles_module.ORACLE_NAMES for e in entries)

    def test_corpus_replays_clean_under_all_oracles(self):
        """Every committed entry passes every oracle it names (tier-1)."""
        for entry in load_corpus(CORPUS_DIR):
            results = replay_entry(entry)
            bad = [(r.oracle, r.detail) for r in results if not r.ok]
            assert not bad, f"{entry.name}: {bad}"

    def test_write_and_load_round_trip(self, tmp_path):
        entry = CorpusEntry(name="rt", spec=synth(seed=77),
                            oracles=("rewrite", "codec"), budget=5_000,
                            note="round-trip")
        path = write_repro(tmp_path, entry)
        assert json.loads(path.read_text())["spec"] == entry.spec
        assert load_corpus(tmp_path) == [entry]

    def test_malformed_entries_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(SynthSpecError):
            load_corpus(tmp_path)
        with pytest.raises(SynthSpecError):
            CorpusEntry(name="x", spec=synth(seed=1), oracles=("nope",))


# -- the oracles have teeth ---------------------------------------------------------


def _ordering_bug(program, profile, *, policy=None, candidates=None):
    """The injected defect: selection returns its picks in reversed order."""
    result = _ordering_bug.real(program, profile, policy=policy,
                                candidates=candidates)
    if len(result.selected) > 1:
        return dataclasses.replace(
            result, selected=tuple(reversed(result.selected)))
    return result


_ordering_bug.real = oracles_module.select_minigraphs


class TestOracleSensitivity:
    @pytest.fixture()
    def injected_ordering_bug(self, monkeypatch):
        monkeypatch.setattr(oracles_module, "select_minigraphs",
                            _ordering_bug)

    def test_selection_ordering_bug_caught_within_64_seeds(
            self, injected_ordering_bug):
        for seed in range(64):
            results = run_oracles(SynthSpec.sample(seed),
                                  oracles=("selection",))
            if any(not r.ok for r in results):
                return
        pytest.fail("injected selection-ordering bug survived 64 seeds")

    def test_failing_seed_shrinks_and_still_fails(
            self, injected_ordering_bug):
        spec = SynthSpec.sample(0)
        assert any(not r.ok
                   for r in run_oracles(spec, oracles=("selection",)))
        reduced = shrink_failure(spec, ("selection",))
        for _, fieldname, _, _ in _DIALS:
            assert getattr(reduced, fieldname) <= getattr(spec, fieldname)
        assert reduced != spec
        assert any(not r.ok
                   for r in run_oracles(reduced, oracles=("selection",)))

    def test_campaign_reports_and_persists_repro(
            self, injected_ordering_bug, tmp_path):
        report = run_fuzz(2, oracles=("selection",),
                          corpus_dir=str(tmp_path))
        assert not report.ok
        failure = report.failures[0]
        assert failure.oracle == "selection"
        assert failure.shrunk is not None
        persisted = load_corpus(tmp_path)
        assert persisted and persisted[0].spec == failure.shrunk

    def test_clean_campaign(self):
        from repro.fuzz.oracles import ORACLE_NAMES
        report = run_fuzz(4)
        assert report.ok
        assert report.differential_runs == 4 * len(ORACLE_NAMES)

    def test_a_pooled_campaign_reports_what_a_serial_one_does(self):
        """More workers than a 2-vCPU host has cores give every seed's
        oracle results in seed order, and two give the report a serial
        campaign gives, its timings aside."""
        jobs = [(seed, ("codec",), None, "reference") for seed in range(6)]
        assert harness._fan_out(jobs, 3) == harness._fan_out(jobs, 1)
        timings = ("elapsed_seconds", "runs_per_second")
        pooled, serial = ({key: value for key, value
                           in run_fuzz(4, workers=workers).payload().items()
                           if key not in timings} for workers in (2, 1))
        assert pooled == serial and pooled["ok"]
        assert multiprocessing.active_children() == []


#: Pid of the test process; a campaign's seed workers fork from it.
_CAMPAIGN_PID = os.getpid()
_RUN_SEED_JOB = harness._run_seed_job


def _dies_on_seed_1(job):
    """``_run_seed_job``, except that a worker given seed 1 SIGKILLs
    itself."""
    if job[0] == 1 and os.getpid() != _CAMPAIGN_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return _RUN_SEED_JOB(job)


class TestWorkerDeath:
    def test_a_seed_whose_worker_dies_fails_alone(self, monkeypatch):
        """A worker SIGKILLed on seed 1 fails that seed, naming the signal;
        every other seed still reports, and the campaign's process does
        not shrink seed 1, whose oracles would kill it too."""
        shrunk = []
        monkeypatch.setattr(harness, "_run_seed_job", _dies_on_seed_1)
        monkeypatch.setattr(harness, "shrink_failure",
                            lambda spec, *args, **kwargs: shrunk.append(spec))
        report = harness.run_fuzz(4, workers=2, oracles=("codec",))
        [failure] = report.failures
        assert (failure.seed, failure.spec, failure.oracle, failure.shrunk) \
            == (1, SynthSpec.sample(1).name, "worker", None)
        assert f"signal {int(signal.SIGKILL)}" in failure.detail
        assert "codec" in failure.detail
        assert shrunk == []
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("budget", [0, -5])
def test_cli_rejects_non_positive_budget(budget, tmp_path, capsys):
    """A budget no program can halt within is a usage error, not a failing
    seed: no seed runs and no bogus repro lands in the corpus directory."""
    from repro.api.cli import main
    code = main(["fuzz", "--seeds", "2", "--budget", str(budget),
                 "--corpus-dir", str(tmp_path)])
    assert code == 2
    assert "repro: error: --budget must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# -- quarantined geometries ---------------------------------------------------------


class TestQuarantinedGeometries:
    """Machine shapes the geometry oracle found escaping validation.

    Before the fix these raised plain ``ValueError`` from deep inside
    ``TimingSimulator`` construction (predictor/BTB constructors) or
    livelocked until the 5M-cycle watchdog (FP work on ``fp_units=0``).
    All must now be ``ConfigError`` at construction/admission time.
    """

    def test_btb_entries_must_divide_into_sets(self):
        # Found by the geometry oracle at campaign seed 0.
        with pytest.raises(ConfigError):
            MachineConfig(name="fuzz", btb_entries=1274, btb_associativity=6)

    def test_predictor_entries_must_be_power_of_two(self):
        # Found by the geometry oracle at campaign seed 3.
        with pytest.raises(ConfigError):
            MachineConfig(name="fuzz", predictor_entries=2988)

    def test_fp_program_on_fp_less_machine_rejected_at_admission(self):
        spec = SynthSpec.sample(1004).with_dials(fp_density=40)
        program = generate_program(spec, "reference")
        trace = run_program(program, max_instructions=10_000).trace
        config = dataclasses.replace(baseline_config(), fp_units=0,
                                     issue_width=4)
        with pytest.raises(ConfigError):
            TimingSimulator(program, trace, config)

    def test_integer_program_on_fp_less_machine_still_admitted(self):
        """The admission check only fires when FP work is actually present."""
        spec = SynthSpec.sample(3).with_dials(fp_density=0)
        program = generate_program(spec, "reference")
        trace = run_program(program, max_instructions=10_000).trace
        config = dataclasses.replace(baseline_config(), fp_units=0,
                                     issue_width=4)
        stats = TimingSimulator(program, trace, config).run()
        assert stats.committed_slots == len(trace)
