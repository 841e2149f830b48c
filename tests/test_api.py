"""Tests for the unified pipeline API (repro.api): spec hashing, the
content-addressed artifact store, session stage caching and the
``python -m repro`` CLI."""

import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    ArtifactStore,
    CacheStats,
    RunSpec,
    Session,
    SessionStats,
    SpecError,
    canonical_key,
    content_hash,
)
from repro.api.store import MISS
from repro.grid import get_grid
from repro.minigraph import DEFAULT_POLICY, INTEGER_POLICY, MgtBuildOptions
from repro.program import Program
from repro.uarch import PipelineStats
from repro.workloads import load_benchmark

BUDGET = 2_000


# -- keys -------------------------------------------------------------------------


class TestKeys:
    def test_canonical_key_covers_every_dataclass_field(self):
        import dataclasses
        key = canonical_key(DEFAULT_POLICY)
        named = {entry[0] for entry in key[1:]}
        assert named == {f.name for f in dataclasses.fields(DEFAULT_POLICY)}

    def test_policy_variants_key_differently(self):
        assert canonical_key(DEFAULT_POLICY) != canonical_key(INTEGER_POLICY)
        assert content_hash(DEFAULT_POLICY) != content_hash(INTEGER_POLICY)

    def test_content_hash_is_stable(self):
        assert content_hash(DEFAULT_POLICY) == content_hash(DEFAULT_POLICY)


# -- specs ------------------------------------------------------------------------


class TestRunSpec:
    def test_requires_a_source(self):
        with pytest.raises(SpecError):
            RunSpec()
        with pytest.raises(SpecError):
            RunSpec(benchmark="gsm.toast", budget=0)

    def test_rejects_benchmark_and_program_together(self):
        # Allowing both would cache the ad-hoc program's artifacts under the
        # registered benchmark's keys, poisoning the shared store.
        program = load_benchmark("bitcount")
        with pytest.raises(SpecError):
            RunSpec(benchmark="gcc", program=program)

    def test_spec_hash_is_content_addressed(self):
        first = RunSpec(benchmark="gsm.toast", budget=BUDGET)
        second = RunSpec(benchmark="gsm.toast", budget=BUDGET)
        assert first.spec_hash == second.spec_hash
        assert first.with_budget(BUDGET + 1).spec_hash != first.spec_hash
        assert first.with_policy(INTEGER_POLICY).spec_hash != first.spec_hash

    def test_policies_share_upstream_stage_material(self):
        memory = RunSpec(benchmark="gsm.toast", budget=BUDGET)
        integer = memory.with_policy(INTEGER_POLICY)
        for stage in ("assemble", "profile"):
            assert memory.stage_material(stage) == integer.stage_material(stage)
        assert memory.stage_material("select") != integer.stage_material("select")

    def test_ad_hoc_programs_are_content_addressed(self):
        source = "start:\n  ldi r1, 3\n  addqi r1,1,r1\n  halt\n"
        first = RunSpec.for_program(Program.from_assembly("adhoc", source))
        second = RunSpec.for_program(Program.from_assembly("adhoc", source))
        assert first.source_id == second.source_id
        assert first.source_id.startswith("adhoc-")

    def test_equality_sees_the_ad_hoc_program(self):
        # Specs are dictionary keys; two different programs must not collide.
        first = RunSpec.for_program(load_benchmark("gcc"))
        second = RunSpec.for_program(load_benchmark("mcf"))
        assert first != second
        assert len({first: "a", second: "b"}) == 2
        twin = RunSpec.for_program(load_benchmark("gcc"))
        assert first == twin and hash(first) == hash(twin)

    def test_describe_is_json_serializable(self):
        spec = RunSpec(benchmark="gsm.toast", budget=BUDGET)
        assert json.loads(json.dumps(spec.describe()))["benchmark"] == "gsm.toast"


# -- the artifact store -----------------------------------------------------------


class TestArtifactStore:
    VERSION = "1.0"

    def _store(self, cache_dir=None):
        return ArtifactStore(cache_dir, version=self.VERSION)

    def test_memory_hit_and_miss_accounting(self):
        store = self._store()
        assert store.get("missing") is MISS
        store.put("key", 42)
        assert store.get("key") == 42
        assert store.stats.misses == 1
        assert store.stats.memory_hits == 1
        assert store.stats.puts == 1

    def test_disk_round_trip(self, tmp_path):
        first = self._store(tmp_path)
        first.put("key", {"value": [1, 2, 3]})
        assert (tmp_path / f"v-{self.VERSION}" / "key.pkl").exists()
        second = self._store(tmp_path)
        assert second.get("key") == {"value": [1, 2, 3]}
        assert second.stats.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        store.put("key", 1)
        entry = tmp_path / f"v-{self.VERSION}" / "key.pkl"
        entry.write_bytes(b"not a pickle")
        fresh = self._store(tmp_path)
        assert fresh.get("key") is MISS
        assert not entry.exists()

    def test_clear_and_info(self, tmp_path):
        store = self._store(tmp_path)
        store.put("a", 1)
        store.put("b", 2)
        info = store.info()
        assert info.disk_entries == 2 and info.memory_entries == 2
        assert info.disk_bytes > 0
        assert store.clear() == 2
        assert store.info().disk_entries == 0


# -- statistics -------------------------------------------------------------------


class TestStats:
    @pytest.mark.parametrize("stats_cls", [SessionStats, CacheStats])
    def test_as_dict_and_merge_cover_every_field(self, stats_cls):
        """``--stats`` and the serve protocol print ``as_dict()``; pool
        workers' accounting comes back through ``merge``."""
        names = [field.name for field in dataclasses.fields(stats_cls)]
        values = {name: position + 1 for position, name in enumerate(names)}
        stats = stats_cls(**values)
        assert list(stats.as_dict()) == names
        assert stats.as_dict() == values
        stats.merge(stats_cls(**values))
        assert stats.as_dict() == {name: 2 * value
                                   for name, value in values.items()}


# -- session caching --------------------------------------------------------------


class TestSessionCaching:
    def test_repeated_run_performs_no_new_work(self):
        session = Session()
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        session.run(spec)
        work = session.stats.as_dict()
        misses = session.cache_stats.misses
        session.run(spec)
        assert session.stats.as_dict() == work
        assert session.cache_stats.misses == misses
        assert session.cache_stats.hits > 0

    def test_policies_share_profile_artifacts(self):
        session = Session()
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        session.selection(spec)
        session.selection(spec.with_policy(INTEGER_POLICY))
        # One assemble + one baseline functional run serve both policies.
        assert session.stats.assemble_runs == 1
        assert session.stats.functional_runs == 1
        assert session.stats.selection_runs == 2

    def test_policies_share_baseline_timing(self):
        # Baseline timing depends on neither policy nor MGT options: every
        # policy variant must reuse one cached simulation.
        session = Session()
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        session.baseline_timing(spec)
        session.baseline_timing(spec.with_policy(INTEGER_POLICY))
        session.baseline_timing(spec.with_mgt_options(MgtBuildOptions(collapsing=True)))
        assert session.stats.timing_runs == 1

    def test_warm_disk_cache_skips_all_simulation(self, tmp_path):
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        cold = Session(cache_dir=tmp_path)
        cold_artifacts = cold.run(spec)
        assert cold.stats.simulations > 0
        warm = Session(cache_dir=tmp_path)
        warm_artifacts = warm.run(spec)
        assert warm.stats.simulations == 0
        assert warm.cache_stats.disk_hits > 0
        assert pickle.dumps(warm_artifacts.timing) == pickle.dumps(cold_artifacts.timing)

    def test_version_bump_invalidates_disk_cache(self, tmp_path):
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        Session(cache_dir=tmp_path, version="1").run(spec)
        reused = Session(cache_dir=tmp_path, version="1")
        reused.run(spec)
        assert reused.stats.simulations == 0
        bumped = Session(cache_dir=tmp_path, version="2")
        bumped.run(spec)
        assert bumped.stats.simulations > 0

    def test_baseline_only_spec(self):
        session = Session()
        artifacts = session.run(RunSpec(benchmark="bitcount", budget=BUDGET,
                                        policy=None))
        assert artifacts.selection is None
        assert artifacts.coverage == 0.0
        assert artifacts.timing.cycles > 0

    def test_figure_harness_warm_cache_regenerates_without_simulation(self, tmp_path):
        definition = get_grid("fig6")
        grid = definition.build(benchmarks=["bitcount"], budget=BUDGET)
        first = Session(cache_dir=tmp_path)
        list(first.run_grid(grid, workers=0))
        assert first.stats.simulations > 0
        second = Session(cache_dir=tmp_path)
        _, (table,) = definition.report(list(second.run_grid(grid, workers=0)))
        assert second.stats.functional_runs == 0
        assert second.stats.timing_runs == 0
        assert table.value("bitcount", "int") > 0.0


# -- zero-baseline speedups -------------------------------------------------------


def _stub_stats(ipc: float) -> PipelineStats:
    stats = PipelineStats(cycles=100)
    stats.committed_instructions = int(round(ipc * 100))
    return stats


class TestZeroBaselineSpeedup:
    def test_run_artifacts_speedup_nan(self):
        from repro.api.session import RunArtifacts
        artifacts = RunArtifacts(
            spec=RunSpec(benchmark="bitcount"), program=None, profile=None,
            baseline_trace=None, timing=_stub_stats(1.0),
            baseline_timing=PipelineStats())
        assert math.isnan(artifacts.speedup)
        assert artifacts.report()["speedup"] is None


# -- CLI --------------------------------------------------------------------------


def _run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=600)


class TestCli:
    def test_run_json_report(self, tmp_path):
        result = _run_cli("--cache-dir", str(tmp_path), "--json", "--stats",
                          "run", "bitcount", "--budget", str(BUDGET))
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["spec"]["benchmark"] == "bitcount"
        assert payload["speedup"] is not None
        assert payload["session_stats"]["functional_runs"] > 0

    def test_cache_info_and_clear(self, tmp_path):
        _run_cli("--cache-dir", str(tmp_path), "run", "bitcount",
                 "--budget", str(BUDGET))
        info = _run_cli("--cache-dir", str(tmp_path), "--json", "cache", "info")
        assert info.returncode == 0, info.stderr
        assert json.loads(info.stdout)["disk_entries"] > 0
        cleared = _run_cli("--cache-dir", str(tmp_path), "--json", "cache", "clear")
        assert json.loads(cleared.stdout)["removed"] > 0
        info = _run_cli("--cache-dir", str(tmp_path), "--json", "cache", "info")
        assert json.loads(info.stdout)["disk_entries"] == 0

    @pytest.mark.parametrize("argv", [
        ["run", "nosuch"],
        ["run", "gsm.toast", "--budget", "-5"],
        ["grid", "--name", "nosuch"],
        ["grid", "--name", "mini", "--shard", "3/2"],
        ["run", "gsm.toast", "--budget", "2000",
         "--machine", "int", "--policy", "int-mem"],
        ["run", "gsm.toast", "--budget", "2000", "--mgt-entries", "0"],
        ["run", "gsm.toast", "--budget", "2000", "--mgt-entries", "-3"],
        ["run", "gsm.toast", "--budget", "2000", "--max-size", "1"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_requests_are_one_line_errors(self, argv, capsys):
        from repro.api.cli import main
        assert main(["--no-disk-cache", *argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("repro: error:")
