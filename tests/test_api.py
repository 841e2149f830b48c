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

from repro import __version__
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
from repro.api import session as session_module
from repro.api.keys import digest
from repro.api.store import MISS
from repro.grid import cell_key, get_grid
from repro.grid.engine import cell_payload
from repro.minigraph import DEFAULT_POLICY, INTEGER_POLICY, MgtBuildOptions
from repro.program import Program
from repro.uarch import (
    PipelineStats,
    baseline_config,
    integer_memory_minigraph_config,
)
from repro.uarch.stats import ipc_speedup
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


#: The version the pinned keys below were derived under.
PINNED_VERSION = "1.4.0"

_LOOP = ("start:\n  ldi r1, 40\n  ldi r2, 0\nloop:\n  addq r2, r1, r2\n"
         "  subqi r1, 1, r1\n  bne r1, loop\n  halt\n")


def _pinned_spec(name):
    if name == "baseline":
        return RunSpec(benchmark="bitcount", budget=BUDGET, policy=None)
    if name == "default":
        return RunSpec(benchmark="bitcount", budget=BUDGET)
    if name == "fig6-int-mem+collapse":
        return RunSpec(benchmark="bitcount", budget=BUDGET,
                       policy=DEFAULT_POLICY,
                       machine=integer_memory_minigraph_config(collapsing=True),
                       baseline_machine=baseline_config(),
                       mgt_options=MgtBuildOptions(collapsing=True))
    return RunSpec.for_program(Program.from_assembly("loop", _LOOP),
                               budget=BUDGET)


_BITCOUNT_UPSTREAM = {
    "assemble": "b9cbb4501934ea1f0d635fc5",
    "profile": "101918ca087cf8c91e17eb8b",
    "time_baseline": "8427ff8eadc2c7865e8ef940",
}

#: Per spec: every stage key ``Session.run`` derives (stage -> digest), the
#: ``spec_hash``, the row artifact's ``cell_key`` and the machine's
#: ``machine_hash``, as earlier builds wrote them into stores.
PINNED_KEYS = {
    "baseline": (
        _BITCOUNT_UPSTREAM,
        "73e2a7d89b0fef56b2fcedaa", "gridcell-b08cf5e8e8f821ac03bf2b39",
        "e0900befed538e05091bd06f"),
    "default": (
        dict(_BITCOUNT_UPSTREAM,
             select="f8d8db983781649089dd484e",
             rewrite="2d0773576cc237e5e2f130c2",
             build_mgt="47a15f60b880966a9b83204f",
             trace="9f7d10f4e4d1aa6f6c65d684",
             time="515e13c1e4b48abfd9fdb736"),
        "aaa91a7fef57f603ec633fae", "gridcell-1a8028f4a422730ac5ff9247",
        "9427920b51a5eca988069f0c"),
    "fig6-int-mem+collapse": (
        dict(_BITCOUNT_UPSTREAM,
             select="f8d8db983781649089dd484e",
             rewrite="2d0773576cc237e5e2f130c2",
             build_mgt="7864ba8a5a9bb44d36d9fa9c",
             trace="24b1eea210bdf1814fcf3766",
             time="c0db77f984f9e2313bcab245"),
        "5fef61c3ffcdf714d2d149d7", "gridcell-9b49867aada2b29f2bdb8443",
        "42f0b3031475a63df42392ac"),
    "for-program": (
        {"assemble": "102b0869b9074b70e9b21932",
         "profile": "b848bed1b38acfb96c14bfe0",
         "time_baseline": "a7425a25b571697bdf595c2b",
         "select": "552136d772ded126409c6628",
         "rewrite": "7f8b87b0ebd3766046ccbc16",
         "build_mgt": "1ab234c7bddc0e7644e5a661",
         "trace": "79bb45c899d1ebcfb4ebb2c6",
         "time": "06c811bdaac85eab9ba9f711"},
        "b2e8b8248ff8ddc471b4b677", "gridcell-59722b42636a7fed37d73e82",
        "9427920b51a5eca988069f0c"),
}


class _KeyRecordingStore(ArtifactStore):
    """A store noting every key it is asked to get or put (memory-only
    unless given a directory), and every get in order."""

    def __init__(self, cache_dir=None, version=PINNED_VERSION):
        super().__init__(cache_dir, version=version)
        self.keys = set()
        self.gets = []

    def get(self, key):
        self.keys.add(key)
        self.gets.append(key)
        return super().get(key)

    def put(self, key, value):
        self.keys.add(key)
        super().put(key, value)


class TestPinnedKeys:
    """Stores written by earlier builds keep serving only while every key
    derives the same bytes, so the bytes themselves are pinned."""

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_keys_match_their_pins(self, name):
        stages, spec_hash, row_key, machine_hash = PINNED_KEYS[name]
        spec = _pinned_spec(name)
        store = _KeyRecordingStore()
        Session(store=store, version=PINNED_VERSION).run(spec)
        assert dict(key.rsplit("-", 1) for key in store.keys) == stages
        assert len(store.keys) == len(stages)
        assert spec.spec_hash == spec_hash
        assert cell_key(spec, PINNED_VERSION) == row_key
        assert spec.resolved_machine.resolve().machine_hash == machine_hash

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_key_material_is_already_canonical(self, name, monkeypatch):
        # ``digest`` hashes material as given, which equals the canonical
        # key's hash only while the material is canonical already.
        materials = []

        def recording_digest(material):
            materials.append(material)
            return digest(material)

        monkeypatch.setattr(session_module, "digest", recording_digest)
        spec = _pinned_spec(name)
        Session(version=PINNED_VERSION).run(spec)
        assert {material[1] for material in materials} == \
            set(PINNED_KEYS[name][0])
        for material in materials + [spec._identity()]:
            assert canonical_key(material) == material
            assert repr(canonical_key(material)) == repr(material)


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

    def test_put_keeps_an_existing_entry(self, tmp_path):
        writer = self._store(tmp_path)
        writer.put("key", {"value": 1})
        writer.close()
        entry = tmp_path / f"v-{self.VERSION}" / "key.pkl"
        before = entry.stat()
        second = self._store(tmp_path)
        second.put("key", {"value": 1})
        after = entry.stat()
        assert (after.st_ino, after.st_mtime_ns) == \
            (before.st_ino, before.st_mtime_ns)
        assert list(entry.parent.glob("*.tmp")) == []
        assert second.stats.puts == 1
        assert self._store(tmp_path).get("key") == {"value": 1}
        # The put still marks the version directory live for pruners.
        other = ArtifactStore(tmp_path, version="other")
        other.put("mine", 2)
        assert other.prune() == (0, 0)
        second.close()

    def test_put_rewrites_an_entry_get_deleted(self, tmp_path):
        self._store(tmp_path).put("key", {"value": 1})
        entry = tmp_path / f"v-{self.VERSION}" / "key.pkl"
        entry.write_bytes(entry.read_bytes()[:-3])
        store = self._store(tmp_path)
        assert store.get("key") is MISS
        assert not entry.exists()
        store.put("key", {"value": 1})
        assert self._store(tmp_path).get("key") == {"value": 1}

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


# -- rows -------------------------------------------------------------------------


class TestRowReads:
    """A row is its two timing results: a warm cell reads the timing stages
    and the selection, never the program, profile, MGT, binary or traces."""

    def test_warm_rows_read_only_timing_and_selection(self, tmp_path):
        grids = [get_grid("mini").build(benchmarks=["bitcount", "crc"],
                                        budget=BUDGET),
                 get_grid("fig6").build(benchmarks=["bitcount"],
                                        budget=BUDGET)]
        # The spec `repro run bitcount` builds.
        spec = RunSpec(benchmark="bitcount", budget=BUDGET,
                       mgt_options=MgtBuildOptions(collapsing=False))

        def rows(session):
            return ([[row.as_dict() for row in session.run_grid(grid,
                                                                 workers=0)]
                     for grid in grids], cell_payload(session, spec))

        cold = rows(Session(cache_dir=tmp_path))
        store = _KeyRecordingStore(tmp_path, version=__version__)
        warm = Session(store=store)
        assert rows(warm) == cold
        assert warm.stats.simulations == 0
        stages = {key.rsplit("-", 1)[0] for key in store.gets}
        assert stages == {"time", "time_baseline", "select"}, stages

    def test_policy_and_baseline_cells_read_three_and_two_entries(
            self, tmp_path):
        spec = RunSpec(benchmark="crc", budget=BUDGET)
        for cell_spec, reads in ((spec, 3), (spec.baseline_only(), 2)):
            cell_payload(Session(cache_dir=tmp_path), cell_spec)
            store = _KeyRecordingStore(tmp_path, version=__version__)
            cell_payload(Session(store=store), cell_spec)
            assert len(store.gets) == reads, store.gets


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
        assert math.isnan(ipc_speedup(_stub_stats(1.0), PipelineStats()))
        assert ipc_speedup(_stub_stats(1.5), _stub_stats(1.0)) == 1.5


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

    @pytest.mark.parametrize("policy", ["int-mem", "baseline"])
    def test_run_prints_the_mini_grid_row(self, tmp_path, policy):
        result = _run_cli("--cache-dir", str(tmp_path), "--json", "run",
                          "bitcount", "--budget", str(BUDGET),
                          "--policy", policy)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        grid = get_grid("mini").build(benchmarks=["bitcount"], budget=BUDGET)
        (row,) = [row.as_dict() for row in Session().run_grid(grid, workers=0)
                  if row.labels["policy"] == policy]
        assert payload["spec"]["spec_hash"] == row["spec_hash"]
        for name in ("coverage", "baseline_ipc", "ipc", "speedup", "cycles",
                     "baseline_cycles", "templates"):
            assert payload[name] == row[name], name

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
