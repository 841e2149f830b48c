"""The experiment-grid engine: declaration, planning, sharding, resume, CLI."""

import json
import multiprocessing
import os
import pickle
import signal
import sys

import pytest

from repro.api import RunSpec, Session
from repro.grid import (
    Axis,
    GridError,
    GridSpec,
    cell_key,
    get_grid,
    grid_names,
    plan_grid,
)
from repro.minigraph.policies import DEFAULT_POLICY, INTEGER_POLICY
from repro.uarch import (
    integer_memory_minigraph_config,
    integer_minigraph_config,
    machine_config,
)
from repro.uarch.pipeline import TimingError
from repro.workloads import QUICK_BENCHMARKS

BUDGET = 1_500


def _two_axis_grid(benchmarks=("bitcount", "crc"), budget=BUDGET,
                   spec=RunSpec):
    axes = (Axis("benchmark", tuple(benchmarks)),
            Axis("policy", ("int-mem", "int", "baseline")))

    def build(point):
        policy = {"int-mem": DEFAULT_POLICY, "int": INTEGER_POLICY,
                  "baseline": None}[point["policy"]]
        return spec(benchmark=point["benchmark"], budget=budget,
                    policy=policy)

    return GridSpec(name="test-grid", axes=axes, build=build)


def _row_fingerprint(rows):
    """Order-normalized, bit-exact content of a row list."""
    return pickle.dumps([(row.index, sorted(row.labels.items()),
                          row.spec_hash, row.coverage, row.baseline_ipc,
                          row.ipc, row.speedup, row.cycles,
                          row.baseline_cycles, row.templates)
                         for row in sorted(rows, key=lambda row: row.index)])


#: Pid of the test process; the pool's workers fork from it.
_PARENT_PID = os.getpid()
#: The marker file :class:`_KillOnceSpec` claims; ``None`` disarms it.  Set
#: before a pool forks, so that its workers inherit it.
_KILL_ONCE_MARKER = None


class _KillOnceSpec(RunSpec):
    """A spec whose first baseline-only run in a pool worker SIGKILLs that
    worker, after it has sent the rows of its stage's earlier cells.

    The first worker to get there creates the marker file, exclusively, and
    kills itself; every later run finds the marker and runs normally.
    """

    @property
    def resolved_machine(self):
        if os.getpid() != _PARENT_PID and self.policy is None \
                and _KILL_ONCE_MARKER is not None:
            try:
                os.close(os.open(_KILL_ONCE_MARKER,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return super().resolved_machine


class _ErrorWithACode(Exception):
    """An exception that pickles but does not unpickle: its constructor
    takes an argument its ``args`` do not hold."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _RaisesInWorkersSpec(RunSpec):
    """A spec whose run in a pool worker raises :class:`_ErrorWithACode`."""

    @property
    def resolved_machine(self):
        if os.getpid() != _PARENT_PID:
            raise _ErrorWithACode(7, "no machine here")
        return super().resolved_machine


class TestGridSpec:
    def test_lazy_deterministic_expansion(self):
        grid = _two_axis_grid()
        cells = list(grid.cells())
        assert [cell.index for cell in cells] == list(range(6))
        assert cells[0].labels == {"benchmark": "bitcount", "policy": "int-mem"}
        assert cells[-1].labels == {"benchmark": "crc", "policy": "baseline"}

    def test_builder_none_excludes_the_point(self):
        base = _two_axis_grid()

        def build(point):
            if point["policy"] == "baseline":
                return None
            return base.build(point)

        grid = GridSpec(name="g", axes=base.axes, build=build)
        assert all(cell.labels["policy"] != "baseline"
                   for cell in grid.cells())
        # Indices stay dense over the included cells.
        assert [cell.index for cell in grid.cells()] == list(range(4))

    def test_malformed_grids_are_rejected(self):
        with pytest.raises(GridError, match="no values"):
            Axis("benchmark", ())
        with pytest.raises(GridError, match="duplicate values"):
            Axis("benchmark", ("a", "a"))
        with pytest.raises(GridError, match="no axes"):
            GridSpec(name="g", axes=(), build=lambda point: None)
        with pytest.raises(GridError, match="duplicate axis"):
            GridSpec(name="g", axes=(Axis("a", (1,)), Axis("a", (2,))),
                     build=lambda point: None)


class TestPlanner:
    def test_stages_group_cells_by_profile(self):
        plan = plan_grid(_two_axis_grid())
        # One stage per benchmark: its three policy cells (baseline
        # included) share one profile and run in cell order.
        assert [[cell.index for cell in stage] for stage in plan.stages] == \
            [[0, 1, 2], [3, 4, 5]]
        for stage in plan.stages:
            assert len({cell.spec.stage_material("profile")
                        for cell in stage}) == 1

    def test_plan_preserves_cell_order_within_stage_sorting(self):
        plan = plan_grid(_two_axis_grid())
        assert sorted(cell.index for cell in plan.cells()) == list(range(6))

    def test_shards_partition_the_stages(self):
        plan = plan_grid(_two_axis_grid(("bitcount", "crc", "frag")))
        shard0 = plan.take_shard(0, 2)
        shard1 = plan.take_shard(1, 2)
        indices0 = {cell.index for cell in shard0.cells()}
        indices1 = {cell.index for cell in shard1.cells()}
        assert indices0 | indices1 == {cell.index for cell in plan.cells()}
        assert not indices0 & indices1
        assert (shard0.shard, shard1.shard) == ((0, 2), (1, 2))

    def test_shard_bounds_are_validated(self):
        plan = plan_grid(_two_axis_grid())
        with pytest.raises(GridError, match="out of range"):
            plan.take_shard(2, 2)
        with pytest.raises(GridError, match="positive"):
            plan.take_shard(0, 0)


class TestEngine:
    def test_rows_match_direct_session_runs(self):
        grid = _two_axis_grid()
        session = Session()
        rows = list(session.run_grid(grid, workers=0))
        assert [row.index for row in rows] == list(range(6))
        reference = Session()
        for row, cell in zip(rows, grid.cells()):
            artifacts = reference.run(cell.spec)
            assert row.ipc == artifacts.timing.ipc
            assert row.baseline_ipc == artifacts.baseline_timing.ipc
            assert row.coverage == artifacts.coverage
            assert row.spec_hash == cell.spec.spec_hash
            assert not row.resumed

    def test_resume_serves_every_stored_row(self):
        grid = _two_axis_grid()
        session = Session()
        first = list(session.run_grid(grid, workers=0))
        simulations = session.stats.simulations
        second = list(session.run_grid(grid, resume=True, workers=0))
        assert all(row.resumed for row in second)
        assert session.stats.simulations == simulations  # no new work
        assert _row_fingerprint(first) == _row_fingerprint(second)

    def test_without_resume_rows_are_recomputed_from_stage_cache(self):
        session = Session()
        grid = _two_axis_grid(("bitcount",))
        list(session.run_grid(grid, workers=0))
        rows = list(session.run_grid(grid, workers=0))
        # Stage artifacts hit the store, but rows are rebuilt (not resumed).
        assert all(not row.resumed for row in rows)

    def test_sharded_union_with_resume_equals_unsharded(self, tmp_path):
        grid = _two_axis_grid(("bitcount", "crc", "frag"))
        full = list(Session(cache_dir=tmp_path / "full")
                    .run_grid(grid, workers=0))
        shard_dir = tmp_path / "sharded"
        rows0 = list(Session(cache_dir=shard_dir)
                     .run_grid(grid, shard=(0, 2), workers=0))
        rows1 = list(Session(cache_dir=shard_dir)
                     .run_grid(grid, shard=(1, 2), workers=0))
        union = list(Session(cache_dir=shard_dir)
                     .run_grid(grid, resume=True, workers=0))
        assert all(row.resumed for row in union)
        assert _row_fingerprint(rows0 + rows1) == _row_fingerprint(full)
        assert _row_fingerprint(union) == _row_fingerprint(full)

    def test_pool_execution_matches_serial(self, tmp_path):
        grid = _two_axis_grid(("bitcount", "crc"))
        serial = list(Session().run_grid(grid, workers=0))
        parallel_session = Session(cache_dir=tmp_path)
        parallel = list(parallel_session.run_grid(grid, workers=2))
        assert _row_fingerprint(serial) == _row_fingerprint(parallel)
        # Worker accounting merged back into the parent session, and each
        # benchmark's stage shared its artifacts inside one worker: one
        # profile plus one rewritten trace per selection policy (int-mem,
        # int) per benchmark.
        assert parallel_session.stats.functional_runs == 6
        # The workers filled the shared disk cache: a fresh session reruns
        # the grid without resume on stored stage artifacts alone.
        warm = Session(cache_dir=tmp_path)
        assert _row_fingerprint(list(warm.run_grid(grid, workers=0))) \
            == _row_fingerprint(serial)
        assert warm.stats.simulations == 0

    def test_a_killed_worker_leaves_the_rows_unchanged(self, tmp_path,
                                                       monkeypatch):
        """A pool worker SIGKILLed mid-stage: the stage is retried once on a
        fresh worker, and the rows equal a serial run's."""
        marker = tmp_path / "killed-a-worker"
        monkeypatch.setattr(sys.modules[__name__], "_KILL_ONCE_MARKER",
                            str(marker))
        grid = _two_axis_grid(("bitcount", "crc"), spec=_KillOnceSpec)
        serial = list(Session().run_grid(grid, workers=0))
        pooled = list(Session(cache_dir=tmp_path / "cache")
                      .run_grid(grid, workers=2))
        assert marker.exists()
        assert [row.as_dict() for row in pooled] == \
            [row.as_dict() for row in serial]
        assert multiprocessing.active_children() == []

    def test_more_workers_than_cores_store_each_row_once(self):
        """Six workers on a memory-only session, switching threads often:
        the pool stores every row in the caller's store, once, so the rows
        and the store's puts equal a serial run's and a resume serves
        every cell."""
        grid = GridSpec(name="wide", axes=(Axis("benchmark", (
            "bitcount", "crc", "sha", "dijkstra", "drr", "fnvmix")),),
            build=lambda point: RunSpec(benchmark=point["benchmark"],
                                        budget=BUDGET))
        serial = Session()
        expected = [row.as_dict() for row in serial.run_grid(grid, workers=0)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            session = Session()
            pooled = [row.as_dict() for row in session.run_grid(grid,
                                                                workers=6)]
        finally:
            sys.setswitchinterval(interval)
        assert pooled == expected
        assert session.cache_stats.puts == serial.cache_stats.puts
        assert all(row.resumed
                   for row in session.run_grid(grid, resume=True, workers=0))
        assert multiprocessing.active_children() == []

    def test_a_half_stored_grid_resumes_alike_on_two_workers(self, tmp_path):
        """Shard 0 of 2 stored, then the whole grid resumed: two workers
        stream the serial resume's rows, order and ``resumed`` flags, and
        leave the same session and cache counters."""
        grid = get_grid("fig6").build(
            benchmarks=("bitcount", "crc", "sha", "frag"), budget=BUDGET)
        runs = []
        for workers in (0, 2):
            cache_dir = tmp_path / f"workers-{workers}"
            list(Session(cache_dir=cache_dir).run_grid(grid, shard=(0, 2),
                                                       workers=0))
            session = Session(cache_dir=cache_dir)
            rows = [row.as_dict() for row in
                    session.run_grid(grid, resume=True, workers=workers)]
            # Wall times, and the counters of the process-wide block memo
            # the workers fork with, depend on what ran before.
            counts = {name: value for name, value in
                      session.stats.as_dict().items()
                      if not name.endswith("_seconds") and "_memo_" not in name}
            runs.append((rows, counts, session.cache_stats.as_dict()))
        assert runs[0] == runs[1]
        rows, stats, cache = runs[0]
        resumed = sum(row["resumed"] for row in rows)
        assert resumed == len(rows) // 2 and stats["timing_runs"] > 0
        assert cache["disk_hits"] == resumed     # the stored rows
        assert multiprocessing.active_children() == []

    def test_a_stage_that_raises_in_a_worker_raises_as_in_serial(self):
        """A cell whose machine cannot run its mini-graphs raises the same
        exception, with the same message, in a pool worker as in serial."""
        def build(point):
            if point["benchmark"] == "gsm.toast":
                return RunSpec(benchmark="gsm.toast", budget=2_000,
                               machine=integer_minigraph_config())
            return RunSpec(benchmark=point["benchmark"], budget=BUDGET)

        grid = GridSpec(name="raises", build=build, axes=(
            Axis("benchmark", ("bitcount", "gsm.toast")),))
        raised = []
        for workers in (0, 2):
            with pytest.raises(Exception) as excinfo:
                list(Session().run_grid(grid, workers=workers))
            raised.append((type(excinfo.value), str(excinfo.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] is TimingError
        assert "sliding-window scheduler" in raised[0][1]
        assert multiprocessing.active_children() == []

    def test_an_error_that_cannot_cross_processes_arrives_as_its_text(self):
        """A worker's exception that cannot be unpickled ends the run as a
        ``RuntimeError`` with its text, instead of stalling it."""
        grid = _two_axis_grid(("bitcount", "crc"), spec=_RaisesInWorkersSpec)
        with pytest.raises(RuntimeError,
                           match="^_ErrorWithACode: no machine here$"):
            list(Session().run_grid(grid, workers=2))
        assert multiprocessing.active_children() == []

    def test_duplicate_geometry_cells_resume_with_their_own_labels(self):
        """Cells with identical run identity but different machine display
        names share one row artifact; resumed rows must still carry the
        cell's own names, bit-identical to the fresh run."""
        fig8 = get_grid("fig8").build(benchmarks=("bitcount",), budget=BUDGET)
        grid = GridSpec(name="fig8", build=fig8.build,
                        axes=(Axis("benchmark", ("bitcount",)),
                              Axis("variant", ("prf164", "6-wide")),
                              Axis("mode", ("baseline",))))
        session = Session()
        fresh = list(session.run_grid(grid, workers=0))
        resumed = list(session.run_grid(grid, resume=True, workers=0))
        assert [row.machine for row in fresh] == \
            ["baseline-6wide-prf164", "baseline-6wide"]
        for before, after in zip(fresh, resumed):
            assert after.resumed
            assert before.as_dict() | {"resumed": True} == after.as_dict()

    @pytest.mark.parametrize("stored", [
        {"ipc": 1.0}, None, [1, 2],
        {name: 0 for name in ("coverage", "baseline_ipc", "ipc", "speedup",
                              "cycles", "baseline_cycles", "templates",
                              "extra")}])
    def test_a_stored_row_of_the_wrong_shape_is_a_miss(self, tmp_path,
                                                       stored):
        """A damaged row artifact runs its cell again instead of crashing
        the resume probe (``repro grid --resume``, the daemon's submit),
        and the probe drops it, so the recomputed row heals the store."""
        grid = _two_axis_grid(("bitcount",))
        expected = list(Session().run_grid(grid, workers=0))
        session = Session(cache_dir=tmp_path)
        first = next(iter(grid.cells()))
        session.store.put(cell_key(first.spec, session.version), stored)
        rows = list(session.run_grid(grid, resume=True, workers=0))
        assert [row.resumed for row in rows] == [False, False, False]
        assert _row_fingerprint(rows) == _row_fingerprint(expected)
        # A put keeps an existing entry, so only because the probe dropped
        # the bad one does a fresh resume serve every cell, twice over.
        for _ in range(2):
            again = list(Session(cache_dir=tmp_path)
                         .run_grid(grid, resume=True, workers=0))
            assert [row.resumed for row in again] == [True, True, True]
            assert _row_fingerprint(again) == _row_fingerprint(expected)

    def test_cell_keys_are_version_scoped(self):
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        assert cell_key(spec, "1") != cell_key(spec, "2")
        assert cell_key(spec, "1") == cell_key(spec, "1")

    def test_row_as_dict_is_json_clean(self):
        session = Session()
        grid = _two_axis_grid(("bitcount",))
        row = next(iter(session.run_grid(grid, workers=0)))
        data = json.loads(json.dumps(row.as_dict()))
        assert data["benchmark"] == "bitcount"
        assert data["point"]["policy"] == "int-mem"
        assert data["machine_hash"]


class TestCatalog:
    def test_builtin_grids_are_registered(self):
        assert set(grid_names()) == {"mini", "fig6", "fig7", "fig8", "icache"}

    @pytest.mark.parametrize("name", grid_names())
    def test_grid_resumes_to_identical_rows_and_report(self, name):
        definition = get_grid(name)
        grid = definition.build(benchmarks=("mcf",), budget=2_000)
        session = Session()
        fresh = list(session.run_grid(grid, workers=0))
        resumed = list(session.run_grid(grid, resume=True, workers=0))
        assert fresh and all(row.resumed for row in resumed)
        assert [row.as_dict() | {"resumed": True} for row in fresh] == \
            [row.as_dict() for row in resumed]
        assert definition.report(fresh)[0] == definition.report(resumed)[0]

    def test_unknown_grid_is_actionable(self):
        with pytest.raises(GridError, match="unknown grid"):
            get_grid("fig99")

    def test_fig6_grid_cells_carry_figure_machines(self):
        definition = get_grid("fig6")
        grid = definition.build(benchmarks=("bitcount",), budget=BUDGET)
        cells = list(grid.cells())
        assert [cell.labels["config"] for cell in cells] == \
            ["int", "int+collapse", "int-mem", "int-mem+collapse"]
        machines = [cell.spec.resolved_machine for cell in cells]
        # The config names are machine catalog names, and the catalog
        # returns the shared paper-default objects.
        assert machines == [machine_config(cell.labels["config"])
                            for cell in cells]
        assert machines[3] is integer_memory_minigraph_config(collapsing=True)
        assert machines[0].alu_pipelines == 2
        assert machines[1].collapsing_alu_pipelines
        assert machines[2].sliding_window_scheduler
        baselines = {cell.spec.resolved_baseline_machine.machine_key
                     for cell in cells}
        assert len(baselines) == 1  # one shared reference machine shape

    def test_fig6_machine_variants_share_each_policys_trace(self):
        # A rewritten run reads the selection's templates, not the MGT
        # build options, so a kernel's plain and collapsing cells share one
        # trace: one profile per kernel plus one trace per policy.
        kernels = QUICK_BENCHMARKS[:4]
        grid = get_grid("fig6").build(benchmarks=kernels, budget=2_000)
        session = Session()
        rows = list(session.run_grid(grid, workers=0))
        assert len(rows) == 4 * len(kernels)
        assert session.stats.functional_runs == 4 + 8

    def test_fig8_grid_panels_split_by_variant(self):
        definition = get_grid("fig8")
        grid = definition.build(benchmarks=("bitcount",), budget=BUDGET)
        (axis,) = [axis for axis in grid.axes if axis.name == "variant"]
        variants = list(axis.values)
        assert variants[:4] == ["prf164", "prf144", "prf124", "prf104"] or \
            tuple(variants[:4]) == ("prf164", "prf144", "prf124", "prf104")
        assert "2-cycle-sched" in variants


class TestCli:
    def test_grid_list(self, capsys):
        from repro.api.cli import main
        assert main(["grid", "--list"]) == 0
        out = capsys.readouterr().out
        assert "mini" in out and "fig6" in out

    def test_grid_requires_a_name(self, capsys):
        from repro.api.cli import main
        assert main(["grid"]) == 2

    def test_grid_rejects_bad_shard(self, capsys):
        from repro.api.cli import main
        assert main(["--no-disk-cache", "grid", "--name", "mini",
                     "--shard", "nope"]) == 2
        assert "--shard expects" in capsys.readouterr().err

    def test_mini_grid_end_to_end_with_jsonl_and_resume(self, tmp_path, capsys):
        from repro.api.cli import main
        cache = str(tmp_path / "cache")
        output = str(tmp_path / "rows.jsonl")
        base = ["--cache-dir", cache, "--json", "grid", "--name", "mini",
                "--budget", str(BUDGET), "--workers", "0",
                "--output", output, "--resume"]
        assert main(base) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cells"] == 4 and first["resumed"] == 0
        with open(output, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) == 4
        assert lines[0]["point"] == {"benchmark": "bitcount",
                                     "policy": "int-mem"}
        # Second pass: 100% served from the row artifacts.
        assert main(base) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["executed"] == 0
        assert second["resumed"] == second["cells"] == 4

    def test_grid_shard_runs_subset(self, tmp_path, capsys):
        from repro.api.cli import main
        assert main(["--cache-dir", str(tmp_path), "--json", "grid",
                     "--name", "mini", "--budget", str(BUDGET),
                     "--workers", "0", "--shard", "0/2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"] == {"cells": 2, "stages": 1, "shard": "0/2"}
        assert payload["cells"] == 2

    def test_cache_prune_evicts_stale_versions(self, tmp_path, capsys):
        from repro.api.cli import main
        from repro.api.store import ArtifactStore
        stale = ArtifactStore(tmp_path, version="0.0.0-old")
        stale.put("gridcell-dead", {"ipc": 1.0})
        stale.close()   # the old-version process exited
        live = ArtifactStore(tmp_path, version=_current_version())
        live.put("gridcell-live", {"ipc": 2.0})
        assert main(["--cache-dir", str(tmp_path), "--json",
                     "cache", "prune"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pruned"] == 1
        reader = ArtifactStore(tmp_path, version=_current_version())
        assert reader.get("gridcell-live") == {"ipc": 2.0}
        info = reader.info()
        assert info.stale_entries == 0 and info.disk_entries == 1

    def test_cache_info_reports_stale_breakdown(self, tmp_path, capsys):
        from repro.api.cli import main
        from repro.api.store import ArtifactStore
        ArtifactStore(tmp_path, version="0.0.0-old").put("k", 1)
        assert main(["--cache-dir", str(tmp_path), "--json",
                     "cache", "info"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stale_entries"] == 1
        assert payload["version"] == _current_version()


def _current_version():
    import repro
    return repro.__version__
