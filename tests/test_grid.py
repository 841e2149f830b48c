"""The experiment-grid engine: declaration, planning, sharding, resume, CLI."""

import json
import pickle

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

BUDGET = 1_500


def _two_axis_grid(benchmarks=("bitcount", "crc"), budget=BUDGET,
                   exclude=()):
    axes = (Axis("benchmark", tuple(benchmarks)),
            Axis("policy", ("int-mem", "int", "baseline")))

    def build(point):
        policy = {"int-mem": DEFAULT_POLICY, "int": INTEGER_POLICY,
                  "baseline": None}[point["policy"]]
        return RunSpec(benchmark=point["benchmark"], budget=budget,
                       policy=policy)

    return GridSpec(name="test-grid", axes=axes, build=build,
                    exclude=tuple(exclude))


def _row_fingerprint(rows):
    """Order-normalized, bit-exact content of a row list."""
    return pickle.dumps([(row.index, sorted(row.labels.items()),
                          row.spec_hash, row.coverage, row.baseline_ipc,
                          row.ipc, row.speedup, row.cycles,
                          row.baseline_cycles, row.templates)
                         for row in sorted(rows, key=lambda row: row.index)])


class TestGridSpec:
    def test_lazy_deterministic_expansion(self):
        grid = _two_axis_grid()
        cells = list(grid.cells())
        assert [cell.index for cell in cells] == list(range(6))
        assert cells[0].labels == {"benchmark": "bitcount", "policy": "int-mem"}
        assert cells[-1].labels == {"benchmark": "crc", "policy": "baseline"}
        assert grid.shape == (2, 3) and grid.point_count == 6

    def test_exclude_predicates_drop_points(self):
        grid = _two_axis_grid(
            exclude=[lambda point: point["policy"] == "int"])
        labels = [cell.labels["policy"] for cell in grid.cells()]
        assert "int" not in labels and len(labels) == 4
        # Indices stay dense over the included cells.
        assert [cell.index for cell in grid.cells()] == list(range(4))

    def test_builder_none_excludes_the_point(self):
        base = _two_axis_grid()

        def build(point):
            if point["policy"] == "baseline":
                return None
            return base.build(point)

        grid = GridSpec(name="g", axes=base.axes, build=build)
        assert all(cell.labels["policy"] != "baseline"
                   for cell in grid.cells())

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
    def test_stage_and_compile_grouping(self):
        plan = plan_grid(_two_axis_grid())
        # One stage per benchmark, one front-end compile per real policy.
        assert plan.stage_count == 2
        assert plan.cell_count == 6
        assert plan.frontend_compiles == 4  # 2 benchmarks x 2 policies
        assert plan.dedup_ratio == pytest.approx(3.0)
        for stage in plan.stages:
            # Baseline cells ride the stage without a compile group of work.
            policies = [group.policy_key for group in stage.groups]
            assert policies.count(None) == 1

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
        assert shard0.describe()["shard"] == "0/2"

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
        assert machines[0].alu_pipelines == 2
        assert machines[1].collapsing_alu_pipelines
        assert machines[2].sliding_window_scheduler
        baselines = {cell.spec.resolved_baseline_machine.resolve()
                     for cell in cells}
        assert len(baselines) == 1  # one shared reference machine shape

    def test_fig8_grid_panels_split_by_variant(self):
        definition = get_grid("fig8")
        grid = definition.build(benchmarks=("bitcount",), budget=BUDGET)
        variants = [value for value in grid.axis("variant").values]
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
        lines = [json.loads(line) for line in
                 open(output, encoding="utf-8")]
        assert len(lines) == 4
        assert lines[0]["point"] == {"benchmark": "bitcount",
                                     "policy": "int-mem"}
        # Second pass: 100% served from the row artifacts.
        assert main(base) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["executed"] == 0
        assert second["resumed"] == second["cells"] == 4

    def test_grid_csv_output(self, tmp_path, capsys):
        import csv
        from repro.api.cli import main
        output = str(tmp_path / "rows.csv")
        assert main(["--no-disk-cache", "grid", "--name", "mini",
                     "--budget", str(BUDGET), "--workers", "0",
                     "--benchmarks", "bitcount",
                     "--output", output, "--no-table"]) == 0
        capsys.readouterr()
        with open(output, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["benchmark"] == "bitcount"
        assert rows[0]["policy"] == "int-mem"

    def test_grid_shard_runs_subset(self, tmp_path, capsys):
        from repro.api.cli import main
        assert main(["--cache-dir", str(tmp_path), "--json", "grid",
                     "--name", "mini", "--budget", str(BUDGET),
                     "--workers", "0", "--shard", "0/2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["shard"] == "0/2"
        assert payload["cells"] == 2

    def test_cache_prune_evicts_stale_versions(self, tmp_path, capsys):
        from repro.api.cli import main
        from repro.api.store import ArtifactStore
        stale = ArtifactStore(tmp_path, version="0.0.0-old")
        stale.put("gridcell-dead", {"ipc": 1.0})
        stale.close()   # the old-version process exited; its lock is gone
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
