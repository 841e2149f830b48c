"""Machine catalog and machine keys.

Pins the named Figure 6/8 configurations to the paper's Section 6
parameters, exercises construction-time geometry validation, and checks
that canonical machine keys are stable across processes (pool round-trip)
and independent of display names.
"""

import dataclasses
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.uarch import (
    CacheConfig,
    ConfigError,
    MachineConfig,
    baseline_config,
    integer_memory_minigraph_config,
    integer_minigraph_config,
    machine_config,
    machine_names,
)


class TestBaselineParameters:
    """The catalog baseline is the paper's Section 6 processor, exactly."""

    def test_section6_baseline(self):
        config = machine_config("baseline")
        assert config == baseline_config()
        assert (config.fetch_width, config.rename_width,
                config.issue_width, config.retire_width) == (6, 6, 6, 6)
        assert config.rob_size == 128
        assert config.issue_queue_size == 50
        assert config.lsq_size == 64
        assert config.physical_registers == 164
        assert config.architected_registers == 64
        assert config.in_flight_registers == 100
        assert (config.int_alu_units, config.fp_units,
                config.load_ports, config.store_ports) == (4, 2, 2, 1)
        assert config.scheduler_latency == 1
        assert config.alu_pipelines == 0
        assert not config.sliding_window_scheduler
        assert config.icache == CacheConfig(32 * 1024, 2, 32, 1)
        assert config.dcache == CacheConfig(32 * 1024, 2, 32, 2)
        assert config.l2cache == CacheConfig(2 * 1024 * 1024, 4, 128, 10)
        assert config.memory_latency == 100


class TestFigure6Machines:
    def test_int_replaces_two_alus_with_pipelines(self):
        config = machine_config("int")
        assert config == integer_minigraph_config()
        assert config.alu_pipelines == 2
        assert config.alu_pipeline_depth == 4
        assert config.plain_alu_units == 2
        assert not config.collapsing_alu_pipelines
        assert not config.sliding_window_scheduler

    def test_collapse_variants_only_add_collapsing(self):
        for base_name in ("int", "int-mem"):
            base = machine_config(base_name)
            collapsed = machine_config(f"{base_name}+collapse")
            assert collapsed.collapsing_alu_pipelines
            assert dataclasses.replace(
                collapsed, collapsing_alu_pipelines=False,
                name=base.name) == base

    def test_int_mem_adds_the_sliding_window(self):
        config = machine_config("int-mem")
        assert config == integer_memory_minigraph_config()
        assert config.sliding_window_scheduler
        assert config.alu_pipelines == 2


class TestFigure8Machines:
    def test_register_file_variants(self):
        for registers in (164, 144, 124, 104):
            config = machine_config(f"prf{registers}")
            assert config.physical_registers == registers
            assert config.architected_registers == 64
            # Only the register file (and the name) may differ.
            assert dataclasses.replace(
                config, physical_registers=164,
                name="baseline-6wide") == baseline_config()

    def test_bandwidth_variants(self):
        assert machine_config("6-wide") == baseline_config()
        narrow = machine_config("4-wide")
        assert (narrow.fetch_width, narrow.rename_width,
                narrow.retire_width) == (4, 4, 4)
        assert narrow.issue_width == 4
        assert narrow.int_alu_units == 2 and narrow.load_ports == 1
        wide_exec = machine_config("4-wide+6-exec")
        assert wide_exec.fetch_width == 4 and wide_exec.issue_width == 6
        assert wide_exec.int_alu_units == 4 and wide_exec.load_ports == 2
        sched = machine_config("2-cycle-sched")
        assert sched.scheduler_latency == 2
        assert dataclasses.replace(
            sched, scheduler_latency=1, name="baseline-6wide") == baseline_config()

    def test_catalog_listing_covers_the_figures(self):
        names = machine_names()
        assert names[0] == "baseline"
        assert {"int", "int+collapse", "int-mem", "int-mem+collapse"} <= set(names)
        assert {"prf164", "prf144", "prf124", "prf104"} <= set(names)
        assert {"6-wide", "4-wide", "4-wide+6-exec", "2-cycle-sched"} <= set(names)
        assert len(names) == 13

    def test_unknown_machine_is_actionable(self):
        with pytest.raises(ConfigError, match="unknown machine"):
            machine_config("9-wide")


class TestValidation:
    def test_cache_rejects_non_positive_dimensions(self):
        with pytest.raises(ConfigError, match="size_bytes"):
            CacheConfig(0, 2, 32, 1)
        with pytest.raises(ConfigError, match="associativity"):
            CacheConfig(1024, -1, 32, 1)

    def test_cache_rejects_non_power_of_two_set_counts(self):
        with pytest.raises(ConfigError, match="not a power of two"):
            CacheConfig(24 * 1024, 2, 32, 1)  # 384 sets

    def test_cache_rejects_ragged_capacity(self):
        with pytest.raises(ConfigError, match="multiple of"):
            CacheConfig(1000, 2, 32, 1)

    def test_machine_rejects_non_positive_widths(self):
        with pytest.raises(ConfigError, match="issue_width"):
            MachineConfig(issue_width=0)
        with pytest.raises(ConfigError, match="rob_size"):
            MachineConfig(rob_size=-1)

    def test_machine_rejects_register_file_underflow(self):
        with pytest.raises(ConfigError, match="physical_registers"):
            MachineConfig(physical_registers=64)

    def test_machine_rejects_pipelines_exceeding_alus(self):
        with pytest.raises(ConfigError, match="alu_pipelines"):
            MachineConfig(alu_pipelines=5)

    def test_machine_rejects_unsustainable_issue_width(self):
        with pytest.raises(ConfigError, match="unit mix"):
            MachineConfig(issue_width=6, int_alu_units=1, fp_units=1,
                          load_ports=1, store_ports=1, alu_pipelines=0)

    def test_every_catalog_entry_is_valid(self):
        for name in machine_names():
            machine_config(name).machine_hash  # construction validates


class TestMachineSpec:
    """A machine's ``machine_key``: its name-free shape, tagged
    ``"MachineSpec"``, and the ``machine_hash`` of that key."""

    def test_name_does_not_change_the_key(self):
        config = baseline_config()
        renamed = config.with_name("anything-else")
        assert config.machine_key == renamed.machine_key
        assert config.machine_hash == renamed.machine_hash

    def test_geometry_changes_the_key(self):
        config = baseline_config()
        for name in ("prf144", "2-cycle-sched"):
            assert config.machine_key != machine_config(name).machine_key

    def test_derived_fields_are_normalized_in(self):
        key = machine_config("int").machine_key
        assert key[0] == "MachineSpec"
        assert dict(key[1:])["plain_alu_units"] == 2
        assert dict(key[1:])["in_flight_registers"] == 100

    def test_paper_default_machines_are_shared(self):
        assert baseline_config() is baseline_config()
        assert integer_minigraph_config(collapsing=True) is \
            integer_minigraph_config(collapsing=True)
        assert integer_memory_minigraph_config() is \
            integer_memory_minigraph_config()
        assert baseline_config().machine_key is baseline_config().machine_key
        wider = dataclasses.replace(baseline_config(), rob_size=256)
        assert wider is not baseline_config()
        assert baseline_config().rob_size == 128
        assert dict(wider.machine_key[1:])["rob_size"] == 256
        assert wider.machine_key != baseline_config().machine_key

    def test_spec_round_trips_pickle(self):
        config = machine_config("int-mem")
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.machine_key == config.machine_key
        assert clone.machine_hash == config.machine_hash

    def test_keys_are_stable_across_processes(self):
        """One worker process must derive the exact same hashes (the grid
        engine's cache keys cross the pool boundary)."""
        names = machine_names()
        local = [machine_config(name).machine_hash for name in names]
        try:
            with ProcessPoolExecutor(max_workers=1) as pool:
                remote = pool.submit(_catalog_hashes).result()
        except (OSError, PermissionError):
            pytest.skip("process pools unavailable in this environment")
        assert remote == list(zip(names, local))


def _catalog_hashes():
    """Pool worker: (name, machine_hash) for every catalog machine."""
    return [(name, machine_config(name).machine_hash)
            for name in machine_names()]
