"""Tests for the timing-model building blocks: predictor, BTB, caches,
store sets, functional-unit pool and machine configurations."""

import pytest

from repro.minigraph.mgt import FU_ALU, FU_ALU_PIPELINE, FU_LOAD
from repro.uarch import (
    BranchTargetBuffer,
    Cache,
    FrontEndPredictor,
    FunctionalUnitPool,
    HybridBranchPredictor,
    MemoryHierarchy,
    StoreSetPredictor,
    baseline_config,
    integer_memory_minigraph_config,
    integer_minigraph_config,
)
from repro.uarch.config import CacheConfig


class TestBranchPredictor:
    def test_learns_always_taken(self):
        predictor = HybridBranchPredictor(entries=256)
        pc = 0x1000
        for _ in range(8):
            predicted = predictor.predict(pc)
            predictor.update(pc, True, predicted)
        assert predictor.predict(pc) is True

    def test_learns_alternating_pattern_with_history(self):
        predictor = HybridBranchPredictor(entries=256, history_bits=8)
        pc = 0x2000
        outcomes = [True, False] * 64
        mispredictions = 0
        for taken in outcomes:
            predicted = predictor.predict(pc)
            if predicted != taken:
                mispredictions += 1
            predictor.update(pc, taken, predicted)
        # The gshare component should capture the alternation eventually.
        assert mispredictions < len(outcomes) // 2

    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HybridBranchPredictor(entries=100)

    def test_stats_track_mispredictions(self):
        predictor = HybridBranchPredictor(entries=64)
        predicted = predictor.predict(0x4)
        predictor.update(0x4, not predicted, predicted)
        assert predictor.stats.direction_mispredictions == 1


class TestBtb:
    def test_hit_after_install(self):
        btb = BranchTargetBuffer(entries=64, associativity=4)
        btb.update(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000

    def test_miss_returns_none(self):
        btb = BranchTargetBuffer(entries=64, associativity=4)
        assert btb.lookup(0x1234) is None

    def test_lru_eviction_within_set(self):
        btb = BranchTargetBuffer(entries=8, associativity=2)
        # These PCs map to the same set (4 sets -> stride 16 bytes).
        conflicting = [0x1000, 0x1010, 0x1020]
        for pc in conflicting:
            btb.update(pc, pc + 4)
        assert btb.lookup(0x1000) is None      # evicted
        assert btb.lookup(0x1020) == 0x1024    # most recent survives

    def test_front_end_predictor_requires_btb_target_for_taken(self):
        frontend = FrontEndPredictor(predictor_entries=64, btb_entries=64)
        # Train direction to taken but never install a target.
        for _ in range(4):
            frontend.direction.update(0x100, True, True)
        prediction = frontend.predict(0x100, is_conditional=True)
        assert prediction.taken is False


class TestCaches:
    def test_first_access_misses_then_hits(self):
        cache = Cache(CacheConfig(1024, 2, 32, 1))
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True
        assert cache.stats.misses == 1
        assert cache.stats.accesses == 2

    def test_same_line_shares_entry(self):
        cache = Cache(CacheConfig(1024, 2, 32, 1))
        cache.access(0x1000)
        assert cache.access(0x101F) is True   # same 32-byte line
        assert cache.access(0x1020) is False  # next line

    def test_lru_within_set(self):
        # 2 sets, 1-way: addresses 0 and 64 map to set 0 and conflict.
        cache = Cache(CacheConfig(64, 1, 32, 1))
        cache.access(0)
        cache.access(64)
        assert cache.probe(0) is False
        assert cache.probe(64) is True

    def test_hierarchy_latencies(self):
        hierarchy = MemoryHierarchy(baseline_config())
        config = baseline_config()
        cold = hierarchy.data_latency(0x5000)
        warm = hierarchy.data_latency(0x5000)
        assert cold == (config.dcache.hit_latency + config.l2cache.hit_latency
                        + config.memory_latency)
        assert warm == config.dcache.hit_latency

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = MemoryHierarchy(baseline_config())
        config = baseline_config()
        hierarchy.data_latency(0x9000)
        # Evict 0x9000 from the 2-way L1 by touching a few lines that map to
        # the same L1 set (16KB apart); far too few to disturb the 2MB L2.
        l1_conflict_stride = config.dcache.line_bytes * config.dcache.num_sets
        for i in range(1, 9):
            hierarchy.data_latency(0x9000 + i * l1_conflict_stride)
        latency = hierarchy.data_latency(0x9000)
        assert latency == config.dcache.hit_latency + config.l2cache.hit_latency


class TestStoreSets:
    def test_no_prediction_before_training(self):
        predictor = StoreSetPredictor()
        assert predictor.predicted_store_for(0x100) is None

    def test_violation_training_creates_dependence(self):
        predictor = StoreSetPredictor()
        predictor.train_violation(load_pc=0x100, store_pc=0x200)
        predictor.store_dispatched(0x200, sequence=7)
        assert predictor.predicted_store_for(0x100) == 7

    def test_store_completion_clears_dependence(self):
        predictor = StoreSetPredictor()
        predictor.train_violation(load_pc=0x100, store_pc=0x200)
        predictor.store_dispatched(0x200, sequence=7)
        predictor.store_completed(0x200, sequence=7)
        assert predictor.predicted_store_for(0x100) is None

    def test_merging_sets(self):
        predictor = StoreSetPredictor()
        predictor.train_violation(0x100, 0x200)
        predictor.train_violation(0x300, 0x200)
        predictor.store_dispatched(0x200, sequence=3)
        assert predictor.predicted_store_for(0x100) == 3
        assert predictor.predicted_store_for(0x300) == 3


class TestFunctionalUnits:
    def test_baseline_integer_bandwidth(self):
        pool = FunctionalUnitPool(baseline_config())
        pool.begin_cycle(0)
        issued = sum(1 for _ in range(10) if pool.take_int())
        assert issued == baseline_config().int_alu_units

    def test_load_and_store_ports(self):
        pool = FunctionalUnitPool(baseline_config())
        pool.begin_cycle(0)
        assert pool.take_load() and pool.take_load()
        assert not pool.take_load()
        assert pool.take_store()
        assert not pool.take_store()

    def test_alu_pipelines_accept_singletons(self):
        config = integer_minigraph_config()
        pool = FunctionalUnitPool(config)
        pool.begin_cycle(0)
        issued = sum(1 for _ in range(10) if pool.take_int())
        # Two plain ALUs + two pipeline inputs = unchanged singleton bandwidth.
        assert issued == config.int_alu_units

    def test_integer_handles_need_a_pipeline(self):
        pool = FunctionalUnitPool(baseline_config())
        pool.begin_cycle(0)
        assert not pool.take_integer_handle()
        pool = FunctionalUnitPool(integer_minigraph_config())
        pool.begin_cycle(0)
        assert pool.take_integer_handle()
        assert pool.take_integer_handle()
        assert not pool.take_integer_handle()

    def test_sliding_window_reserves_future_units(self):
        config = integer_memory_minigraph_config()
        pool = FunctionalUnitPool(config)
        pool.begin_cycle(0)
        fubmp = (None, FU_ALU, FU_ALU)
        assert pool.issue_memory_handle(FU_LOAD, fubmp)
        # Only one integer-memory handle per cycle.
        assert not pool.can_issue_memory_handle(FU_LOAD, fubmp)
        # The reservation holds ALU capacity two cycles later.
        pool.begin_cycle(2)
        issued = sum(1 for _ in range(10) if pool.take_int())
        assert issued == config.plain_alu_units + config.alu_pipelines - 1


class TestConfigs:
    def test_baseline_parameters_match_paper(self):
        config = baseline_config()
        assert config.fetch_width == 6
        assert config.rob_size == 128
        assert config.issue_queue_size == 50
        assert config.lsq_size == 64
        assert config.physical_registers == 164
        assert config.int_alu_units == 4 and config.load_ports == 2

    def test_minigraph_configs(self):
        integer = integer_minigraph_config()
        assert integer.alu_pipelines == 2
        assert integer.plain_alu_units == 2
        memory = integer_memory_minigraph_config(collapsing=True)
        assert memory.sliding_window_scheduler
        assert memory.collapsing_alu_pipelines

    def test_register_file_variant(self):
        reduced = baseline_config().with_physical_registers(104)
        assert reduced.in_flight_registers == 40

    def test_width_variant(self):
        narrow = baseline_config().with_width(4, execute_width=6, load_ports=2)
        assert narrow.fetch_width == 4
        assert narrow.issue_width == 6
        assert narrow.load_ports == 2

    def test_scheduler_variant(self):
        pipelined = baseline_config().with_scheduler_latency(2)
        assert pipelined.scheduler_latency == 2
