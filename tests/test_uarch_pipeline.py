"""End-to-end tests of the cycle-level timing model."""

import pytest

from repro.api import RunSpec, Session
from repro.minigraph import INTEGER_POLICY, MgtBuildOptions
from repro.program import Program
from repro.sim import run_program
from repro.uarch import (
    TimingSimulator,
    baseline_config,
    integer_memory_minigraph_config,
    integer_minigraph_config,
    simulate_program,
)
from repro.workloads import load_benchmark

BUDGET = 6_000


def _minigraph_run(benchmark, budget=BUDGET, **spec_fields):
    """A fresh session and a mini-graph spec for ``benchmark``."""
    return Session(), RunSpec(benchmark=benchmark, budget=budget, **spec_fields)


def _baseline_stats(source_or_program, config=None, budget=BUDGET):
    program = (source_or_program if isinstance(source_or_program, Program)
               else Program.from_assembly("timing", source_or_program))
    functional = run_program(program, max_instructions=budget)
    return simulate_program(program, functional.trace, config or baseline_config())


SERIAL_CHAIN = """
  clr r1
  ldi r2, 1000
loop:
  addqi r1,1,r1
  cmplt r1,r2,r3
  bne r3,loop
  halt
"""

INDEPENDENT_OPS = """
  clr r1
  ldi r2, 500
loop:
  addqi r3,1,r3
  addqi r4,1,r4
  addqi r5,1,r5
  addqi r6,1,r6
  addqi r1,1,r1
  cmplt r1,r2,r7
  bne r7,loop
  halt
"""


class TestBaselinePipeline:
    def test_all_work_retires(self):
        stats = _baseline_stats(SERIAL_CHAIN)
        assert stats.committed_instructions == BUDGET or stats.committed_instructions > 2900

    def test_ipc_bounded_by_machine_width(self):
        stats = _baseline_stats(INDEPENDENT_OPS)
        assert 0.0 < stats.ipc <= baseline_config().fetch_width

    def test_dependent_chain_is_slower_than_independent_ops(self):
        serial = _baseline_stats(SERIAL_CHAIN)
        parallel = _baseline_stats(INDEPENDENT_OPS)
        assert parallel.ipc > serial.ipc

    def test_two_cycle_scheduler_hurts_dependent_code(self):
        fast = _baseline_stats(SERIAL_CHAIN)
        slow = _baseline_stats(SERIAL_CHAIN, baseline_config().with_scheduler_latency(2))
        assert slow.ipc < fast.ipc

    def test_narrow_machine_hurts_parallel_code(self):
        wide = _baseline_stats(INDEPENDENT_OPS)
        narrow = _baseline_stats(INDEPENDENT_OPS,
                                 baseline_config().with_width(2, execute_width=2,
                                                              load_ports=1))
        assert narrow.ipc < wide.ipc

    def test_branch_mispredictions_are_counted(self):
        # Data-dependent branch pattern the predictor cannot fully learn.
        source = """
        .data noise 13 7 22 5 91 3 64 17 38 2 55 29 8 71 44 19
          la r16, noise
          ldi r18, 16
          clr r10
          clr r11
        loop:
          s8addl r10,r16,r8
          ldq r2,0(r8)
          andi r2,1,r3
          beq r3,even
          addqi r11,1,r11
        even:
          addqi r10,1,r10
          andi r10,15,r10
          addqi r12,1,r12
          cmplti r12,600,r9
          bne r9,loop
          halt
        """
        stats = _baseline_stats(source)
        assert stats.branch_lookups > 0
        assert stats.branch_mispredictions > 0
        assert stats.branch_misprediction_rate < 0.6

    def test_cache_misses_slow_execution(self):
        # Strided accesses over a footprint larger than the 32KB L1.
        source = """
        .space big 8192
          la r16, big
          clr r10
          ldi r18, 2000
        loop:
          andi r10,4095,r2
          s8addl r2,r16,r8
          ldq r3,0(r8)
          addq r11,r3,r11
          addqi r10,67,r10
          addqi r12,1,r12
          cmplt r12,r18,r9
          bne r9,loop
          halt
        """
        stats = _baseline_stats(source, budget=12_000)
        assert stats.dcache_misses > 0
        small_footprint = _baseline_stats(SERIAL_CHAIN)
        assert stats.ipc < small_footprint.ipc * 2

    def test_register_file_pressure(self):
        full = _baseline_stats(INDEPENDENT_OPS)
        tiny = _baseline_stats(INDEPENDENT_OPS, baseline_config().with_physical_registers(72))
        assert tiny.ipc <= full.ipc
        assert tiny.stall_no_physical_register > 0


class TestMiniGraphPipeline:
    def test_handles_retire_and_amplify_bandwidth(self):
        session, spec = _minigraph_run("gsm.toast")
        stats = session.minigraph_timing(spec, integer_memory_minigraph_config())
        assert stats.committed_handles > 0
        assert stats.dynamic_coverage > 0.1
        assert stats.committed_instructions > stats.committed_slots

    def test_minigraphs_speed_up_bandwidth_bound_code(self):
        session, spec = _minigraph_run("adpcm.encode", policy=INTEGER_POLICY)
        baseline = session.baseline_timing(spec)
        minigraph = session.minigraph_timing(spec, integer_minigraph_config())
        assert minigraph.ipc > baseline.ipc

    def test_same_committed_work_as_baseline(self):
        session, spec = _minigraph_run("frag")
        baseline = session.baseline_timing(spec)
        minigraph = session.minigraph_timing(spec, integer_memory_minigraph_config())
        assert minigraph.committed_instructions == baseline.committed_instructions

    def test_collapsing_is_at_least_as_fast(self):
        session, plain = _minigraph_run("bitcount", policy=INTEGER_POLICY)
        collapsed = plain.with_mgt_options(MgtBuildOptions(collapsing=True))
        plain_ipc = session.minigraph_timing(plain, integer_minigraph_config()).ipc
        collapsed_ipc = session.minigraph_timing(
            collapsed, integer_minigraph_config(collapsing=True)).ipc
        assert collapsed_ipc >= plain_ipc * 0.98

    def test_integer_memory_handles_require_sliding_window(self):
        session, spec = _minigraph_run("rtr")
        with pytest.raises(Exception):
            # no sliding window
            session.minigraph_timing(spec, integer_minigraph_config())

    def test_minigraphs_help_reduced_register_file(self):
        session, spec = _minigraph_run("frag")
        reduced = baseline_config().with_physical_registers(124)
        baseline_reduced = session.baseline_timing(spec, reduced)
        minigraph_reduced = session.minigraph_timing(
            spec, reduced.with_minigraph_alu_pipelines(2).with_sliding_window())
        assert minigraph_reduced.ipc > baseline_reduced.ipc

    def test_minigraphs_tolerate_two_cycle_scheduler(self):
        session, spec = _minigraph_run("bitcount")
        slow = baseline_config().with_scheduler_latency(2)
        baseline_slow = session.baseline_timing(spec, slow)
        minigraph_slow = session.minigraph_timing(
            spec, slow.with_minigraph_alu_pipelines(2).with_sliding_window())
        assert minigraph_slow.ipc > baseline_slow.ipc

    def test_interior_load_misses_cause_replays(self):
        session, spec = _minigraph_run("mcf", budget=10_000)
        stats = session.minigraph_timing(spec, integer_memory_minigraph_config())
        assert stats.minigraph_replays > 0

    def test_compressed_layout_reduces_icache_pressure(self):
        session, spec = _minigraph_run("gcc")
        config = integer_memory_minigraph_config()
        padded = session.minigraph_timing(spec, config)
        compressed = session.minigraph_timing(spec.with_compressed_layout(), config)
        assert compressed.icache_misses <= padded.icache_misses

    def test_stats_dictionary_is_complete(self):
        stats = _baseline_stats(SERIAL_CHAIN)
        table = stats.as_dict()
        assert table["cycles"] > 0
        assert "ipc" in table and "dynamic_coverage" in table


class TestEventDrivenScheduler:
    """Regression tests for the wakeup/select event queue."""

    @staticmethod
    def _timeline(program, config, *, mgt=None, budget=BUDGET):
        functional = run_program(program, max_instructions=budget,
                                 mgt=mgt)
        simulator = TimingSimulator(program, functional.trace, config,
                                    mgt=mgt, record_timeline=True)
        simulator.run()
        return simulator.timeline

    @staticmethod
    def _assert_no_early_wakeups(timeline):
        """No consumer may issue before its producer's broadcast cycle."""
        producers = {}  # physical register -> most recent writer
        checked = 0
        for inst in timeline:
            assert inst.issue_cycle > inst.rename_cycle
            assert inst.complete_cycle > inst.issue_cycle
            for physical in inst.source_physical:
                if physical is None:
                    continue
                producer = producers.get(physical)
                if producer is None:
                    continue  # architectural initial value, ready at cycle 0
                assert inst.issue_cycle >= producer.output_ready_cycle, (
                    f"consumer {inst.describe()} woke before producer "
                    f"{producer.describe()} broadcast at "
                    f"{producer.output_ready_cycle}")
                checked += 1
            if inst.destination_physical is not None:
                producers[inst.destination_physical] = inst
        assert checked > 0, "timeline exercised no register dependences"

    def test_no_consumer_wakes_before_producer_broadcast(self):
        program = load_benchmark("bitcount")
        self._assert_no_early_wakeups(
            self._timeline(program, baseline_config()))

    def test_no_early_wakeups_with_handles(self):
        session, spec = _minigraph_run("gsm.toast")
        rewritten, mgt = session.rewritten(spec), session.mgt(spec)
        functional = run_program(rewritten, mgt=mgt, max_instructions=BUDGET)
        simulator = TimingSimulator(rewritten, functional.trace,
                                    integer_memory_minigraph_config(),
                                    mgt=mgt, record_timeline=True)
        stats = simulator.run()
        assert stats.committed_handles > 0
        self._assert_no_early_wakeups(simulator.timeline)
