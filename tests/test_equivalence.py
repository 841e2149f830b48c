"""End-to-end equivalence: rewritten programs compute exactly what the
originals compute, for every benchmark and every selection policy family.

This is the core correctness property of the whole system: collapsing
mini-graphs into handles must not change architectural semantics.
"""

import pytest

from repro.fuzz.oracles import control_stream, memory_access_stream
from repro.minigraph import (
    DEFAULT_POLICY,
    INTEGER_POLICY,
    NON_SERIAL_NON_REPLAY_POLICY,
    MiniGraphTable,
    select_minigraphs,
)
from repro.program import rewrite_program
from repro.sim import run_program
from repro.uarch import integer_memory_minigraph_config, simulate_program
from repro.workloads import REGISTRY, load_benchmark

#: A representative subset spanning all four suites (full sweeps live in the
#: benchmark harness; the test suite keeps runtime moderate).
EQUIVALENCE_BENCHMARKS = (
    "gcc", "mcf", "crafty", "gzip",
    "adpcm.encode", "gsm.toast", "jpeg.compress", "mpeg2.decode",
    "frag", "rtr", "reed.encode",
    "bitcount", "sha", "crc", "susan.smoothing", "dijkstra",
)

# Large enough that every kernel runs to its halt instruction; comparing runs
# that were cut off mid-loop would make the final register state depend on
# where exactly the budget boundary fell.
BUDGET = 120_000


def _equivalence_case(benchmark: str, policy) -> None:
    program = load_benchmark(benchmark)
    baseline = run_program(program, max_instructions=BUDGET)
    assert baseline.halted, f"{benchmark} must reach halt for the equivalence check"
    selection = select_minigraphs(program, baseline.profile, policy=policy)
    mgt = MiniGraphTable.from_selection(selection)
    rewritten = rewrite_program(program, selection.rewrite_sites()).program
    result = run_program(rewritten, mgt=mgt, max_instructions=BUDGET)
    # Memory state is the architectural output of every kernel (results are
    # stored to output arrays).  Final *register* state is deliberately not
    # compared wholesale: interior values that liveness proves dead at program
    # exit are never materialised by the rewritten program, exactly as the
    # paper's transient-value optimisation intends.
    assert result.memory.checksum() == baseline.memory.checksum(), (
        f"{benchmark}: rewritten program diverged from the original")
    assert result.instructions_executed == baseline.instructions_executed
    assert result.halted
    # Handles really do absorb work: slots committed must not exceed original.
    assert result.entries_committed <= baseline.entries_committed
    # Handles reorder neither memory accesses nor control transfers: a
    # branch-bearing graph is anchored at its terminal branch, and memory
    # members never cross other memory operations.  So the per-entry flags,
    # effective addresses and successor PCs the timing model reads agree
    # with the original's, in commit order.
    assert memory_access_stream(result.trace) == \
        memory_access_stream(baseline.trace)
    assert control_stream(result.trace) == control_stream(baseline.trace)


@pytest.mark.parametrize("benchmark_name", EQUIVALENCE_BENCHMARKS)
def test_integer_memory_rewriting_preserves_semantics(benchmark_name):
    _equivalence_case(benchmark_name, DEFAULT_POLICY)


@pytest.mark.parametrize("benchmark_name", EQUIVALENCE_BENCHMARKS[:8])
def test_integer_only_rewriting_preserves_semantics(benchmark_name):
    _equivalence_case(benchmark_name, INTEGER_POLICY)


@pytest.mark.parametrize("benchmark_name", EQUIVALENCE_BENCHMARKS[:6])
def test_restricted_policy_rewriting_preserves_semantics(benchmark_name):
    _equivalence_case(benchmark_name, NON_SERIAL_NON_REPLAY_POLICY)


def test_every_registered_benchmark_assembles_and_runs():
    for name in REGISTRY.names():
        program = load_benchmark(name)
        result = run_program(program, max_instructions=3_000)
        assert result.instructions_executed > 500, name


def test_rewritten_trace_coverage_matches_selection_estimate():
    program = load_benchmark("gsm.toast")
    baseline = run_program(program, max_instructions=BUDGET)
    selection = select_minigraphs(program, baseline.profile, policy=DEFAULT_POLICY)
    mgt = MiniGraphTable.from_selection(selection)
    rewritten = rewrite_program(program, selection.rewrite_sites()).program
    result = run_program(rewritten, mgt=mgt, max_instructions=BUDGET)
    stats = simulate_program(rewritten, result.trace,
                             integer_memory_minigraph_config(), mgt=mgt)
    assert stats.dynamic_coverage == pytest.approx(selection.coverage, abs=0.02)
